//! Bounded flight recorders and the slow-op log.
//!
//! Every node (fabric, each provider, each client) keeps a fixed-size
//! ring of recent [`FlightEvent`]s — finished spans, injected faults,
//! endpoint down/up transitions, read failovers, degraded answers. After
//! a chaos run the rings are merged into one time-ordered dump
//! (`Deployment::flight_dump()`), which is enough to name the provider
//! and fault window responsible for each degraded answer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::TimeSource;
use crate::registry::Metric;
use crate::trace::SpanRecord;

/// One entry in a flight recorder ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlightEvent {
    /// A finished span.
    Span(SpanRecord),
    /// The fault plan injected a fault into a dispatch.
    Fault {
        /// When, on the recorder's clock.
        at_us: u64,
        /// Target endpoint of the faulted call.
        endpoint: u32,
        /// Method of the faulted call.
        method: String,
        /// Human-readable action (`"timeout"`, `"drop_reply"`, ...).
        action: String,
    },
    /// An endpoint was marked down.
    EndpointDown {
        /// When, on the recorder's clock.
        at_us: u64,
        /// The endpoint.
        endpoint: u32,
    },
    /// An endpoint came back up.
    EndpointUp {
        /// When, on the recorder's clock.
        at_us: u64,
        /// The endpoint.
        endpoint: u32,
    },
    /// A read failed over from one replica to another.
    Failover {
        /// When, on the recorder's clock.
        at_us: u64,
        /// Trace the failover happened under (0 if unknown).
        trace_id: u64,
        /// Replica that failed.
        from: u32,
        /// Replica that answered instead.
        to: u32,
        /// What was being read (method or key description).
        what: String,
    },
    /// A broadcast answered below full coverage.
    Degraded {
        /// When, on the recorder's clock.
        at_us: u64,
        /// Trace of the degraded operation (0 if unknown).
        trace_id: u64,
        /// The operation (`"query_best_ancestor"`, ...).
        op: String,
        /// Endpoints that could not be reached.
        unreachable: Vec<u32>,
    },
    /// Free-form annotation.
    Note {
        /// When, on the recorder's clock.
        at_us: u64,
        /// The annotation.
        text: String,
    },
}

impl FlightEvent {
    /// The event's timestamp (spans use their end time — the moment they
    /// were recorded).
    pub fn at_us(&self) -> u64 {
        match self {
            FlightEvent::Span(s) => s.end_us,
            FlightEvent::Fault { at_us, .. }
            | FlightEvent::EndpointDown { at_us, .. }
            | FlightEvent::EndpointUp { at_us, .. }
            | FlightEvent::Failover { at_us, .. }
            | FlightEvent::Degraded { at_us, .. }
            | FlightEvent::Note { at_us, .. } => *at_us,
        }
    }
}

/// A bounded ring of recent [`FlightEvent`]s for one node. Push is
/// lock-then-rotate; when full the oldest event is dropped and counted,
/// so a long chaos run keeps the recent window plus an honest tally of
/// what fell off.
pub struct FlightRecorder {
    node: String,
    cap: usize,
    clock: Arc<dyn TimeSource>,
    ring: Mutex<VecDeque<FlightEvent>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("node", &self.node)
            .field("cap", &self.cap)
            .field("len", &self.ring.lock().len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder for `node` keeping at most `cap` events (cap 0 is
    /// clamped to 1).
    pub fn new(node: &str, cap: usize, clock: Arc<dyn TimeSource>) -> FlightRecorder {
        FlightRecorder {
            node: node.to_string(),
            cap: cap.max(1),
            clock,
            ring: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Node name this recorder belongs to.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current time on the recorder's clock.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, event: FlightEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Record an injected fault.
    pub fn note_fault(&self, endpoint: u32, method: &str, action: &str) {
        self.push(FlightEvent::Fault {
            at_us: self.now_us(),
            endpoint,
            method: method.to_string(),
            action: action.to_string(),
        });
    }

    /// Record an endpoint going down.
    pub fn note_down(&self, endpoint: u32) {
        self.push(FlightEvent::EndpointDown {
            at_us: self.now_us(),
            endpoint,
        });
    }

    /// Record an endpoint coming back.
    pub fn note_up(&self, endpoint: u32) {
        self.push(FlightEvent::EndpointUp {
            at_us: self.now_us(),
            endpoint,
        });
    }

    /// Record a read failover.
    pub fn note_failover(&self, trace_id: u64, from: u32, to: u32, what: &str) {
        self.push(FlightEvent::Failover {
            at_us: self.now_us(),
            trace_id,
            from,
            to,
            what: what.to_string(),
        });
    }

    /// Record a degraded (below-full-coverage) answer.
    pub fn note_degraded(&self, trace_id: u64, op: &str, unreachable: Vec<u32>) {
        self.push(FlightEvent::Degraded {
            at_us: self.now_us(),
            trace_id,
            op: op.to_string(),
            unreachable,
        });
    }

    /// Record a free-form annotation.
    pub fn note(&self, text: impl Into<String>) {
        self.push(FlightEvent::Note {
            at_us: self.now_us(),
            text: text.into(),
        });
    }

    /// Oldest-to-newest copy of the ring.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Total events ever pushed.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Ring health as `evostore_obs_flight_*` series labeled by node.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::counter("evostore_obs_flight_events", self.recorded())
                .with_label("node", &self.node),
            Metric::counter("evostore_obs_flight_dropped", self.dropped())
                .with_label("node", &self.node),
        ]
    }

    /// All span events in the ring belonging to `trace_id`, oldest
    /// first. The exemplar→trace join starts here.
    pub fn spans_for_trace(&self, trace_id: u64) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .iter()
            .filter_map(|e| match e {
                FlightEvent::Span(s) if s.trace_id == trace_id => Some(s.clone()),
                _ => None,
            })
            .collect()
    }
}

/// A root span that exceeded the slow threshold, kept verbatim with its
/// child breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowOp {
    /// The slow operation's root span.
    pub root: SpanRecord,
    /// Its recorded child spans (attempts, handler hops), in finish
    /// order.
    pub children: Vec<SpanRecord>,
}

/// Bounded log of [`SlowOp`]s: root spans whose duration met the
/// threshold. Like the flight recorder, oldest entries are evicted.
#[derive(Debug)]
pub struct SlowOpLog {
    threshold_us: u64,
    cap: usize,
    entries: Mutex<VecDeque<SlowOp>>,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl SlowOpLog {
    /// Retain root spans of at least `threshold_us`, keeping at most
    /// `cap` (cap 0 clamped to 1).
    pub fn new(threshold_us: u64, cap: usize) -> SlowOpLog {
        SlowOpLog {
            threshold_us,
            cap: cap.max(1),
            entries: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The retention threshold in microseconds.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Append an entry, evicting the oldest when full.
    pub fn push(&self, op: SlowOp) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        if entries.len() == self.cap {
            entries.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        entries.push_back(op);
    }

    /// Total slow ops ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Slow ops evicted because the log was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Oldest-to-newest copy of the log.
    pub fn entries(&self) -> Vec<SlowOp> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let clock = Arc::new(VirtualClock::new());
        let rec = FlightRecorder::new("n", 3, clock.clone());
        for i in 0..5 {
            clock.set_us(i * 10);
            rec.note(format!("e{i}"));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.recorded(), 5);
        assert_eq!(rec.dropped(), 2);
        let texts: Vec<String> = rec
            .events()
            .into_iter()
            .map(|e| match e {
                FlightEvent::Note { text, .. } => text,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(texts, ["e2", "e3", "e4"]);
    }

    #[test]
    fn events_carry_clock_timestamps() {
        let clock = Arc::new(VirtualClock::starting_at(42));
        let rec = FlightRecorder::new("n", 8, clock);
        rec.note_down(1);
        rec.note_fault(2, "m", "timeout");
        rec.note_failover(9, 1, 2, "read");
        rec.note_degraded(9, "query", vec![1]);
        rec.note_up(1);
        for e in rec.events() {
            assert_eq!(e.at_us(), 42);
        }
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn slow_log_is_bounded() {
        let log = SlowOpLog::new(10, 2);
        let span = |n: &str| SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_span_id: 0,
            name: n.to_string(),
            node: "n".to_string(),
            endpoint: None,
            start_us: 0,
            end_us: 20,
            status: "ok".to_string(),
        };
        for n in ["a", "b", "c"] {
            log.push(SlowOp {
                root: span(n),
                children: vec![],
            });
        }
        let names: Vec<String> = log.entries().into_iter().map(|s| s.root.name).collect();
        assert_eq!(names, ["b", "c"]);
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.evicted(), 1);
    }

    #[test]
    fn spans_for_trace_filters_by_trace_id() {
        let clock = Arc::new(VirtualClock::new());
        let rec = FlightRecorder::new("n", 8, clock);
        let span = |trace: u64, id: u64| SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span_id: 0,
            name: "op".to_string(),
            node: "n".to_string(),
            endpoint: None,
            start_us: 0,
            end_us: 1,
            status: "ok".to_string(),
        };
        rec.push(FlightEvent::Span(span(7, 1)));
        rec.push(FlightEvent::Span(span(8, 2)));
        rec.push(FlightEvent::Span(span(7, 3)));
        rec.note("unrelated");
        let got = rec.spans_for_trace(7);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|s| s.trace_id == 7));
    }
}
