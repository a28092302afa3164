//! Request-scoped trace contexts and span trees.
//!
//! A [`TraceContext`] is the triple `{trace_id, span_id, parent_span_id}`
//! that rides the RPC envelope: the client mints a root context per
//! operation, every retry attempt and every provider-side handler opens a
//! child span under it, and the finished [`SpanRecord`]s land in the
//! node's flight recorder — so a degraded answer can be traced from the
//! client call through each attempt to the provider that served (or
//! failed) it.
//!
//! Propagation across the in-process fabric uses two mechanisms: the
//! explicit context field on the RPC job (set by traced callers), and a
//! thread-local *ambient* context installed by the service thread around
//! handler invocation ([`set_current_trace`] / [`current_trace`]) so
//! handlers pick up their caller's context without signature changes.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::recorder::{FlightEvent, FlightRecorder, SlowOp, SlowOpLog};

/// Process-global id allocator: ids are unique across all tracers in the
/// process, so span ids can double as trace ids for roots.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The trace envelope: which request tree a span belongs to and where it
/// hangs in it. `parent_span_id == 0` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The request tree this span belongs to (the root's span id).
    pub trace_id: u64,
    /// This span.
    pub span_id: u64,
    /// The span this one was started under (0 for roots).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// Mint a fresh root context (a new trace).
    pub fn root() -> TraceContext {
        let id = next_id();
        TraceContext {
            trace_id: id,
            span_id: id,
            parent_span_id: 0,
        }
    }

    /// A child context under `self`, in the same trace.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: next_id(),
            parent_span_id: self.span_id,
        }
    }
}

thread_local! {
    static AMBIENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The trace context ambiently active on this thread, if any. Service
/// threads install their job's context before invoking the handler.
pub fn current_trace() -> Option<TraceContext> {
    AMBIENT.with(|c| c.get())
}

/// Install `ctx` as the thread's ambient trace context; the returned
/// guard restores the previous value on drop.
pub fn set_current_trace(ctx: Option<TraceContext>) -> AmbientGuard {
    let prev = AMBIENT.with(|c| c.replace(ctx));
    AmbientGuard { prev }
}

/// Restores the previously ambient context when dropped.
pub struct AmbientGuard {
    prev: Option<TraceContext>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

/// A finished span: one timed hop of a request tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 for roots).
    pub parent_span_id: u64,
    /// What the span covers (operation or RPC method name).
    pub name: String,
    /// The node that recorded it (`client0`, `provider2`, `fabric`).
    pub node: String,
    /// Target endpoint for call spans, if any.
    pub endpoint: Option<u32>,
    /// Start, microseconds on the tracer's clock.
    pub start_us: u64,
    /// End, microseconds on the tracer's clock.
    pub end_us: u64,
    /// `"ok"`, or the error the span finished with.
    pub status: String,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Did the span finish cleanly?
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

/// Per-trace pending-children cap: a runaway fan-out can't grow a trace's
/// slow-op breakdown without bound.
const MAX_PENDING_CHILDREN: usize = 256;

/// Creates and finishes spans for one node, timestamping them from the
/// node's [`FlightRecorder`] clock and sinking finished records into it
/// (and, for roots that ran long, into the [`SlowOpLog`]).
pub struct Tracer {
    recorder: Arc<FlightRecorder>,
    slow: Option<Arc<SlowOpLog>>,
    /// Children of *open roots started on this tracer*, buffered so a
    /// slow root can be logged verbatim with its breakdown. Only traces
    /// rooted here get an entry, which bounds the map by in-flight ops.
    pending: Mutex<HashMap<u64, Vec<SpanRecord>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("node", &self.node())
            .finish()
    }
}

impl Tracer {
    /// A tracer for `recorder`'s node, stamping spans from its clock.
    pub fn new(recorder: Arc<FlightRecorder>) -> Tracer {
        Tracer {
            recorder,
            slow: None,
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// Also retain root spans slower than the log's threshold, with
    /// their child breakdown.
    pub fn with_slow_log(mut self, slow: Arc<SlowOpLog>) -> Tracer {
        self.slow = Some(slow);
        self
    }

    /// Node name spans are stamped with.
    pub fn node(&self) -> &str {
        self.recorder.node()
    }

    /// Current time on the tracer's clock.
    pub fn now_us(&self) -> u64 {
        self.recorder.now_us()
    }

    /// The flight recorder finished spans are pushed into.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Open a root span (a fresh trace). Finishes on drop.
    pub fn start_root(&self, name: &str) -> Span<'_> {
        let ctx = TraceContext::root();
        if self.slow.is_some() {
            self.pending.lock().insert(ctx.trace_id, Vec::new());
        }
        self.span(ctx, name, None, true)
    }

    /// Open a child span under `parent` (for a retry attempt, a
    /// provider handler, a kv op...). Finishes on drop.
    pub fn start_child(&self, parent: TraceContext, name: &str, endpoint: Option<u32>) -> Span<'_> {
        self.span(parent.child(), name, endpoint, false)
    }

    fn span<'a>(
        &'a self,
        ctx: TraceContext,
        name: &str,
        endpoint: Option<u32>,
        root: bool,
    ) -> Span<'a> {
        Span {
            tracer: self,
            ctx,
            name: name.to_string(),
            endpoint,
            start_us: self.now_us(),
            root,
            status: None,
            finished: false,
        }
    }

    fn finish(&self, record: SpanRecord, root: bool) {
        if let Some(slow) = &self.slow {
            if root {
                let children = self.pending.lock().remove(&record.trace_id);
                if record.duration_us() >= slow.threshold_us() {
                    slow.push(SlowOp {
                        root: record.clone(),
                        children: children.unwrap_or_default(),
                    });
                }
            } else {
                let mut pending = self.pending.lock();
                if let Some(children) = pending.get_mut(&record.trace_id) {
                    if children.len() < MAX_PENDING_CHILDREN {
                        children.push(record.clone());
                    }
                }
            }
        }
        self.recorder.push(FlightEvent::Span(record));
    }
}

/// An open span; records itself into the tracer's sinks when dropped.
#[must_use = "a span measures the scope it lives in"]
pub struct Span<'a> {
    tracer: &'a Tracer,
    ctx: TraceContext,
    name: String,
    endpoint: Option<u32>,
    start_us: u64,
    root: bool,
    status: Option<String>,
    finished: bool,
}

impl Span<'_> {
    /// The span's context — pass it down to child hops.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Mark the span failed; recorded status becomes `msg`.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.status = Some(msg.into());
    }

    /// Finish now instead of at end of scope.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let record = SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.ctx.parent_span_id,
            name: std::mem::take(&mut self.name),
            node: self.tracer.node().to_string(),
            endpoint: self.endpoint,
            start_us: self.start_us,
            end_us: self.tracer.now_us(),
            status: self.status.take().unwrap_or_else(|| "ok".to_string()),
        };
        self.tracer.finish(record, self.root);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// Render a flat span list as an indented tree (children under their
/// parents, siblings by start time). Spans whose parent is missing from
/// the list are rendered as roots, so partial rings still produce a
/// useful tree.
pub fn render_span_tree(spans: &[SpanRecord]) -> String {
    let ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut roots: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent_span_id == 0 || !ids.contains(&s.parent_span_id))
        .collect();
    roots.sort_by_key(|s| (s.start_us, s.span_id));
    let mut out = String::new();
    for root in roots {
        render_subtree(spans, root, 0, &mut out);
    }
    out
}

fn render_subtree(spans: &[SpanRecord], span: &SpanRecord, depth: usize, out: &mut String) {
    out.push_str(&format!(
        "{}{} [{}{}] {}us {}\n",
        "  ".repeat(depth),
        span.name,
        span.node,
        span.endpoint.map(|e| format!(" ep{e}")).unwrap_or_default(),
        span.duration_us(),
        span.status,
    ));
    let mut children: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent_span_id == span.span_id && s.span_id != span.span_id)
        .collect();
    children.sort_by_key(|s| (s.start_us, s.span_id));
    for c in children {
        render_subtree(spans, c, depth + 1, out);
    }
}

/// Depth of `span_id` in the trace (roots are depth 1; 0 when the span
/// is not in the list). Walks parent links, bounded by the list length.
pub fn span_depth(spans: &[SpanRecord], span_id: u64) -> usize {
    let mut depth = 0;
    let mut cursor = span_id;
    for _ in 0..=spans.len() {
        match spans.iter().find(|s| s.span_id == cursor) {
            Some(s) => {
                depth += 1;
                if s.parent_span_id == 0 {
                    break;
                }
                cursor = s.parent_span_id;
            }
            None => break,
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn tracer_with(clock: Arc<VirtualClock>) -> (Tracer, Arc<FlightRecorder>) {
        let rec = Arc::new(FlightRecorder::new("test", 64, clock.clone()));
        (Tracer::new(rec.clone()), rec)
    }

    fn spans(rec: &FlightRecorder) -> Vec<SpanRecord> {
        rec.events()
            .into_iter()
            .filter_map(|e| match e {
                FlightEvent::Span(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn root_and_child_share_a_trace() {
        let clock = Arc::new(VirtualClock::starting_at(10));
        let (tracer, rec) = tracer_with(clock.clone());
        let root = tracer.start_root("op");
        clock.advance_us(5);
        {
            let mut attempt = tracer.start_child(root.ctx(), "rpc", Some(3));
            clock.advance_us(7);
            attempt.fail("timeout");
        }
        let root_ctx = root.ctx();
        drop(root);

        let spans = spans(&rec);
        assert_eq!(spans.len(), 2);
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(root.trace_id, root.span_id);
        assert_eq!(root.parent_span_id, 0);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root_ctx.span_id);
        assert_eq!(child.endpoint, Some(3));
        assert_eq!(child.start_us, 15);
        assert_eq!(child.end_us, 22);
        assert_eq!(child.status, "timeout");
        assert!(root.is_ok());
        assert_eq!(root.start_us, 10);
        assert_eq!(root.end_us, 22);
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        assert_eq!(current_trace(), None);
        let a = TraceContext::root();
        let b = a.child();
        {
            let _g1 = set_current_trace(Some(a));
            assert_eq!(current_trace(), Some(a));
            {
                let _g2 = set_current_trace(Some(b));
                assert_eq!(current_trace(), Some(b));
            }
            assert_eq!(current_trace(), Some(a));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn slow_ops_are_retained_with_breakdown() {
        let clock = Arc::new(VirtualClock::new());
        let rec = Arc::new(FlightRecorder::new("test", 64, clock.clone()));
        let slow = Arc::new(SlowOpLog::new("test", 100, 8));
        let tracer = Tracer::new(rec).with_slow_log(slow.clone());

        // Fast op: not retained.
        {
            let root = tracer.start_root("fast");
            clock.advance_us(10);
            drop(root);
        }
        assert_eq!(slow.entries().len(), 0);

        // Slow op: retained with its child.
        {
            let root = tracer.start_root("slow");
            {
                let _child = tracer.start_child(root.ctx(), "inner", None);
                clock.advance_us(150);
            }
            drop(root);
        }
        let entries = slow.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].root.name, "slow");
        assert_eq!(entries[0].children.len(), 1);
        assert_eq!(entries[0].children[0].name, "inner");
        // Pending buffer drained.
        assert!(tracer.pending.lock().is_empty());
    }

    #[test]
    fn span_tree_renders_depth_and_orphans() {
        let mk = |id: u64, parent: u64, name: &str, start: u64| SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_span_id: parent,
            name: name.to_string(),
            node: "n".to_string(),
            endpoint: None,
            start_us: start,
            end_us: start + 1,
            status: "ok".to_string(),
        };
        let spans = vec![
            mk(1, 0, "root", 0),
            mk(2, 1, "child", 1),
            mk(3, 2, "grandchild", 2),
            mk(9, 7, "orphan", 3), // parent 7 missing: rendered as root
        ];
        let tree = render_span_tree(&spans);
        assert!(tree.contains("root [n]"));
        assert!(tree.contains("\n  child"));
        assert!(tree.contains("\n    grandchild"));
        assert!(tree.contains("\norphan"));
        assert_eq!(span_depth(&spans, 3), 3);
        assert_eq!(span_depth(&spans, 1), 1);
        assert_eq!(span_depth(&spans, 42), 0);
    }

    #[test]
    fn child_of_foreign_trace_is_not_buffered() {
        let clock = Arc::new(VirtualClock::new());
        let rec = Arc::new(FlightRecorder::new("test", 64, clock.clone()));
        let slow = Arc::new(SlowOpLog::new("test", 0, 8));
        let tracer = Tracer::new(rec).with_slow_log(slow);
        let foreign = TraceContext::root();
        drop(tracer.start_child(foreign, "handler", None));
        assert!(tracer.pending.lock().is_empty());
    }
}
