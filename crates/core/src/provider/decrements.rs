//! The decrement pump: the provider that retires a record sends its
//! reference-count decrements. GC is reference counting among the
//! providers (§4.1), so a client's retire is one round: `RETIRE_META`.
//!
//! [`ProviderState::handle_retire_meta`](super::ProviderState::handle_retire_meta)
//! hands the pump the record `retire_record` took. The pump groups its
//! keys by every replica of their owner into one `DECR_REFS` leg per
//! target, carrying the retirement's deterministic op id for that target
//! ([`RefsRequest::retirement_op_id`]). The leg aimed at the retiring
//! provider itself is applied by the handler before it replies: it is
//! local work, and sent to itself it would wait behind the caller's next
//! request on the provider's service thread. The pump queues the others,
//! and its own thread sends every due leg in one overlapped round, never
//! from inside a handler. A leg that fails transiently goes back on the
//! queue with backoff; a leg no retry can clear is counted, noted in the
//! flight recorder and dropped.
//!
//! At r > 1 every replica retires the record and queues the same legs:
//! the target's op-id memo applies each op id once, so the memo window
//! (`REFS_OP_MEMORY`) bounds how late a duplicate may arrive. A leg that
//! arrives after `repair` hits the fence repair seeded for the
//! retirement. The queue lives in memory: a restart drops it, and
//! `reopen`'s census rebuilds every count from the live records, so no
//! leg is ever re-sent after one.

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use evostore_obs::FlightRecorder;
use evostore_rpc::{EndpointId, Fabric, RetryPolicy};
use evostore_tensor::{ModelId, TensorKey};

use crate::messages::RefsRequest;
use crate::methods;
use crate::replication::ReplicationPolicy;

/// Deadline of one leg's attempt. A leg that times out after it applied
/// is harmless: its retry is answered from the target's op-id memo.
const LEG_TIMEOUT: Duration = Duration::from_secs(1);

/// Backoff before a failed leg's first retry; it doubles per retry up to
/// [`MAX_BACKOFF`], so a leg aimed at a down provider costs five attempts
/// a second.
const BASE_BACKOFF: Duration = Duration::from_millis(1);

/// Backoff cap.
const MAX_BACKOFF: Duration = Duration::from_millis(200);

/// The longest a drain waits for the legs queued when it began to land or
/// fail twice.
pub(super) const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// One queued `DECR_REFS` leg.
struct Leg {
    /// Provider index of the target.
    target: usize,
    req: RefsRequest,
    /// When its retirement queued it.
    queued_at: Instant,
    /// Not sent before this instant (backoff).
    due: Instant,
    /// Attempts that failed transiently so far.
    failures: u32,
}

#[derive(Default)]
struct Queue {
    /// Legs waiting for a round.
    waiting: Vec<Leg>,
    /// Legs of the round in flight, and when the oldest of them was
    /// queued.
    in_flight: usize,
    in_flight_since: Option<Instant>,
    /// Rounds finished.
    rounds: u64,
    /// Drains waiting: a leg that fails while one waits is due again at
    /// once, so the drain sees every leg tried after it began.
    draining: usize,
    /// The provider is shutting down: nothing more is queued or sent.
    stop: bool,
}

impl Queue {
    fn held(&self) -> usize {
        self.waiting.len() + self.in_flight
    }
}

/// The pump's gauges and counters, as `STATS` reports them.
#[derive(Clone, Copy, Default)]
pub(super) struct PumpStats {
    pub queued: u64,
    pub oldest_age_us: u64,
    pub retried: u64,
    pub dropped: u64,
}

/// One provider's queue of decrement legs and the thread that sends them.
pub(super) struct DecrementPump {
    fabric: Arc<Fabric>,
    replication: ReplicationPolicy,
    /// The deployment's provider endpoints in provider-index order — the
    /// list clients get — set once every provider is spawned.
    peers: OnceLock<Vec<EndpointId>>,
    queue: Mutex<Queue>,
    /// Wakes the pump: a leg was queued, a drain wants every leg now, or
    /// the provider stops.
    wake: Condvar,
    /// Wakes drains: a round finished.
    settled: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// The provider's flight ring, where a dropped leg is noted.
    recorder: Arc<FlightRecorder>,
    retried: AtomicU64,
    dropped: AtomicU64,
}

impl DecrementPump {
    pub(super) fn new(
        fabric: Arc<Fabric>,
        replication: ReplicationPolicy,
        recorder: Arc<FlightRecorder>,
    ) -> DecrementPump {
        DecrementPump {
            fabric,
            replication,
            peers: OnceLock::new(),
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            settled: Condvar::new(),
            thread: Mutex::new(None),
            recorder,
            retried: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Give the pump the deployment's provider endpoints (once).
    pub(super) fn set_peers(&self, peers: Vec<EndpointId>) {
        assert!(
            self.peers.set(peers).is_ok(),
            "a provider's peers are set once"
        );
    }

    /// Refuse a retirement the pump could not address.
    pub(super) fn ready(&self) -> Result<(), String> {
        match self.peers.get() {
            Some(_) => Ok(()),
            None => Err("provider endpoint list not set: cannot send decrements".into()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("decrement pump lock")
    }

    /// The decrement legs of retiring `model`'s incarnation stored at
    /// `timestamp`, whose owner map named `keys`: one leg per replica of
    /// their owners. The legs aimed at other providers are queued; the
    /// one aimed at provider `own`, this pump's, is handed back for the
    /// caller to apply. [`DecrementPump::ready`] must have passed.
    pub(super) fn retire(
        self: &Arc<Self>,
        model: ModelId,
        timestamp: u64,
        keys: Vec<TensorKey>,
        own: usize,
    ) -> Option<RefsRequest> {
        let n = self.peers.get().expect("checked by ready()").len();
        let now = Instant::now();
        let mut local = None;
        let mut remote = Vec::new();
        for (target, keys) in self.replication.group_by_replicas(keys, n) {
            let op_id = RefsRequest::retirement_op_id(model, timestamp, target);
            let req = RefsRequest::with_op_id(op_id, keys);
            if target == own {
                local = Some(req);
                continue;
            }
            remote.push(Leg {
                target,
                req,
                queued_at: now,
                due: now,
                failures: 0,
            });
        }
        if !remote.is_empty() {
            let mut q = self.lock();
            if q.stop {
                return local;
            }
            q.waiting.extend(remote);
            drop(q);
            self.ensure_thread();
            self.wake.notify_all();
        }
        local
    }

    /// Count a leg no retry can clear and note it in the flight ring.
    pub(super) fn drop_leg(&self, target: usize, op_id: u64, keys: usize, e: &dyn Display) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        self.recorder.note(format!(
            "GC DROP decrement leg op={op_id:016x} ({keys} keys) to provider{target}: {e}"
        ));
    }

    /// Start the pump thread if it is not running yet.
    fn ensure_thread(self: &Arc<Self>) {
        let mut thread = self.thread.lock().expect("decrement pump thread");
        if thread.is_none() && !self.lock().stop {
            let pump = Arc::clone(self);
            *thread = Some(
                std::thread::Builder::new()
                    .name("decrement-pump".into())
                    .spawn(move || pump.run())
                    .expect("spawn decrement pump"),
            );
        }
    }

    /// Stop the pump and wait for it (provider shutdown). Queued legs are
    /// dropped with it.
    pub(super) fn shutdown(&self) {
        self.lock().stop = true;
        self.wake.notify_all();
        self.settled.notify_all();
        let thread = self.thread.lock().expect("decrement pump thread").take();
        if let Some(thread) = thread {
            thread.join().expect("decrement pump panicked");
        }
    }

    fn run(self: Arc<Self>) {
        let peers = self.peers.get().expect("set before a leg is queued");
        let policy = RetryPolicy::no_retry().with_timeout(LEG_TIMEOUT);
        while let Some(round) = self.next_round() {
            let (legs, sent): (Vec<_>, Vec<_>) = round
                .into_iter()
                .map(|leg| {
                    let sent = (peers[leg.target], leg.req);
                    ((leg.target, leg.queued_at, leg.failures), sent)
                })
                .unzip();
            let results =
                evostore_rpc::fan_out(&self.fabric, &sent, methods::DecrRefs, &policy, None, None);
            self.settle(legs, sent, results);
        }
    }

    /// Wait for due legs and take them as one round (`None` at stop).
    fn next_round(&self) -> Option<Vec<Leg>> {
        let mut q = self.lock();
        loop {
            if q.stop {
                return None;
            }
            let now = Instant::now();
            if q.waiting.iter().any(|leg| leg.due <= now) {
                let (due, later): (Vec<Leg>, Vec<Leg>) = std::mem::take(&mut q.waiting)
                    .into_iter()
                    .partition(|leg| leg.due <= now);
                q.waiting = later;
                q.in_flight = due.len();
                q.in_flight_since = due.iter().map(|leg| leg.queued_at).min();
                return Some(due);
            }
            let next = q.waiting.iter().map(|leg| leg.due - now).min();
            q = match next {
                Some(wait) => {
                    self.wake
                        .wait_timeout(q, wait)
                        .expect("decrement pump lock")
                        .0
                }
                None => self.wake.wait(q).expect("decrement pump lock"),
            };
        }
    }

    /// File a round's results: a transient failure re-queues its leg with
    /// backoff, any other failure drops it.
    fn settle(
        &self,
        legs: Vec<(usize, Instant, u32)>,
        sent: Vec<(EndpointId, RefsRequest)>,
        results: evostore_rpc::LegResults<crate::messages::RefsReply>,
    ) {
        let mut q = self.lock();
        let now = Instant::now();
        for (((target, queued_at, failures), (_, req)), (_, result)) in
            legs.into_iter().zip(sent).zip(results)
        {
            match result {
                Ok(_) => {}
                Err(e) if e.is_transient() => {
                    self.retried.fetch_add(1, Ordering::Relaxed);
                    let failures = failures + 1;
                    let due = match q.draining {
                        0 => now + backoff(failures),
                        _ => now,
                    };
                    q.waiting.push(Leg {
                        target,
                        req,
                        queued_at,
                        due,
                        failures,
                    });
                }
                Err(e) => self.drop_leg(target, req.op_id, req.keys.len(), &e),
            }
        }
        q.in_flight = 0;
        q.in_flight_since = None;
        q.rounds += 1;
        drop(q);
        self.settled.notify_all();
    }

    /// Send every queued leg now and wait, at most `bound`, until each has
    /// landed or failed twice since. Returns the legs still queued: their
    /// targets are unreachable.
    pub(super) fn drain(&self, bound: Duration) -> usize {
        let deadline = Instant::now() + bound;
        let mut q = self.lock();
        if q.held() == 0 {
            return 0;
        }
        let now = Instant::now();
        q.waiting.iter_mut().for_each(|leg| leg.due = now);
        // Two rounds after this one began, so one lost reply does not pass
        // for an unreachable target (a failed leg is due again at once
        // while a drain waits); one more when a round already in flight
        // took its legs before.
        let until = q.rounds + 2 + u64::from(q.in_flight > 0);
        q.draining += 1;
        self.wake.notify_all();
        while q.held() > 0 && q.rounds < until && !q.stop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            q = self
                .settled
                .wait_timeout(q, left)
                .expect("decrement pump lock")
                .0;
        }
        q.draining -= 1;
        q.held()
    }

    pub(super) fn stats(&self) -> PumpStats {
        let q = self.lock();
        let oldest = q
            .waiting
            .iter()
            .map(|leg| leg.queued_at)
            .chain(q.in_flight_since)
            .min();
        PumpStats {
            queued: q.held() as u64,
            oldest_age_us: oldest.map_or(0, |t| t.elapsed().as_micros() as u64),
            retried: self.retried.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Backoff before retry number `failures` (1-based).
fn backoff(failures: u32) -> Duration {
    (BASE_BACKOFF * 2u32.saturating_pow(failures.saturating_sub(1).min(16))).min(MAX_BACKOFF)
}
