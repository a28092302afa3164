//! The in-process fabric: endpoints, RPC dispatch, bulk regions.
//!
//! Stands in for the Mochi stack (Mercury + Argobots + Thallium, §4.3):
//!
//! * an [`Endpoint`] owns a pool of *service threads* draining a request
//!   queue — so a provider's request-processing parallelism is a real,
//!   bounded resource, and a centralized server (the Redis baseline)
//!   genuinely saturates under concurrent load;
//! * a method registered on the [`Lane::Caller`] may skip that queue: its
//!   handler runs on the calling thread inside [`Fabric::call_async`] —
//!   for read-only handlers that need no service thread (a provider's
//!   catalog reads pin a published snapshot), so they neither wait behind
//!   the endpoint's writes nor hold its writes up. The caller decides per
//!   call whether to take it: a wide collective queues its legs so they
//!   run in parallel (see [`crate::resilient`]);
//! * two-sided RPCs carry opaque byte bodies; [`crate::codec`] layers
//!   typed messages on top;
//! * [`Fabric::bulk_get_vec`] is the one-sided path: clients pull registered
//!   memory regions directly, *without* involving the target's service
//!   threads — the defining property of RDMA that EvoStore's design
//!   exploits ("the providers are mostly idle because the majority of I/O
//!   transfers are performed using bulk RDMA operations", §4.1).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use evostore_obs::ledger::install_costs;
use evostore_obs::{counter_set, set_current_trace, FlightRecorder, TraceContext};
use parking_lot::RwLock;

use crate::fault::{FaultAction, FaultPlan};

/// Identifies an endpoint on a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Handle to a registered bulk (RDMA-exposed) memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BulkHandle(pub u64);

/// RPC-layer errors.
///
/// Variants split into *transient* faults — the target may answer on a
/// retry ([`RpcError::is_transient`]) — and *permanent* ones, where
/// retrying can never help (wrong method name, withdrawn bulk handle,
/// malformed message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// Target endpoint does not exist (or was shut down).
    NoSuchEndpoint(EndpointId),
    /// Target endpoint has no handler registered under that name.
    NoSuchMethod(String),
    /// The handler returned an application error.
    Handler(String),
    /// The endpoint shut down while the request was in flight.
    Disconnected,
    /// Bulk handle not registered.
    NoSuchBulk(BulkHandle),
    /// Typed-codec failure.
    Codec(String),
    /// No response within the caller's deadline.
    Timeout,
    /// The endpoint exists but is (currently) unreachable — the
    /// transient counterpart of [`RpcError::NoSuchEndpoint`].
    Unavailable(EndpointId),
}

impl RpcError {
    /// Could a retry of the same call plausibly succeed?
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            RpcError::Timeout | RpcError::Unavailable(_) | RpcError::Disconnected
        )
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::NoSuchEndpoint(e) => write!(f, "no such endpoint {e}"),
            RpcError::NoSuchMethod(m) => write!(f, "no such method {m:?}"),
            RpcError::Handler(msg) => write!(f, "handler error: {msg}"),
            RpcError::Disconnected => write!(f, "endpoint disconnected"),
            RpcError::NoSuchBulk(h) => write!(f, "no such bulk handle {h:?}"),
            RpcError::Codec(msg) => write!(f, "codec error: {msg}"),
            RpcError::Timeout => write!(f, "call timed out"),
            RpcError::Unavailable(e) => write!(f, "endpoint {e} unavailable"),
        }
    }
}

impl std::error::Error for RpcError {}

/// An RPC handler: opaque request bytes in, response bytes (or an
/// application error string) out.
pub type Handler = Arc<dyn Fn(Bytes) -> Result<Bytes, String> + Send + Sync>;

/// Where a method's handler runs. A property of the method, declared once
/// by its [`Method`](crate::Method) marker (`, lane = Caller` on its
/// method-table line) and taken from there at registration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Lane {
    /// The target's request queue, drained by its service threads.
    #[default]
    Queue,
    /// The calling thread, inside [`Fabric::call_async`]: no service
    /// thread, no queue. For read-only handlers that never block on the
    /// endpoint's other work. A call made with `inline: false` (the legs
    /// of a wide collective) or given an injected [`FaultAction::Delay`]
    /// still goes through the queue.
    Caller,
}

/// A registered handler and the lane it runs on.
struct Registered {
    handler: Handler,
    lane: Lane,
}

type Reply = Sender<Result<Bytes, RpcError>>;

/// Reply senders whose replies a fault plan dropped. They are parked
/// (not forgotten) so the channel stays open — a deadline-aware caller
/// observes a timeout rather than a disconnect — without leaking: the
/// bin is drained whenever the fault plan changes.
type ParkedReplies = Arc<parking_lot::Mutex<Vec<Reply>>>;

struct Job {
    method: String,
    /// Looked up by the caller at dispatch; `None` answers `NoSuchMethod`.
    handler: Option<Handler>,
    body: Bytes,
    reply: Reply,
    /// Injected service delay (fault plan); `None` on the normal path.
    delay: Option<Duration>,
    /// Injected reply loss (fault plan): run the handler, park the reply
    /// sender in this bin instead of answering. `None` on the normal
    /// path.
    drop_reply_into: Option<ParkedReplies>,
    /// Caller's trace context, installed as the service thread's ambient
    /// context around the handler so provider-side spans join the
    /// caller's trace.
    trace: Option<TraceContext>,
}

struct EndpointInner {
    /// Read by callers at dispatch; the service threads get the handler
    /// in the [`Job`].
    handlers: RwLock<HashMap<String, Registered>>,
    queue: Sender<Job>,
    /// Joined on shutdown.
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A registered endpoint (provider, metadata server, ...).
///
/// Holds the registration alive; dropping the `Endpoint` (or calling
/// [`Fabric::shutdown_endpoint`]) stops its service threads.
pub struct Endpoint {
    id: EndpointId,
    inner: Arc<EndpointInner>,
}

impl Endpoint {
    /// This endpoint's id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// Register (or replace) a handler for `method`, served by the
    /// endpoint's service threads ([`Lane::Queue`]) — for a method that
    /// is in no table (the benchmark's layer probe registers its raw echo
    /// this way, and so do the fabric's own tests). A method of a table
    /// registers through [`Endpoint::serve`] or [`Endpoint::serve_bytes`],
    /// which take its lane from the marker.
    pub fn register<F>(&self, method: &str, handler: F)
    where
        F: Fn(Bytes) -> Result<Bytes, String> + Send + Sync + 'static,
    {
        self.register_on(method, Lane::Queue, handler);
    }

    pub(crate) fn register_on<F>(&self, method: &str, lane: Lane, handler: F)
    where
        F: Fn(Bytes) -> Result<Bytes, String> + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        self.inner
            .handlers
            .write()
            .insert(method.to_string(), Registered { handler, lane });
    }
}

/// A registered bulk region: an ordered list of shared buffers (a rope)
/// plus (optionally) the endpoint whose memory it models. Ownerless
/// regions survive any fault; owned regions become unreadable while their
/// owner is marked down.
struct BulkRegion {
    segments: Vec<Bytes>,
    owner: Option<EndpointId>,
}

/// A fetched vectored bulk region: the ordered segment list plus the
/// logical (concatenated) length. Segments are cheap `Bytes` clones of
/// the exposer's buffers — pulling a rope copies nothing.
///
/// Logical offsets address the concatenation of all segments in order:
/// [`SegmentedRegion::slice`] resolves a `(offset, len)` range against
/// it, zero-copy when the range falls inside one segment and copying
/// only when it spans a boundary; [`SegmentedRegion::slice_rope`] never
/// copies — a range that spans boundaries comes back as a rope.
#[derive(Debug, Clone)]
pub struct SegmentedRegion {
    segments: Vec<Bytes>,
    /// Logical start offset of each segment (prefix sums).
    starts: Vec<usize>,
    total_len: usize,
}

impl SegmentedRegion {
    /// Build a region from an ordered segment list.
    pub fn new(segments: Vec<Bytes>) -> SegmentedRegion {
        let mut starts = Vec::with_capacity(segments.len());
        let mut total = 0usize;
        for s in &segments {
            starts.push(total);
            total += s.len();
        }
        SegmentedRegion {
            segments,
            starts,
            total_len: total,
        }
    }

    /// Logical length: the sum of all segment lengths.
    pub fn len(&self) -> usize {
        self.total_len
    }

    /// True when the region holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.total_len == 0
    }

    /// The ordered segments.
    pub fn segments(&self) -> &[Bytes] {
        &self.segments
    }

    /// Number of segments in the rope.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The parts of the in-bounds, non-empty logical range `offset..end`, as
    /// (segment index, range within that segment), in order. The walk
    /// starts at the *last* segment whose start is `<= offset`: empty
    /// segments share their successor's start, and only the last of a run
    /// of equal starts holds the byte at `offset`.
    fn pieces(
        &self,
        offset: usize,
        end: usize,
    ) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        let first = self.starts.partition_point(|&start| start <= offset) - 1;
        (first..self.segments.len())
            .take_while(move |&i| self.starts[i] < end)
            .filter_map(move |i| {
                let (start, seg_len) = (self.starts[i], self.segments[i].len());
                let lo = offset.saturating_sub(start);
                let hi = seg_len.min(end - start);
                (lo < hi).then_some((i, lo..hi))
            })
    }

    /// `Some(end)` when the logical range `offset..offset + len` lies
    /// within the region.
    fn bounded(&self, offset: usize, len: usize) -> Option<usize> {
        offset.checked_add(len).filter(|&end| end <= self.total_len)
    }

    /// Resolve a logical `(offset, len)` range. Zero-copy (a shared
    /// sub-slice) when the range lies within one segment; a fresh copy
    /// when it spans a segment boundary. `None` when out of bounds.
    pub fn slice(&self, offset: usize, len: usize) -> Option<Bytes> {
        let end = self.bounded(offset, len)?;
        if len == 0 {
            return Some(Bytes::new());
        }
        let mut pieces = self.pieces(offset, end);
        let (i, range) = pieces.next().expect("a non-empty range has a first piece");
        if range.len() == len {
            return Some(self.segments[i].slice(range));
        }
        // Boundary-spanning range: gather into one buffer.
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.segments[i][range]);
        for (i, range) in pieces {
            out.extend_from_slice(&self.segments[i][range]);
        }
        Some(Bytes::from(out))
    }

    /// Resolve a logical `(offset, len)` range as a rope: shared
    /// sub-slices of the segments it touches, in order — no byte is
    /// copied whether or not the range spans a boundary. `None` when out
    /// of bounds.
    pub fn slice_rope(&self, offset: usize, len: usize) -> Option<Vec<Bytes>> {
        let end = self.bounded(offset, len)?;
        if len == 0 {
            return Some(Vec::new());
        }
        Some(
            self.pieces(offset, end)
                .map(|(i, range)| self.segments[i].slice(range))
                .collect(),
        )
    }

    /// The whole region as one contiguous buffer: the single segment's
    /// shared buffer when the rope has one segment, otherwise a copy.
    pub fn to_bytes(&self) -> Bytes {
        match self.segments.len() {
            0 => Bytes::new(),
            1 => self.segments[0].clone(),
            _ => {
                let mut out = Vec::with_capacity(self.total_len);
                for s in &self.segments {
                    out.extend_from_slice(s);
                }
                Bytes::from(out)
            }
        }
    }
}

counter_set! {
    /// Which lane each dispatched call took.
    struct LaneCounters;
    /// [`Fabric::stats`] at one instant.
    #[derive(Copy, Eq)]
    pub struct FabricStats {
        /// Calls whose handler ran on the calling thread.
        caller_lane_calls: atomic sum counter "evostore_rpc_caller_lane_calls_total",
        /// Calls handed to the target's service queue.
        queued_calls: atomic sum counter "evostore_rpc_queued_calls_total",
    }
}

/// Run one handler under the caller's trace context, a panic answered as
/// [`RpcError::Handler`] so the thread it ran on lives on.
fn run_handler(
    handler: Option<&Handler>,
    method: &str,
    body: Bytes,
    trace: Option<TraceContext>,
) -> Result<Bytes, RpcError> {
    let Some(h) = handler else {
        return Err(RpcError::NoSuchMethod(method.to_string()));
    };
    // Make the caller's trace context ambient for the handler's duration;
    // the guard restores the previous one.
    let _trace = set_current_trace(trace);
    match catch_unwind(AssertUnwindSafe(|| h(body))) {
        Ok(result) => result.map_err(RpcError::Handler),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Err(RpcError::Handler(format!("handler panicked: {msg}")))
        }
    }
}

/// Answer a call — or, for an injected reply loss, park the sender: the
/// handler ran (its side effects stand) but the caller never hears back.
/// Parking keeps the channel open so a deadline-aware caller observes a
/// timeout, not a disconnect; the bin is drained when the plan changes, so
/// nothing leaks across a long chaos run.
fn answer(reply: Reply, result: Result<Bytes, RpcError>, drop_reply_into: Option<ParkedReplies>) {
    match drop_reply_into {
        Some(bin) => bin.lock().push(reply),
        // Caller may have given up; ignore send failure.
        None => {
            let _ = reply.send(result);
        }
    }
}

/// The fabric: endpoint registry + bulk-region registry.
pub struct Fabric {
    endpoints: RwLock<HashMap<EndpointId, Arc<EndpointInner>>>,
    next_endpoint: AtomicU64,
    bulk: RwLock<HashMap<u64, BulkRegion>>,
    next_bulk: AtomicU64,
    /// Fast-path guard: `true` iff a fault plan is installed. Checked
    /// with one relaxed load per dispatch/bulk read so the no-plan path
    /// pays nothing else (no lock, no allocation).
    faults_active: AtomicBool,
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Reply senders held back by [`FaultAction::DropReply`] legs.
    dropped_replies: ParkedReplies,
    /// Optional flight recorder: injected fault decisions are noted here
    /// so a postmortem dump shows *what* the plan did, not just that
    /// calls failed.
    flight: RwLock<Option<Arc<FlightRecorder>>>,
    lanes: LaneCounters,
}

impl Fabric {
    /// A fresh fabric.
    pub fn new() -> Arc<Fabric> {
        Arc::new(Fabric {
            endpoints: RwLock::new(HashMap::new()),
            next_endpoint: AtomicU64::new(0),
            bulk: RwLock::new(HashMap::new()),
            next_bulk: AtomicU64::new(0),
            faults_active: AtomicBool::new(false),
            faults: RwLock::new(None),
            dropped_replies: Arc::new(parking_lot::Mutex::new(Vec::new())),
            flight: RwLock::new(None),
            lanes: LaneCounters::new(),
        })
    }

    /// How many dispatched calls each lane took.
    pub fn stats(&self) -> FabricStats {
        self.lanes.snapshot()
    }

    /// Attach (or detach) a flight recorder; injected fault decisions
    /// are recorded into it from then on.
    pub fn set_flight_recorder(&self, recorder: Option<Arc<FlightRecorder>>) {
        *self.flight.write() = recorder;
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.read().clone()
    }

    // ---- fault injection ------------------------------------------------

    /// Install a fault plan; every subsequent dispatch and bulk read is
    /// filtered through it. Returns the shared handle so the caller can
    /// keep toggling endpoints down/up and reading
    /// [`FaultPlan::stats`]. Replaces any previous plan.
    pub fn install_fault_plan(&self, plan: FaultPlan) -> Arc<FaultPlan> {
        let plan = Arc::new(plan);
        *self.faults.write() = Some(Arc::clone(&plan));
        self.faults_active.store(true, Ordering::Release);
        self.release_dropped_replies();
        plan
    }

    /// Remove the installed plan (dispatch returns to the zero-overhead
    /// path).
    pub fn clear_fault_plan(&self) {
        self.faults_active.store(false, Ordering::Release);
        *self.faults.write() = None;
        self.release_dropped_replies();
    }

    /// Drop the reply senders parked by the outgoing plan's `DropReply`
    /// legs. Callers still waiting on one observe the transient
    /// `Disconnected`; usually their deadline fired long before.
    fn release_dropped_replies(&self) {
        self.dropped_replies.lock().clear();
    }

    /// Reply senders currently parked by `DropReply` injections (leak
    /// checks in chaos/soak tests).
    pub fn parked_reply_count(&self) -> usize {
        self.dropped_replies.lock().len()
    }

    /// Create an endpoint with `service_threads` request-processing
    /// threads (Argobots execution streams, in Mochi terms).
    pub fn create_endpoint(self: &Arc<Self>, service_threads: usize) -> Endpoint {
        assert!(
            service_threads > 0,
            "endpoint needs at least one service thread"
        );
        let id = EndpointId(self.next_endpoint.fetch_add(1, Ordering::Relaxed) as u32);
        let (tx, rx) = unbounded::<Job>();
        let threads = (0..service_threads)
            .map(|t| {
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("ep{}-svc{}", id.0, t))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            if let Some(delay) = job.delay {
                                std::thread::sleep(delay);
                            }
                            let result =
                                run_handler(job.handler.as_ref(), &job.method, job.body, job.trace);
                            answer(job.reply, result, job.drop_reply_into);
                        }
                    })
                    .expect("spawn service thread")
            })
            .collect();
        let inner = Arc::new(EndpointInner {
            handlers: RwLock::new(HashMap::new()),
            queue: tx,
            threads: parking_lot::Mutex::new(threads),
        });
        self.endpoints.write().insert(id, Arc::clone(&inner));
        Endpoint { id, inner }
    }

    /// Two-sided RPC: block until the response is ready — produced by the
    /// target's service threads, or, for a [`Lane::Caller`] method, by the
    /// handler run on this thread before the wait.
    pub fn call(&self, target: EndpointId, method: &str, body: Bytes) -> Result<Bytes, RpcError> {
        self.call_async(target, method, body, None, true)?
            .recv()
            .map_err(|_| RpcError::Disconnected)?
    }

    /// Fire a request and return the reply channel — the building block of
    /// every resilient call shape, which awaits it under a deadline (an
    /// injected [`FaultAction::DropReply`] would hang a plain
    /// [`Fabric::call`] forever). A `trace` context rides the request
    /// envelope: the handler runs with it as the ambient context.
    ///
    /// With `inline`, a [`Lane::Caller`] method's handler runs here, on
    /// the calling thread, with no ambient op-cost cell (as on a service
    /// thread), and the returned channel already holds its reply. Every
    /// other call is queued for the target's service threads — a
    /// caller-lane one too when `inline` is false, which a collective
    /// passes for a round too wide to run its legs one after another.
    ///
    /// This is *the* dispatch boundary: when a fault plan is installed,
    /// it decides here whether the call is rejected (`Unavailable` /
    /// `Timeout`), delayed (on the queue, whatever the method's lane), or
    /// delivered with its reply marked for loss.
    pub fn call_async(
        &self,
        target: EndpointId,
        method: &str,
        body: Bytes,
        trace: Option<TraceContext>,
        inline: bool,
    ) -> Result<Receiver<Result<Bytes, RpcError>>, RpcError> {
        let (delay, drop_reply) = if self.faults_active.load(Ordering::Acquire) {
            self.faulted_dispatch(target, method)?
        } else {
            (None, false)
        };
        let drop_reply_into = drop_reply.then(|| Arc::clone(&self.dropped_replies));
        let inner = self
            .endpoints
            .read()
            .get(&target)
            .cloned()
            .ok_or(RpcError::NoSuchEndpoint(target))?;
        let (handler, lane) = match inner.handlers.read().get(method) {
            Some(r) => (Some(Arc::clone(&r.handler)), r.lane),
            None => (None, Lane::Queue),
        };
        let (reply_tx, reply_rx) = bounded(1);
        if inline && lane == Lane::Caller && delay.is_none() {
            self.lanes.caller_lane_calls.add(1);
            let result = {
                let _costs = install_costs(None);
                run_handler(handler.as_ref(), method, body, trace)
            };
            answer(reply_tx, result, drop_reply_into);
            return Ok(reply_rx);
        }
        self.lanes.queued_calls.add(1);
        inner
            .queue
            .send(Job {
                method: method.to_string(),
                handler,
                body,
                reply: reply_tx,
                delay,
                drop_reply_into,
                trace,
            })
            .map_err(|_| RpcError::NoSuchEndpoint(target))?;
        Ok(reply_rx)
    }

    /// Slow path of [`Fabric::call_async`], taken only while a plan is
    /// installed. Kept out of line so the common path stays tight.
    #[cold]
    #[allow(clippy::type_complexity)]
    fn faulted_dispatch(
        &self,
        target: EndpointId,
        method: &str,
    ) -> Result<(Option<Duration>, bool), RpcError> {
        let Some(plan) = self.faults.read().clone() else {
            return Ok((None, false));
        };
        let decision = plan.decide(target, method);
        if let Some(action) = &decision {
            if let Some(rec) = self.flight.read().as_ref() {
                let name = match action {
                    FaultAction::Unavailable => "unavailable",
                    FaultAction::Timeout => "timeout",
                    FaultAction::Delay(_) => "delay",
                    FaultAction::DropReply => "drop_reply",
                };
                rec.note_fault(target.0, method, name);
            }
        }
        match decision {
            None => Ok((None, false)),
            Some(FaultAction::Delay(d)) => Ok((Some(d), false)),
            Some(FaultAction::DropReply) => Ok((None, true)),
            Some(FaultAction::Unavailable) => Err(RpcError::Unavailable(target)),
            Some(FaultAction::Timeout) => Err(RpcError::Timeout),
        }
    }

    /// Deregister an endpoint and stop its service threads (pending
    /// requests are drained first; new calls fail with `NoSuchEndpoint`).
    pub fn shutdown_endpoint(&self, ep: Endpoint) {
        self.endpoints.write().remove(&ep.id);
        let Endpoint { inner, .. } = ep;
        // Dropping our map entry + the Endpoint's queue clone closes the
        // channel once all senders are gone; service threads then exit.
        let threads = std::mem::take(&mut *inner.threads.lock());
        drop(inner);
        for t in threads {
            let _ = t.join();
        }
    }

    // ---- one-sided (RDMA-style) bulk operations -------------------------

    /// Expose an ordered list of buffers as ONE logical region (a
    /// scatter-gather rope) for one-sided reads. Zero-copy: every segment
    /// shares its caller's buffer; the region's logical bytes are the
    /// in-order concatenation. The region is *ownerless*: it stays
    /// readable regardless of any endpoint's fault state.
    pub fn bulk_expose_vec(&self, segments: Vec<Bytes>) -> BulkHandle {
        self.bulk_insert(segments, None)
    }

    /// [`Fabric::bulk_expose_vec`] with an owner: while `owner` is marked
    /// down in an installed fault plan, reads of the region fail with the
    /// transient [`RpcError::Unavailable`] — a crashed provider's RDMA
    /// windows go away with it.
    pub fn bulk_expose_vec_owned(&self, segments: Vec<Bytes>, owner: EndpointId) -> BulkHandle {
        self.bulk_insert(segments, Some(owner))
    }

    fn bulk_insert(&self, segments: Vec<Bytes>, owner: Option<EndpointId>) -> BulkHandle {
        let id = self.next_bulk.fetch_add(1, Ordering::Relaxed);
        self.bulk.write().insert(id, BulkRegion { segments, owner });
        BulkHandle(id)
    }

    /// One-sided read of an exposed region as its ordered segment list.
    /// Does *not* involve any service thread of the exposing endpoint, and
    /// copies nothing: the segments are cheap clones of the exposer's
    /// buffers. A reader that needs one flat buffer asks the region for it
    /// ([`SegmentedRegion::to_bytes`]).
    ///
    /// This is the second fault-injection boundary. A withdrawn handle is
    /// the *permanent* failure [`RpcError::NoSuchBulk`] (checked first,
    /// fault plan or not); a region whose owner is down is the *transient*
    /// [`RpcError::Unavailable`].
    pub fn bulk_get_vec(&self, handle: BulkHandle) -> Result<SegmentedRegion, RpcError> {
        let (segments, owner) = {
            let map = self.bulk.read();
            let region = map.get(&handle.0).ok_or(RpcError::NoSuchBulk(handle))?;
            (region.segments.clone(), region.owner)
        };
        if self.faults_active.load(Ordering::Acquire) {
            if let (Some(owner), Some(plan)) = (owner, self.faults.read().clone()) {
                if plan.rejects_bulk(owner) {
                    return Err(RpcError::Unavailable(owner));
                }
            }
        }
        Ok(SegmentedRegion::new(segments))
    }

    /// One-sided completion: pull a region and withdraw it, whether or not
    /// the pull succeeded. Every region exposed *for one reader* (a read
    /// reply) is read this way — the segments pulled stay alive in the
    /// returned rope, and a failed pull must not leave the exposer's
    /// region, and the record buffers it pins, registered for good.
    pub fn bulk_take(&self, handle: BulkHandle) -> Result<SegmentedRegion, RpcError> {
        let region = self.bulk_get_vec(handle);
        self.bulk_release(handle);
        region
    }

    /// Withdraw a region.
    pub fn bulk_release(&self, handle: BulkHandle) -> bool {
        self.bulk.write().remove(&handle.0).is_some()
    }

    /// Number of live bulk regions (leak checks in tests).
    pub fn bulk_regions(&self) -> usize {
        self.bulk.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvTimeoutError;

    #[test]
    fn echo_roundtrip() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(2);
        ep.register("echo", Ok);
        let reply = fabric
            .call(ep.id(), "echo", Bytes::from_static(b"ping"))
            .unwrap();
        assert_eq!(reply, Bytes::from_static(b"ping"));
    }

    #[test]
    fn unknown_method_and_endpoint() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        assert_eq!(
            fabric.call(ep.id(), "nope", Bytes::new()),
            Err(RpcError::NoSuchMethod("nope".into()))
        );
        assert_eq!(
            fabric.call(EndpointId(999), "x", Bytes::new()),
            Err(RpcError::NoSuchEndpoint(EndpointId(999)))
        );
    }

    #[test]
    fn handler_errors_propagate() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register("fail", |_| Err("boom".to_string()));
        assert_eq!(
            fabric.call(ep.id(), "fail", Bytes::new()),
            Err(RpcError::Handler("boom".into()))
        );
    }

    #[test]
    fn concurrent_calls_served_by_pool() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(4);
        ep.register("double", |body| {
            let v: Vec<u8> = body.iter().map(|b| b.wrapping_mul(2)).collect();
            Ok(Bytes::from(v))
        });
        let id = ep.id();
        std::thread::scope(|s| {
            for t in 0..16u8 {
                let fabric = &fabric;
                s.spawn(move || {
                    for i in 0..50u8 {
                        let req = Bytes::from(vec![t, i]);
                        let resp = fabric.call(id, "double", req).unwrap();
                        assert_eq!(resp.as_ref(), &[t.wrapping_mul(2), i.wrapping_mul(2)]);
                    }
                });
            }
        });
    }

    #[test]
    fn single_service_thread_serializes() {
        // One service thread => strictly sequential handler execution.
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        let concurrent = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        {
            let c = Arc::clone(&concurrent);
            let m = Arc::clone(&max_seen);
            ep.register("probe", move |_| {
                let now = c.fetch_add(1, Ordering::SeqCst) + 1;
                m.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                c.fetch_sub(1, Ordering::SeqCst);
                Ok(Bytes::new())
            });
        }
        let id = ep.id();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let fabric = &fabric;
                s.spawn(move || {
                    for _ in 0..5 {
                        fabric.call(id, "probe", Bytes::new()).unwrap();
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn bulk_expose_get_release() {
        let fabric = Fabric::new();
        let data = Bytes::from(vec![42u8; 1024]);
        let h = fabric.bulk_expose_vec(vec![data.clone()]);
        let got = fabric.bulk_get_vec(h).unwrap().to_bytes();
        assert_eq!(got, data);
        // Zero-copy: same allocation.
        assert_eq!(got.as_ptr(), data.as_ptr());
        assert!(fabric.bulk_release(h));
        assert!(!fabric.bulk_release(h));
        assert_eq!(fabric.bulk_get_vec(h).err(), Some(RpcError::NoSuchBulk(h)));
        // A taken region is withdrawn by the take, and its bytes outlive it.
        let h = fabric.bulk_expose_vec(vec![data.clone()]);
        let taken = fabric.bulk_take(h).unwrap();
        assert_eq!(fabric.bulk_regions(), 0);
        assert_eq!(taken.to_bytes().as_ptr(), data.as_ptr());
        assert_eq!(fabric.bulk_take(h).err(), Some(RpcError::NoSuchBulk(h)));
    }

    #[test]
    fn bulk_range_reads() {
        let fabric = Fabric::new();
        let data = Bytes::from((0u8..=255).collect::<Vec<u8>>());
        let h = fabric.bulk_expose_vec(vec![data]);
        let region = fabric.bulk_get_vec(h).unwrap();
        let mid = region.slice(100, 10).unwrap();
        assert_eq!(mid.as_ref(), &(100u8..110).collect::<Vec<u8>>()[..]);
        assert!(region.slice(250, 10).is_none());
    }

    #[test]
    fn call_deadline_times_out_on_slow_handler() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register("slow", |_| {
            std::thread::sleep(Duration::from_millis(200));
            Ok(Bytes::new())
        });
        let call = |deadline| {
            fabric
                .call_async(ep.id(), "slow", Bytes::new(), None, true)
                .unwrap()
                .recv_timeout(deadline)
        };
        assert_eq!(
            call(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        // Generous deadline: same handler succeeds.
        assert_eq!(call(Duration::from_secs(5)), Ok(Ok(Bytes::new())));
    }

    #[test]
    fn down_endpoint_rejects_dispatch_until_up() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register("echo", Ok);
        let plan = fabric.install_fault_plan(crate::fault::FaultPlan::new(1));
        plan.set_down(ep.id());
        assert_eq!(
            fabric.call(ep.id(), "echo", Bytes::new()),
            Err(RpcError::Unavailable(ep.id()))
        );
        plan.set_up(ep.id());
        assert!(fabric.call(ep.id(), "echo", Bytes::new()).is_ok());
        fabric.clear_fault_plan();
    }

    #[test]
    fn owned_bulk_region_follows_owner_fault_state() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        let data = Bytes::from(vec![9u8; 64]);
        let owned = fabric.bulk_expose_vec_owned(vec![data.clone()], ep.id());
        let orphan = fabric.bulk_expose_vec(vec![data.clone()]);

        let plan = fabric.install_fault_plan(crate::fault::FaultPlan::new(1));
        plan.set_down(ep.id());
        // Owned region: transient Unavailable while the owner is down.
        assert_eq!(
            fabric.bulk_get_vec(owned).err(),
            Some(RpcError::Unavailable(ep.id()))
        );
        // Ownerless region: unaffected.
        assert_eq!(fabric.bulk_get_vec(orphan).unwrap().to_bytes(), data);
        plan.set_up(ep.id());
        assert_eq!(fabric.bulk_get_vec(owned).unwrap().to_bytes(), data);

        // A take that fails in transit still withdraws the region.
        plan.set_down(ep.id());
        assert_eq!(
            fabric.bulk_take(owned).err(),
            Some(RpcError::Unavailable(ep.id()))
        );
        plan.set_up(ep.id());
        // A *withdrawn* handle is the permanent error, fault plan or not.
        assert_eq!(
            fabric.bulk_get_vec(owned).err(),
            Some(RpcError::NoSuchBulk(owned))
        );
    }

    #[test]
    fn vectored_region_concatenates_and_shares_segments() {
        let fabric = Fabric::new();
        let a = Bytes::from(vec![1u8; 16]);
        let b = Bytes::from(vec![2u8; 8]);
        let c = Bytes::from(vec![3u8; 4]);
        let h = fabric.bulk_expose_vec(vec![a.clone(), b.clone(), c.clone()]);

        // Copy-free pull: each segment shares the exposer's allocation.
        let rope = fabric.bulk_get_vec(h).unwrap();
        assert_eq!(rope.len(), 28);
        assert_eq!(rope.segment_count(), 3);
        assert_eq!(rope.segments()[0].as_ptr(), a.as_ptr());
        assert_eq!(rope.segments()[1].as_ptr(), b.as_ptr());
        assert_eq!(rope.segments()[2].as_ptr(), c.as_ptr());

        // The deliberate gather: logical concatenation.
        let mut expect = vec![1u8; 16];
        expect.extend_from_slice(&[2u8; 8]);
        expect.extend_from_slice(&[3u8; 4]);
        assert_eq!(rope.to_bytes().as_ref(), &expect[..]);

        // Logical ranges: in-segment reads are zero-copy sub-slices,
        // boundary-spanning reads gather.
        let within = rope.slice(16, 8).unwrap();
        assert_eq!(within.as_ptr(), b.as_ptr());
        let spanning = rope.slice(12, 8).unwrap();
        assert_eq!(spanning.as_ref(), &[1, 1, 1, 1, 2, 2, 2, 2]);
        assert!(rope.slice(20, 9).is_none());
        assert!(fabric.bulk_release(h));
    }

    #[test]
    fn vectored_region_fault_parity_with_contiguous() {
        // Fault injection applies per region, identically for ropes of
        // one segment and of many: owner down => transient Unavailable,
        // withdrawn handle => permanent NoSuchBulk.
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        let data = Bytes::from(vec![7u8; 32]);
        let rope = fabric.bulk_expose_vec_owned(vec![data.clone(), data.clone()], ep.id());
        let single = fabric.bulk_expose_vec_owned(vec![data.clone()], ep.id());
        let orphan = fabric.bulk_expose_vec(vec![data.clone()]);

        let plan = fabric.install_fault_plan(crate::fault::FaultPlan::new(1));
        plan.set_down(ep.id());
        for owned in [rope, single] {
            assert_eq!(
                fabric.bulk_get_vec(owned).err(),
                Some(RpcError::Unavailable(ep.id()))
            );
        }
        // Ownerless rope: unaffected by the fault.
        assert_eq!(fabric.bulk_get_vec(orphan).unwrap().len(), 32);
        plan.set_up(ep.id());
        assert_eq!(fabric.bulk_get_vec(rope).unwrap().len(), 64);
        assert_eq!(fabric.bulk_get_vec(single).unwrap().len(), 32);

        // Withdrawn: permanent error wins regardless of the fault plan.
        plan.set_down(ep.id());
        for owned in [rope, single] {
            assert!(fabric.bulk_release(owned));
            assert_eq!(
                fabric.bulk_get_vec(owned).err(),
                Some(RpcError::NoSuchBulk(owned))
            );
        }
        fabric.clear_fault_plan();
    }

    #[test]
    fn segmented_region_slices_handle_empty_segments() {
        let region = SegmentedRegion::new(vec![
            Bytes::from(vec![1u8; 3]),
            Bytes::new(),
            Bytes::from(vec![2u8; 5]),
        ]);
        assert_eq!(region.len(), 8);
        assert_eq!(
            region.slice(0, 8).unwrap().as_ref(),
            &[1, 1, 1, 2, 2, 2, 2, 2]
        );
        assert_eq!(region.slice(3, 2).unwrap().as_ref(), &[2, 2]);
        assert_eq!(region.slice(2, 2).unwrap().as_ref(), &[1, 2]);
        assert_eq!(region.slice(8, 0).unwrap().len(), 0);
        assert!(region.slice(8, 1).is_none());
        assert!(region.slice(usize::MAX, 2).is_none(), "offset overflow");
        assert_eq!(region.to_bytes().len(), 8);
    }

    #[test]
    fn ranges_behind_empty_segments_stay_zero_copy() {
        // Three segments start at 3: the binary search may land on either
        // empty one, and only the last holds bytes.
        let b = Bytes::from(vec![2u8; 5]);
        let region = SegmentedRegion::new(vec![
            Bytes::from(vec![1u8; 3]),
            Bytes::new(),
            Bytes::new(),
            b.clone(),
            Bytes::new(),
        ]);
        for (offset, len) in [(3, 5), (3, 1), (4, 3), (7, 1)] {
            let got = region.slice(offset, len).unwrap();
            assert_eq!(got.as_ptr(), b[offset - 3..].as_ptr(), "{offset}+{len}");
            let rope = region.slice_rope(offset, len).unwrap();
            assert_eq!(rope.len(), 1);
            assert_eq!(rope[0].as_ptr(), got.as_ptr());
            assert_eq!(rope[0].len(), len);
        }
        // Spanning the boundary: the rope shares both sides.
        let rope = region.slice_rope(1, 4).unwrap();
        assert_eq!(rope.len(), 2);
        assert_eq!(rope[0].as_ref(), &[1, 1]);
        assert_eq!(rope[1].as_ptr(), b.as_ptr());
        assert_eq!(region.slice_rope(8, 0).unwrap().len(), 0);
        assert!(region.slice_rope(8, 1).is_none());
        assert!(region.slice_rope(usize::MAX, 2).is_none());
    }

    #[test]
    fn dropped_reply_senders_are_parked_then_released() {
        use crate::fault::{FaultAction, FaultRule};
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register("echo", Ok);
        fabric.install_fault_plan(
            crate::fault::FaultPlan::new(1).rule(FaultRule::new(FaultAction::DropReply).first(1)),
        );
        assert_eq!(
            fabric
                .call_async(ep.id(), "echo", Bytes::new(), None, true)
                .unwrap()
                .recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutError::Timeout)
        );
        // The dropped leg's sender is parked on the fabric, not leaked.
        // (The handler may still be finishing; wait briefly.)
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while fabric.parked_reply_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(fabric.parked_reply_count(), 1);
        fabric.clear_fault_plan();
        assert_eq!(fabric.parked_reply_count(), 0);
    }

    #[test]
    fn shutdown_stops_endpoint() {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(2);
        ep.register("echo", Ok);
        let id = ep.id();
        fabric.shutdown_endpoint(ep);
        assert_eq!(
            fabric.call(id, "echo", Bytes::new()),
            Err(RpcError::NoSuchEndpoint(id))
        );
    }
}
