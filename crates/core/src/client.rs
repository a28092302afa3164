//! The EvoStore client library.
//!
//! Clients are what application processes (NAS workers) link against
//! (§4.3): they interpret owner maps, consolidate tensors for writes,
//! parallelize bulk transfers across providers, and drive the LCP
//! broadcast/reduce. A client is cheap to clone per worker thread — it is
//! just the fabric handle plus the provider list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use evostore_graph::{CompactGraph, LcpResult};
use evostore_obs::ledger::install_costs;
use evostore_obs::{
    current_trace, set_current_trace, FlightRecorder, MonotonicClock, ObsHub, OpCosts, OpLedger,
    SloEngine, SlowOp, SlowOpLog, TimeSource, Tracer,
};
use evostore_rpc::{
    BulkHandle, EndpointId, Fabric, LegResults, Method, RetryPolicy, RpcError, TraceHandle,
};
use evostore_tensor::{write_tensor_segments, ModelId, Record, TensorData, TensorKey, VertexId};
use parking_lot::Mutex;
use rand::Rng;

use crate::messages::*;
use crate::methods;
use crate::owner_map::OwnerMap;
use crate::par;
use crate::records::{pack, read_entry};
use crate::replication::ReplicationPolicy;

/// Client-facing errors, structured so callers can branch on failure
/// class instead of parsing strings. [`EvoError::is_transient`] mirrors
/// [`RpcError::is_transient`]: transient failures may clear on retry (a
/// provider rebooting), permanent ones will not (a decode bug).
#[derive(Debug)]
pub enum EvoError {
    /// Permanent transport or handler failure.
    Transport(RpcError),
    /// A call exhausted its deadline (and any retry budget).
    Timeout,
    /// A provider is currently unreachable.
    Unavailable {
        /// The unreachable provider.
        endpoint: EndpointId,
    },
    /// Protocol/validation failure detected client-side.
    Protocol(String),
    /// Stored data failed validation when read back.
    Corrupt {
        /// The tensor key whose payload is bad.
        key: String,
    },
    /// A collective completed on too few providers (below the client's
    /// quorum); lists the providers that did not respond.
    PartialFailure {
        /// Providers that failed their leg of the collective.
        failed: Vec<EndpointId>,
    },
    /// A delivery subscription lost events (queue overflow provider-side
    /// or a sequence gap subscriber-side) starting at this sequence
    /// number. Recover by resubscribing with replay.
    EventsLost {
        /// First sequence number known to be lost.
        from_seq: u64,
    },
}

impl EvoError {
    /// Could retrying the operation plausibly succeed?
    pub fn is_transient(&self) -> bool {
        match self {
            EvoError::Timeout | EvoError::Unavailable { .. } | EvoError::PartialFailure { .. } => {
                true
            }
            EvoError::Transport(e) => e.is_transient(),
            // Lost events never come back on retry — only a replaying
            // resubscribe recovers them.
            EvoError::Protocol(_) | EvoError::Corrupt { .. } | EvoError::EventsLost { .. } => false,
        }
    }
}

impl std::fmt::Display for EvoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvoError::Transport(e) => write!(f, "transport: {e}"),
            EvoError::Timeout => write!(f, "operation timed out"),
            EvoError::Unavailable { endpoint } => write!(f, "provider {endpoint} unavailable"),
            EvoError::Protocol(m) => write!(f, "protocol: {m}"),
            EvoError::Corrupt { key } => write!(f, "corrupt data for tensor {key}"),
            EvoError::PartialFailure { failed } => {
                write!(
                    f,
                    "quorum not met: {} providers failed: {failed:?}",
                    failed.len()
                )
            }
            EvoError::EventsLost { from_seq } => {
                write!(f, "subscription events lost from seq {from_seq}")
            }
        }
    }
}

impl std::error::Error for EvoError {}

impl From<RpcError> for EvoError {
    fn from(e: RpcError) -> Self {
        match e {
            RpcError::Timeout => EvoError::Timeout,
            RpcError::Unavailable(endpoint) => EvoError::Unavailable { endpoint },
            other => EvoError::Transport(other),
        }
    }
}

/// Client result alias.
pub type Result<T> = std::result::Result<T, EvoError>;

/// One ranked pattern-match answer list: `(model, quality)` pairs,
/// best first (see [`EvoStoreClient::find_matching`]).
pub type RankedMatches = Vec<(ModelId, f64)>;

/// Flight-recorder ring capacity per client.
pub const CLIENT_FLIGHT_EVENTS: usize = 1024;

/// Default slow-op retention threshold: root spans at least this long
/// are kept verbatim with their child breakdown.
pub const DEFAULT_SLOW_OP_THRESHOLD: Duration = Duration::from_millis(100);

/// Slow-op log capacity.
const SLOW_OP_CAPACITY: usize = 64;

/// Sequence for distinct client node names (`client0`, `client1`, ...).
static CLIENT_SEQ: AtomicUsize = AtomicUsize::new(0);

/// How much telemetry a client produces per operation.
///
/// `Full` (the default) opens a root span per op, records exemplars,
/// feeds the SLO engine, and accumulates the per-op resource ledger.
/// `Minimal` times operations into the latency histograms and nothing
/// else — the obs-off side of the telemetry-overhead A/B bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryLevel {
    /// Spans + exemplars + SLO + ledger (default).
    #[default]
    Full,
    /// Latency histograms only.
    Minimal,
}

/// A query answer that may rest on fewer than all providers.
///
/// When a collective reaches quorum but some providers were unreachable,
/// the value is still correct *over the reachable subset* and
/// `unreachable` lists the providers whose catalogs it could not see.
#[derive(Debug, Clone)]
pub struct Degraded<T> {
    /// The (possibly partial) answer.
    pub value: T,
    /// Providers that did not contribute; empty means full coverage.
    pub unreachable: Vec<EndpointId>,
}

impl<T> Degraded<T> {
    /// Did any provider fail to contribute?
    pub fn is_partial(&self) -> bool {
        !self.unreachable.is_empty()
    }

    /// Unwrap the answer, discarding the coverage annotation.
    pub fn into_inner(self) -> T {
        self.value
    }
}

/// The legs of a fan-out, sorted by what a caller may do about each.
/// What a transient failure *means* — replication debt, a parked
/// decrement, an unreachable catalog — is the caller's policy.
struct Settled<T> {
    /// Replies, each with the index of the leg it answered.
    ok: Vec<(usize, T)>,
    /// Legs that may succeed on a retry: index, target, error.
    transient: Vec<(usize, EndpointId, EvoError)>,
    /// The first (in leg order) failure no retry can clear, and its leg.
    permanent: Option<(usize, EvoError)>,
}

fn settle<T>(legs: LegResults<T>) -> Settled<T> {
    let mut settled = Settled {
        ok: Vec::with_capacity(legs.len()),
        transient: Vec::new(),
        permanent: None,
    };
    for (i, (ep, leg)) in legs.into_iter().enumerate() {
        match leg {
            Ok(reply) => settled.ok.push((i, reply)),
            Err(e) if e.is_transient() => settled.transient.push((i, ep, e.into())),
            Err(e) => {
                settled.permanent.get_or_insert((i, e.into()));
            }
        }
    }
    settled
}

impl<T> Settled<T> {
    /// The targets of the legs that failed transiently.
    fn unreachable(&self) -> Vec<EndpointId> {
        self.transient.iter().map(|(_, ep, _)| *ep).collect()
    }

    /// The failure of the earliest failed leg, of either class.
    fn first_error(self) -> Option<EvoError> {
        let transient = self.transient.into_iter().next().map(|(i, _, e)| (i, e));
        match (transient, self.permanent) {
            (Some((t, transient)), Some((p, permanent))) => {
                Some(if t < p { transient } else { permanent })
            }
            (transient, permanent) => transient.or(permanent).map(|(_, e)| e),
        }
    }
}

/// The best transfer-learning ancestor found by an LCP query.
#[derive(Debug, Clone)]
pub struct BestAncestor {
    /// The ancestor model.
    pub model: ModelId,
    /// Its quality metric.
    pub quality: f64,
    /// LCP of the queried graph against it.
    pub lcp: LcpResult,
}

/// Outcome of a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreOutcome {
    /// Tensor payload bytes actually written (the incremental write size).
    pub bytes_written: u64,
    /// Number of tensors written.
    pub tensors_written: usize,
    /// Global write-order stamp assigned by the provider.
    pub timestamp: u64,
}

/// Outcome of a retirement.
#[derive(Debug, Clone, Copy)]
pub struct RetireOutcome {
    /// References dropped.
    pub refs_dropped: usize,
    /// Tensors physically reclaimed (refcount hit zero), including
    /// retained delta bases their last dependent released.
    pub tensors_reclaimed: usize,
    /// Decrements that failed transiently and were parked in the
    /// client's retry queue (see
    /// [`EvoStoreClient::flush_pending_decrements`]); GC remains
    /// eventually consistent.
    pub refs_parked: usize,
}

/// A fully loaded model.
#[derive(Debug, Clone)]
pub struct LoadedModel {
    /// Flattened architecture.
    pub graph: CompactGraph,
    /// Ownership of every vertex.
    pub owner_map: OwnerMap,
    /// Every parameter tensor, keyed as in the owner map.
    pub tensors: HashMap<TensorKey, TensorData>,
    /// Direct ancestor.
    pub parent: Option<ModelId>,
    /// Quality metric.
    pub quality: f64,
}

/// Configures an [`EvoStoreClient`]: providers, retry policy (attempts,
/// backoff, per-call deadline), and collective quorum. Obtained from
/// [`EvoStoreClient::builder`].
pub struct EvoStoreClientBuilder {
    fabric: Arc<Fabric>,
    providers: Vec<EndpointId>,
    retry: RetryPolicy,
    min_quorum: Option<usize>,
    replication: ReplicationPolicy,
    obs: Option<Arc<ObsHub>>,
    slow_op_threshold: Duration,
    telemetry_level: TelemetryLevel,
}

impl EvoStoreClientBuilder {
    /// The providers this client talks to (required, non-empty).
    pub fn providers(mut self, providers: Vec<EndpointId>) -> Self {
        self.providers = providers;
        self
    }

    /// Replace the whole retry policy (attempts, backoff, deadline).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Minimum providers that must answer a broadcast for the query to
    /// succeed (possibly degraded). Defaults to *all* providers —
    /// i.e. any unreachable provider fails the collective. Clamped to
    /// `1..=providers`.
    pub fn min_quorum(mut self, quorum: usize) -> Self {
        self.min_quorum = Some(quorum);
        self
    }

    /// The replica placement policy ([`ReplicationPolicy`]). Must match
    /// the deployment's —
    /// [`crate::deployment::Deployment::client_builder`] pre-wires it.
    pub fn replication(mut self, policy: ReplicationPolicy) -> Self {
        self.replication = policy;
        self
    }

    /// Attach the client to a deployment observability hub: its spans
    /// stamp time from the hub clock (the virtual clock in simulated
    /// runs), its flight recorder joins the hub's postmortem dump, and
    /// its telemetry registers as a metrics source.
    /// [`crate::deployment::Deployment::client_builder`] pre-wires this.
    pub fn obs_hub(mut self, hub: Arc<ObsHub>) -> Self {
        self.obs = Some(hub);
        self
    }

    /// Root spans at least this long are retained verbatim in the
    /// client's slow-op log, with their child breakdown.
    pub fn slow_op_threshold(mut self, threshold: Duration) -> Self {
        self.slow_op_threshold = threshold;
        self
    }

    /// How much per-op telemetry to produce ([`TelemetryLevel::Full`]
    /// by default). [`TelemetryLevel::Minimal`] skips spans, exemplars,
    /// SLO accounting, and the resource ledger — the measurement lever
    /// for the telemetry-overhead A/B bench.
    pub fn telemetry_level(mut self, level: TelemetryLevel) -> Self {
        self.telemetry_level = level;
        self
    }

    /// Build the client. Panics when no providers were configured.
    pub fn build(self) -> EvoStoreClient {
        assert!(!self.providers.is_empty(), "deployment has no providers");
        let n = self.providers.len();
        let node = format!("client{}", CLIENT_SEQ.fetch_add(1, Ordering::Relaxed));
        let recorder = match &self.obs {
            Some(hub) => hub.new_recorder(&node, CLIENT_FLIGHT_EVENTS),
            None => {
                let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
                Arc::new(FlightRecorder::new(&node, CLIENT_FLIGHT_EVENTS, wall))
            }
        };
        let clock: Arc<dyn TimeSource> = match &self.obs {
            Some(hub) => Arc::clone(hub.clock()),
            None => Arc::new(MonotonicClock::default()),
        };
        let slow = Arc::new(SlowOpLog::new(
            self.slow_op_threshold.as_micros() as u64,
            SLOW_OP_CAPACITY,
        ));
        let tracer = Arc::new(Tracer::new(&node, clock, recorder).with_slow_log(Arc::clone(&slow)));
        let telemetry = Arc::new(crate::telemetry::ClientTelemetry::new());
        let ledger = Arc::new(OpLedger::new());
        let slo = self.obs.as_ref().map(|hub| Arc::clone(hub.slo()));
        if let Some(hub) = &self.obs {
            hub.attach_slow_log(&node, Arc::clone(&slow));
            let t = Arc::clone(&telemetry);
            let l = Arc::clone(&ledger);
            let metric_node = node.clone();
            hub.registry().register(move || {
                let mut out = t.metrics(&metric_node);
                out.extend(l.metrics(&metric_node));
                out
            });
        }
        EvoStoreClient {
            fabric: self.fabric,
            providers: Arc::new(self.providers),
            retry: self.retry,
            min_quorum: self.min_quorum.unwrap_or(n).clamp(1, n),
            replication: self.replication,
            telemetry,
            tracer,
            slow_ops: slow,
            ledger,
            slo,
            telemetry_level: self.telemetry_level,
            pending_decrements: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

/// An EvoStore client.
#[derive(Clone)]
pub struct EvoStoreClient {
    fabric: Arc<Fabric>,
    providers: Arc<Vec<EndpointId>>,
    retry: RetryPolicy,
    min_quorum: usize,
    replication: ReplicationPolicy,
    telemetry: Arc<crate::telemetry::ClientTelemetry>,
    /// Span factory: every top-level operation opens a root span here,
    /// and each RPC attempt files a child under it.
    tracer: Arc<Tracer>,
    /// Root spans that exceeded the slow threshold, kept with their
    /// child breakdown.
    slow_ops: Arc<SlowOpLog>,
    /// Per-op-class resource attribution (bytes, chunks, retries,
    /// failovers, queue wait), folded at the end of every op.
    ledger: Arc<OpLedger>,
    /// The deployment's SLO engine, when attached to a hub.
    slo: Option<Arc<SloEngine>>,
    /// How much telemetry each op produces.
    telemetry_level: TelemetryLevel,
    /// Refcount decrements that failed transiently, awaiting re-issue
    /// (shared across clones so any handle can flush them).
    pending_decrements: Arc<Mutex<Vec<(EndpointId, RefsRequest)>>>,
}

impl EvoStoreClient {
    /// Start configuring a client for `fabric`. The default policy is 3
    /// attempts with millisecond-scale backoff, a 30 s per-attempt
    /// deadline, and full quorum (all providers must answer queries).
    pub fn builder(fabric: Arc<Fabric>) -> EvoStoreClientBuilder {
        EvoStoreClientBuilder {
            fabric,
            providers: Vec::new(),
            retry: RetryPolicy::default().with_timeout(Duration::from_secs(30)),
            min_quorum: None,
            replication: ReplicationPolicy::default(),
            obs: None,
            slow_op_threshold: DEFAULT_SLOW_OP_THRESHOLD,
            telemetry_level: TelemetryLevel::Full,
        }
    }

    /// Operation latency telemetry (shared across clones of this client).
    pub fn telemetry(&self) -> &crate::telemetry::ClientTelemetry {
        &self.telemetry
    }

    /// Per-op-class resource attribution rolled up from finished ops.
    pub fn ledger(&self) -> &Arc<OpLedger> {
        &self.ledger
    }

    /// The SLO engine this client reports into (present when built
    /// against an [`ObsHub`]).
    pub fn slo(&self) -> Option<&Arc<SloEngine>> {
        self.slo.as_ref()
    }

    /// The client's span factory (shared across clones).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The client's flight-recorder ring.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        self.tracer.recorder()
    }

    /// Root spans that exceeded the slow threshold, with their child
    /// breakdown, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.slow_ops.entries()
    }

    /// The retry policy applied to every call.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The fabric this client runs on (watchers attach their own
    /// endpoints here).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// The deployment's provider endpoints, in provider-index order.
    pub fn provider_endpoints(&self) -> &[EndpointId] {
        &self.providers
    }

    /// Providers that must answer for a collective to succeed.
    pub fn min_quorum(&self) -> usize {
        self.min_quorum
    }

    /// Number of providers.
    pub fn num_providers(&self) -> usize {
        self.providers.len()
    }

    /// The replica placement policy in effect.
    pub fn replication(&self) -> ReplicationPolicy {
        self.replication
    }

    /// The replica chain hosting `model`'s metadata and self-owned
    /// tensors, primary first (successor chain over the static hash
    /// ring).
    fn replicas_of(&self, model: ModelId) -> Vec<EndpointId> {
        self.replication
            .replicas(model, self.providers.len())
            .into_iter()
            .map(|i| self.providers[i])
            .collect()
    }

    /// A trace handle for the ambiently active operation, if any — every
    /// RPC attempt issued under it opens a child span on this client's
    /// tracer. Top-level operations install their root span ambiently
    /// ([`set_current_trace`]) so the helpers below pick it up without
    /// signature changes.
    fn trace_handle(&self) -> Option<TraceHandle<'_>> {
        current_trace().map(|parent| TraceHandle::new(&self.tracer, parent))
    }

    /// Run `f` as a fully accounted top-level operation of `class`: open
    /// a root span named `op` and install it ambiently so every RPC
    /// issued inside files its attempt spans under it, time the op from
    /// the tracer's clock into `hist` (with the root context ambient, so
    /// the histogram bucket retains a joinable exemplar), record an SLO
    /// sample for the class, and fold a fresh cost cell into the op
    /// ledger. Under [`TelemetryLevel::Minimal`] all of that collapses
    /// to a bare histogram timing.
    fn with_root_op<T>(
        &self,
        class: &'static str,
        op: &'static str,
        hist: &crate::telemetry::LatencyHistogram,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if self.telemetry_level == TelemetryLevel::Minimal {
            let t0 = std::time::Instant::now();
            let out = f();
            hist.record(t0.elapsed());
            return out;
        }
        let costs = OpCosts::new();
        let mut root = self.tracer.start_root(op);
        let start_us = self.tracer.now_us();
        let out = {
            let _amb = set_current_trace(Some(root.ctx()));
            let _costs = install_costs(Some(Arc::clone(&costs)));
            f()
        };
        let latency_us = self.tracer.now_us().saturating_sub(start_us);
        {
            // Re-install the root context just for the histogram record,
            // so the bucket's exemplar points at this op's span tree.
            let _amb = set_current_trace(Some(root.ctx()));
            hist.record_us(latency_us);
        }
        if let Some(slo) = &self.slo {
            slo.record(class, latency_us, out.is_ok());
        }
        self.ledger.finish_op(class, out.is_ok(), &costs);
        if let Err(e) = &out {
            root.fail(e.to_string());
        }
        root.finish();
        out
    }

    /// Typed unary call under this client's retry policy.
    fn unary<M: Method>(
        &self,
        target: EndpointId,
        method: M,
        req: &M::Request,
    ) -> Result<M::Reply> {
        evostore_rpc::unary(
            &self.fabric,
            target,
            method,
            req,
            &self.retry,
            Some(&self.telemetry.rpc),
            self.trace_handle().as_ref(),
        )
        .map_err(EvoError::from)
    }

    /// The one replica-chain walk. `primary` is how the attempt against
    /// `chain[0]` ended; on failure, `attempt` runs against the rest of
    /// the chain in turn until one replica serves it, and the serving
    /// endpoint comes back with the value. The attempt is the whole job —
    /// call, bulk pull, decode — and any failure moves on: a replica that
    /// is down, one that missed the write and answers "not found", a pull
    /// lost in transit, a record that fails its check. When every replica
    /// fails, the last error is returned (for a genuinely absent value all
    /// replicas agree). Each hop to a successor charges one failover to
    /// the op ledger; a value served past the primary is filed in the
    /// flight ring.
    fn fail_over<T>(
        &self,
        chain: &[EndpointId],
        what: &str,
        primary: Result<T>,
        attempt: impl Fn(EndpointId) -> Result<T>,
    ) -> Result<(EndpointId, T)> {
        let mut last_err = match primary {
            Ok(out) => return Ok((chain[0], out)),
            Err(e) => e,
        };
        for &target in &chain[1..] {
            evostore_obs::ledger::add_failovers(1);
            match attempt(target) {
                Ok(out) => {
                    let trace_id = current_trace().map(|c| c.trace_id).unwrap_or(0);
                    self.tracer
                        .recorder()
                        .note_failover(trace_id, chain[0].0, target.0, what);
                    return Ok((target, out));
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// [`EvoStoreClient::fail_over`] for a read: a read served past the
    /// primary is counted in `read_failovers`.
    fn read_over<T>(
        &self,
        chain: &[EndpointId],
        what: &str,
        primary: Result<T>,
        attempt: impl Fn(EndpointId) -> Result<T>,
    ) -> Result<T> {
        let (served_by, out) = self.fail_over(chain, what, primary, attempt)?;
        if served_by != chain[0] {
            self.telemetry.read_failovers.add(1);
        }
        Ok(out)
    }

    /// Typed fan-out (a distinct request per target, all in flight at
    /// once) under this client's retry policy; per-leg results in input
    /// order.
    fn fan_out<M: Method>(
        &self,
        legs: &[(EndpointId, M::Request)],
        method: M,
    ) -> evostore_rpc::LegResults<M::Reply> {
        evostore_rpc::fan_out(
            &self.fabric,
            legs,
            method,
            &self.retry,
            Some(&self.telemetry.rpc),
            self.trace_handle().as_ref(),
        )
    }

    /// Typed broadcast of `req` to every provider under this client's
    /// retry policy; per-leg results in provider order.
    fn broadcast<M: Method>(
        &self,
        method: M,
        req: &M::Request,
    ) -> Result<evostore_rpc::LegResults<M::Reply>> {
        evostore_rpc::broadcast(
            &self.fabric,
            &self.providers,
            method,
            req,
            &self.retry,
            Some(&self.telemetry.rpc),
            self.trace_handle().as_ref(),
        )
        .map_err(EvoError::from)
    }

    /// Broadcast `req` to every provider, apply quorum semantics:
    /// permanent failures abort; transient failures count against the
    /// quorum. With at least `min_quorum` replies the collective
    /// succeeds, reporting the unreachable providers alongside.
    fn quorum_broadcast<M: Method>(
        &self,
        method: M,
        req: &M::Request,
    ) -> Result<(Vec<M::Reply>, Vec<EndpointId>)> {
        let legs = settle(self.broadcast(method, req)?);
        let mut unreachable = legs.unreachable();
        if let Some((_, e)) = legs.permanent {
            return Err(e);
        }
        let replies: Vec<M::Reply> = legs.ok.into_iter().map(|(_, reply)| reply).collect();
        // Replicated coverage: when every model still has at least one
        // reachable replica, the reachable catalogs jointly cover the
        // full deployment — the answer is complete, not degraded, and
        // quorum does not apply.
        if !unreachable.is_empty() {
            let down: Vec<usize> = unreachable
                .iter()
                .filter_map(|ep| self.providers.iter().position(|p| p == ep))
                .collect();
            if self.replication.fully_covers(self.providers.len(), &down) {
                unreachable.clear();
            }
        }
        if replies.len() < self.min_quorum && !unreachable.is_empty() {
            return Err(EvoError::PartialFailure {
                failed: unreachable,
            });
        }
        if !unreachable.is_empty() {
            self.telemetry.degraded_queries.add(1);
            evostore_obs::ledger::add_degraded_legs(unreachable.len() as u64);
            let trace_id = current_trace().map(|c| c.trace_id).unwrap_or(0);
            self.tracer.recorder().note_degraded(
                trace_id,
                M::METHOD,
                unreachable.iter().map(|ep| ep.0).collect(),
            );
        }
        Ok((replies, unreachable))
    }

    /// Group tensor keys by *every* replica of their owning model — the
    /// write-side fan-out (pins, decrements go to each copy).
    fn group_by_replicas(
        &self,
        keys: impl IntoIterator<Item = TensorKey>,
    ) -> HashMap<EndpointId, Vec<TensorKey>> {
        let n = self.providers.len();
        let mut groups: HashMap<EndpointId, Vec<TensorKey>> = HashMap::new();
        for key in keys {
            for idx in self.replication.replicas(key.owner, n) {
                groups.entry(self.providers[idx]).or_default().push(key);
            }
        }
        groups
    }

    // ---- store paths -----------------------------------------------------

    /// Store a model given its owner map and the tensors it owns itself.
    ///
    /// Protocol (§4.1): (1) pin every inherited tensor by incrementing its
    /// reference count on *every replica* hosting a copy — in parallel;
    /// (2) push the consolidated new tensors plus metadata to the model's
    /// replica chain (primary assigns the write stamp, mirrors receive
    /// it). If the store fails after pinning, the pins that applied are
    /// rolled back.
    pub fn store_model(
        &self,
        graph: CompactGraph,
        owner_map: OwnerMap,
        parent: Option<ModelId>,
        quality: f64,
        new_tensors: &HashMap<TensorKey, TensorData>,
    ) -> Result<StoreOutcome> {
        self.with_root_op("store", "store_model", &self.telemetry.store, move || {
            self.store_model_inner(graph, owner_map, parent, quality, new_tensors)
        })
    }

    fn store_model_inner(
        &self,
        graph: CompactGraph,
        owner_map: OwnerMap,
        parent: Option<ModelId>,
        quality: f64,
        new_tensors: &HashMap<TensorKey, TensorData>,
    ) -> Result<StoreOutcome> {
        // 1. Pin inherited tensors on every replica. Pins are strict —
        // all-or-fail — because a replica that misses a pin would
        // reclaim a tensor the new model still references.
        let inherited: Vec<TensorKey> = owner_map
            .inherited()
            .flat_map(|(_, o)| o.tensor_keys().collect::<Vec<_>>())
            .collect();
        let pin_reqs: Vec<(EndpointId, RefsRequest)> = self
            .group_by_replicas(inherited.iter().copied())
            .into_iter()
            .map(|(ep, keys)| (ep, RefsRequest::new(keys)))
            .collect();
        let mut pinned: Vec<(EndpointId, Vec<TensorKey>)> = Vec::new();
        if !pin_reqs.is_empty() {
            let legs = settle(self.fan_out(&pin_reqs, methods::IncrRefs));
            pinned.extend(legs.ok.iter().map(|&(i, _)| {
                let (ep, req) = &pin_reqs[i];
                (*ep, req.keys.clone())
            }));
            // Propagate the pin failure as-is (a transient error means
            // the whole store is retryable by the caller), rolling back
            // only the legs that actually applied.
            if let Some(e) = legs.first_error() {
                self.unpin(&pinned);
                return Err(e);
            }
        }

        // 2. Consolidate and push.
        let result = self.push_store(graph, owner_map, parent, quality, new_tensors);

        // 3. Roll back pins on failure.
        if result.is_err() {
            self.unpin(&pinned);
        }
        result
    }

    /// Roll back the pin legs that succeeded before a store aborted. A
    /// rollback leg still failing transiently after its retries is parked
    /// like a retirement's decrement, so a later flush settles it instead
    /// of leaking the pin; a permanently failing one can never apply.
    fn unpin(&self, pinned: &[(EndpointId, Vec<TensorKey>)]) {
        if pinned.is_empty() {
            return;
        }
        let reqs: Vec<(EndpointId, RefsRequest)> = pinned
            .iter()
            .map(|(ep, keys)| (*ep, RefsRequest::new(keys.clone())))
            .collect();
        let legs = settle(self.fan_out(&reqs, methods::DecrRefs));
        self.park_decrements(
            legs.transient
                .iter()
                .map(|&(i, ..)| reqs[i].clone())
                .collect(),
        );
    }

    /// Park decrement legs that failed transiently until the next
    /// [`EvoStoreClient::flush_pending_decrements`]. Each keeps its
    /// original op id, so the re-issue is idempotent. Returns the tensor
    /// references parked.
    fn park_decrements(&self, legs: Vec<(EndpointId, RefsRequest)>) -> usize {
        let refs: usize = legs.iter().map(|(_, req)| req.keys.len()).sum();
        if refs > 0 {
            self.telemetry.parked_decrements.add(refs as u64);
            self.pending_decrements.lock().extend(legs);
        }
        refs
    }

    fn push_store(
        &self,
        graph: CompactGraph,
        owner_map: OwnerMap,
        parent: Option<ModelId>,
        quality: f64,
        new_tensors: &HashMap<TensorKey, TensorData>,
    ) -> Result<StoreOutcome> {
        let model = owner_map.model;
        // Deterministic order for reproducible layouts.
        let mut tensors: Vec<(TensorKey, &TensorData)> =
            new_tensors.iter().map(|(key, t)| (*key, t)).collect();
        tensors.sort_unstable_by_key(|(key, _)| *key);
        let (manifest, bulk) = self.expose_tensors(&tensors);
        let tensors_written = manifest.len();
        evostore_obs::ledger::add_chunks_touched(tensors_written as u64);
        evostore_obs::ledger::add_bytes_out(manifest.iter().map(|e| e.len).sum());

        let req = StoreModelRequest {
            model,
            graph,
            owner_map,
            parent,
            quality,
            manifest,
            bulk: bulk.0,
            timestamp: None,
        };
        // First leg: walk the chain until one replica accepts and
        // assigns the write stamp. Remaining members then mirror the
        // stamped record; a mirror leg that fails transiently leaves the
        // model under-replicated (recorded in telemetry, healed by
        // [`crate::deployment::Deployment::repair`]) rather than failing
        // the store. The bulk region stays exposed until every leg has
        // settled — mirrors read it too.
        let chain = self.replicas_of(model);
        let outcome = (|| -> Result<StoreOutcome> {
            let store = |target| self.unary(target, methods::Store, &req);
            let (served_by, reply) =
                self.fail_over(&chain, methods::Store::METHOD, store(chain[0]), store)?;
            let mirrors: Vec<(EndpointId, StoreModelRequest)> = chain
                .iter()
                .filter(|&&ep| ep != served_by)
                .map(|&ep| {
                    (
                        ep,
                        StoreModelRequest {
                            timestamp: Some(reply.timestamp),
                            ..req.clone()
                        },
                    )
                })
                .collect();
            if !mirrors.is_empty() {
                let legs = settle(self.fan_out(&mirrors, methods::Store));
                if let Some((_, e)) = legs.permanent {
                    return Err(e);
                }
                self.telemetry
                    .under_replicated_stores
                    .add(legs.transient.len() as u64);
            }
            Ok(StoreOutcome {
                bytes_written: reply.bytes_stored,
                tensors_written,
                timestamp: reply.timestamp,
            })
        })();
        self.fabric.bulk_release(bulk);
        outcome
    }

    /// The producer half of every store: encode each tensor as a record
    /// (the check, plus the copy for tensors too small to borrow, shared
    /// out per tensor — [`par::map`]), pack the records and expose them as
    /// they are, one vectored bulk region. A large tensor's record is a
    /// rope around its own payload buffer: no staging copy, no
    /// consolidation memcpy. The caller releases the region once every
    /// leg that reads it has settled.
    fn expose_tensors(
        &self,
        tensors: &[(TensorKey, &TensorData)],
    ) -> (Vec<ManifestEntry>, BulkHandle) {
        let payload_bytes = tensors.iter().map(|(_, t)| t.byte_len()).sum();
        let records: Vec<Record> =
            par::map(tensors, payload_bytes, |(_, t)| write_tensor_segments(t));
        let (manifest, segments) = pack(
            tensors
                .iter()
                .zip(&records)
                .map(|((key, _), record)| (*key, record.segments())),
        );
        self.telemetry
            .bulk_segments_exposed
            .add(segments.len() as u64);
        (manifest, self.fabric.bulk_expose_vec(segments))
    }

    /// Store a from-scratch model with randomly initialized parameters.
    pub fn store_fresh<R: Rng + ?Sized>(
        &self,
        model: ModelId,
        graph: &CompactGraph,
        quality: f64,
        rng: &mut R,
    ) -> Result<StoreOutcome> {
        let owner_map = OwnerMap::fresh(model, graph);
        let tensors = random_tensors(model, graph, rng);
        self.store_model(graph.clone(), owner_map, None, quality, &tensors)
    }

    // ---- queries ---------------------------------------------------------

    /// Broadcast an LCP query to every provider and reduce to the global
    /// best match (longest prefix; quality, then lower model id, break
    /// ties). The inner value is `None` when no stored model shares even
    /// the input layer.
    ///
    /// Degraded mode: providers that fail transiently (down, timing out)
    /// don't abort the query — as long as [`EvoStoreClient::min_quorum`]
    /// providers answer, the best match *over the reachable catalogs* is
    /// returned, with [`Degraded::unreachable`] naming the providers
    /// whose models were not considered. Below quorum the query fails
    /// with [`EvoError::PartialFailure`].
    ///
    /// On the wire this is [`EvoStoreClient::query_best_ancestors`] over
    /// a batch of one.
    pub fn query_best_ancestor(
        &self,
        graph: &CompactGraph,
    ) -> Result<Degraded<Option<BestAncestor>>> {
        let Degraded { value, unreachable } =
            self.query_best_ancestors(std::slice::from_ref(graph))?;
        Ok(Degraded {
            value: value.into_iter().next().flatten(),
            unreachable,
        })
    }

    /// Batched [`EvoStoreClient::query_best_ancestor`]: pack every graph
    /// into one `LCP_BATCH` envelope per provider — each provider answers
    /// the whole batch against a single pinned catalog snapshot — and
    /// reduce per query across the provider replies (longest prefix;
    /// quality, then lower model id, break ties). Returns one answer per
    /// input graph, index-aligned, with the degraded-mode quorum semantics
    /// of the single-query form.
    ///
    /// Dispatch, tracing, and snapshot acquisition are paid once per
    /// envelope instead of once per query — the raw-throughput path for
    /// NAS-style bursts of candidate evaluations.
    pub fn query_best_ancestors(
        &self,
        graphs: &[CompactGraph],
    ) -> Result<Degraded<Vec<Option<BestAncestor>>>> {
        if graphs.is_empty() {
            return Ok(Degraded {
                value: Vec::new(),
                unreachable: Vec::new(),
            });
        }
        let req = LcpBatchRequest {
            graphs: graphs.to_vec(),
        };
        self.with_root_op(
            "query",
            "query_best_ancestors",
            &self.telemetry.query,
            || {
                let (replies, unreachable) = self.quorum_broadcast(methods::LcpBatch, &req)?;
                self.telemetry.note_batch(graphs.len() as u64);
                for leg in &replies {
                    if leg.replies.len() != graphs.len() {
                        return Err(EvoError::Protocol(format!(
                            "batched LCP reply carries {} answers for {} queries",
                            leg.replies.len(),
                            graphs.len()
                        )));
                    }
                    for r in &leg.replies {
                        self.telemetry.note_index_stats(r.stats);
                    }
                }
                let value = (0..graphs.len())
                    .map(|i| {
                        replies
                            .iter()
                            .filter_map(|leg| leg.replies[i].best.clone())
                            .fold(None::<LcpCandidate>, |acc, b| match acc {
                                None => Some(b),
                                Some(a) => Some(better_candidate(a, b)),
                            })
                            .map(|c| BestAncestor {
                                model: c.model,
                                quality: c.quality,
                                lcp: c.lcp,
                            })
                    })
                    .collect();
                Ok(Degraded { value, unreachable })
            },
        )
    }

    /// Fetch model metadata, failing over along the replica chain.
    pub fn get_meta(&self, model: ModelId) -> Result<ModelMetaReply> {
        let req = GetMetaRequest { model };
        let chain = self.replicas_of(model);
        let read = |target| self.unary(target, methods::GetMeta, &req);
        self.read_over(&chain, methods::GetMeta::METHOD, read(chain[0]), read)
    }

    // ---- data plane ------------------------------------------------------

    /// Fetch an arbitrary set of tensors, grouped by owning chain: one
    /// `READ` per group's primary, all in flight at once, then each reply
    /// pulled via one-sided bulk reads and decoded on this thread. A group
    /// whose primary is down, missed the write, or returned a corrupt
    /// payload fails over to the successor replicas.
    pub fn fetch_tensors(&self, keys: &[TensorKey]) -> Result<HashMap<TensorKey, TensorData>> {
        self.with_root_op("fetch", "fetch_tensors", &self.telemetry.fetch, || {
            let n = self.providers.len();
            let mut groups: HashMap<usize, Vec<TensorKey>> = HashMap::new();
            for key in keys {
                groups
                    .entry(key.owner.provider_for(n))
                    .or_default()
                    .push(*key);
            }
            let (chains, reads): (Vec<Vec<EndpointId>>, Vec<(EndpointId, ReadTensorsRequest)>) =
                groups
                    .into_iter()
                    .map(|(primary, keys)| {
                        let chain: Vec<EndpointId> = self
                            .replication
                            .chain(primary, n)
                            .into_iter()
                            .map(|idx| self.providers[idx])
                            .collect();
                        let read = (chain[0], ReadTensorsRequest { keys });
                        (chain, read)
                    })
                    .unzip();
            let replies = self.fan_out(&reads, methods::Read);
            // Every group settles before an error surfaces: each reply's
            // region is withdrawn only by its pull.
            let fetched: Vec<Result<Vec<(TensorKey, TensorData)>>> = chains
                .iter()
                .zip(&reads)
                .zip(replies)
                .map(|((chain, (_, req)), (_, reply))| {
                    let primary = reply
                        .map_err(EvoError::from)
                        .and_then(|r| self.pull_read(r));
                    self.read_over(chain, methods::Read::METHOD, primary, |target| {
                        self.pull_read(self.unary(target, methods::Read, req)?)
                    })
                })
                .collect();
            let mut out = HashMap::with_capacity(keys.len());
            for group in fetched {
                out.extend(group?);
            }
            Ok(out)
        })
    }

    /// Pull one `READ` reply, charging its records to the op's ledger.
    fn pull_read(&self, reply: ReadTensorsReply) -> Result<Vec<(TensorKey, TensorData)>> {
        evostore_obs::ledger::add_chunks_touched(reply.manifest.len() as u64);
        evostore_obs::ledger::add_bytes_in(reply.manifest.iter().map(|e| e.len).sum());
        self.pull_tensors(reply)
    }

    /// The reader half of every read reply: pull the region the provider
    /// exposed (the provider holds one segment per memory-resident record,
    /// so the "pull" is a segment-list clone) and withdraw it, then decode
    /// and integrity-check every manifest entry, shared out per tensor
    /// ([`par::map`]). A record the provider holds as a rope arrives as
    /// one: its payload segment becomes the tensor's buffer.
    fn pull_tensors(&self, reply: ReadTensorsReply) -> Result<Vec<(TensorKey, TensorData)>> {
        let region = self.fabric.bulk_take(BulkHandle(reply.bulk))?;
        par::map(&reply.manifest, region.len(), |entry| {
            read_entry(entry, &region).map(|(_, tensor)| (entry.key, tensor))
        })
        .into_iter()
        .collect()
    }

    /// Fetch the tensors of an LCP prefix from the ancestor (the transfer
    /// step). Returns the ancestor's metadata and the fetched tensors,
    /// keyed by their owner-map keys.
    pub fn fetch_prefix(
        &self,
        best: &BestAncestor,
    ) -> Result<(ModelMetaReply, HashMap<TensorKey, TensorData>)> {
        let meta = self.get_meta(best.model)?;
        let mut keys = Vec::new();
        for &gv in &best.lcp.prefix {
            let av = best.lcp.match_in_ancestor[gv.0 as usize].ok_or_else(|| {
                EvoError::Protocol(format!("prefix vertex {gv} has no ancestor match"))
            })?;
            // A stale LCP (computed against a different architecture than
            // the one actually stored) must surface as an error, never a
            // panic.
            if av.0 as usize >= meta.owner_map.len() {
                return Err(EvoError::Protocol(format!(
                    "LCP match {av} out of bounds for ancestor {} ({} vertices) — stale query?",
                    best.model,
                    meta.owner_map.len()
                )));
            }
            keys.extend(meta.owner_map.vertex(av).tensor_keys());
        }
        let tensors = self.fetch_tensors(&keys)?;
        Ok((meta, tensors))
    }

    /// Load a complete model: metadata plus every tensor, resolved through
    /// its single owner map (no lineage walk, §4.1).
    pub fn load_model(&self, model: ModelId) -> Result<LoadedModel> {
        let meta = self.get_meta(model)?;
        let keys = meta.owner_map.all_tensor_keys();
        let tensors = self.fetch_tensors(&keys)?;
        Ok(LoadedModel {
            graph: meta.graph,
            owner_map: meta.owner_map,
            tensors,
            parent: meta.parent,
            quality: meta.quality,
        })
    }

    /// Read a contiguous element range of one stored tensor without
    /// transferring the rest of it (fine-grain partial access). Returns a
    /// 1-D tensor holding exactly the requested elements.
    pub fn fetch_tensor_slice(
        &self,
        key: TensorKey,
        elem_offset: u64,
        elem_count: u64,
    ) -> Result<TensorData> {
        let req = ReadRangeRequest {
            key,
            elem_offset,
            elem_count,
        };
        let chain = self.replicas_of(key.owner);
        let read = |target| {
            let reply = self.unary(target, methods::ReadRange, &req)?;
            // A flat buffer is what a tensor is made of: the one gather on
            // this path, and a copy only when the range spans segments of
            // the stored record.
            let payload = self.fabric.bulk_take(BulkHandle(reply.bulk))?.to_bytes();
            let dtype = evostore_tensor::DType::from_tag(reply.dtype_tag)
                .ok_or_else(|| EvoError::Protocol(format!("bad dtype tag {}", reply.dtype_tag)))?;
            TensorData::from_bytes(dtype, vec![elem_count as usize], payload)
                .ok_or_else(|| EvoError::Protocol("range length mismatch".into()))
        };
        self.read_over(&chain, methods::ReadRange::METHOD, read(chain[0]), read)
    }

    /// Find every stored model whose architecture matches `pattern`
    /// (broadcast + concatenating reduce across providers). Results are
    /// `(model, quality)`, sorted by descending quality.
    ///
    /// Same degraded-mode quorum semantics as
    /// [`EvoStoreClient::query_best_ancestor`]: unreachable providers'
    /// catalogs are simply absent from the result as long as quorum is
    /// met. On the wire this is [`EvoStoreClient::find_matching_batch`]
    /// over a batch of one.
    pub fn find_matching(
        &self,
        pattern: &evostore_graph::ArchPattern,
    ) -> Result<Degraded<RankedMatches>> {
        let Degraded { value, unreachable } =
            self.find_matching_batch(std::slice::from_ref(pattern))?;
        Ok(Degraded {
            value: value.into_iter().next().unwrap_or_default(),
            unreachable,
        })
    }

    /// Batched [`EvoStoreClient::find_matching`]: every pattern in one
    /// `MATCH_PATTERN_BATCH` envelope per provider, answered against a
    /// single pinned snapshot. Returns one ranked match list per input
    /// pattern, index-aligned; replicas answer for the same catalogs, so
    /// each list is deduplicated by model (keeping the best-reported
    /// quality) before ranking.
    pub fn find_matching_batch(
        &self,
        patterns: &[evostore_graph::ArchPattern],
    ) -> Result<Degraded<Vec<RankedMatches>>> {
        if patterns.is_empty() {
            return Ok(Degraded {
                value: Vec::new(),
                unreachable: Vec::new(),
            });
        }
        let req = PatternBatchRequest {
            patterns: patterns.to_vec(),
        };
        self.with_root_op(
            "query",
            "find_matching_batch",
            &self.telemetry.query,
            || {
                let (replies, unreachable) =
                    self.quorum_broadcast(methods::MatchPatternBatch, &req)?;
                self.telemetry.note_batch(patterns.len() as u64);
                for leg in &replies {
                    if leg.replies.len() != patterns.len() {
                        return Err(EvoError::Protocol(format!(
                            "batched pattern reply carries {} answers for {} queries",
                            leg.replies.len(),
                            patterns.len()
                        )));
                    }
                    for r in &leg.replies {
                        self.telemetry.note_index_stats(r.stats);
                    }
                }
                let value = (0..patterns.len())
                    .map(|i| {
                        rank_matches(
                            replies
                                .iter()
                                .flat_map(|leg| leg.replies[i].matches.iter().copied()),
                        )
                    })
                    .collect();
                Ok(Degraded { value, unreachable })
            },
        )
    }

    /// Attach optimizer state to an already-stored model (supports
    /// resuming the original training — the paper's stated extension).
    /// Tensors are keyed by their position in `moments`.
    pub fn store_optimizer_state(
        &self,
        model: ModelId,
        moments: &[TensorData],
    ) -> Result<StoreOutcome> {
        // The optimizer namespace: vertex = u32::MAX sentinel.
        let tensors: Vec<(TensorKey, &TensorData)> = moments
            .iter()
            .enumerate()
            .map(|(i, t)| (TensorKey::new(model, VertexId(u32::MAX), i as u32), t))
            .collect();
        let (manifest, bulk) = self.expose_tensors(&tensors);
        let tensors_written = manifest.len();
        let req = StoreOptimizerRequest {
            model,
            manifest,
            bulk: bulk.0,
        };
        // Every replica keeps its own optimizer copy. One success is
        // required; a failed mirror leaves the attachment
        // under-replicated (healed by repair's optimizer-aware digest
        // comparison) — a permanent failure too: a mirror that missed the
        // model's store answers "model not found", which with a successful
        // sibling leg is under-replication, not a caller error.
        let chain = self.replicas_of(model);
        let legs: Vec<_> = chain.iter().map(|&ep| (ep, req.clone())).collect();
        let mut legs = settle(self.fan_out(&legs, methods::StoreOptimizer));
        self.fabric.bulk_release(bulk);
        if legs.ok.is_empty() {
            return Err(match legs.permanent {
                Some((_, e)) => e,
                None => EvoError::PartialFailure { failed: chain },
            });
        }
        self.telemetry
            .under_replicated_stores
            .add((chain.len() - legs.ok.len()) as u64);
        let (_, reply) = legs.ok.swap_remove(0);
        Ok(StoreOutcome {
            bytes_written: reply.bytes_stored,
            tensors_written,
            timestamp: reply.timestamp,
        })
    }

    /// Fetch a model's optimizer state, in the order it was stored.
    /// Empty when the model has none. Served by the first replica that
    /// can, like [`EvoStoreClient::fetch_tensors`].
    pub fn load_optimizer_state(&self, model: ModelId) -> Result<Vec<TensorData>> {
        let req = LoadOptimizerRequest { model };
        let chain = self.replicas_of(model);
        let read = |target| self.pull_tensors(self.unary(target, methods::LoadOptimizer, &req)?);
        let mut moments =
            self.read_over(&chain, methods::LoadOptimizer::METHOD, read(chain[0]), read)?;
        moments.sort_unstable_by_key(|(key, _)| key.slot);
        Ok(moments.into_iter().map(|(_, t)| t).collect())
    }

    // ---- retirement ------------------------------------------------------

    /// Retire a model: drop its metadata, then decrement the reference
    /// count of every tensor its owner map references (fanned out to the
    /// hosting providers in parallel). Tensors still referenced by
    /// descendants survive.
    ///
    /// Decrement legs that fail *transiently* (provider down, timing
    /// out) do not fail the retirement: once the metadata drop
    /// succeeded, the model is gone, so the pending decrements are
    /// parked in a client-side queue and re-issued on the next
    /// retirement or an explicit
    /// [`EvoStoreClient::flush_pending_decrements`] — GC is eventually
    /// consistent under provider failures instead of leaking pins.
    /// Retrying a timed-out leg (whose first delivery may have applied)
    /// is safe: each decrement carries a [`RefsRequest::op_id`] the
    /// provider deduplicates on, so no tensor is ever decremented twice
    /// for one retirement. A *permanently* failing leg surfaces as an
    /// error — but only after every other leg has been settled (and
    /// parked if transient).
    pub fn retire_model(&self, model: ModelId) -> Result<RetireOutcome> {
        self.with_root_op("retire", "retire_model", &self.telemetry.retire, || {
            self.retire_model_inner(model)
        })
    }

    fn retire_model_inner(&self, model: ModelId) -> Result<RetireOutcome> {
        // Opportunistically drain decrements parked by earlier failures.
        let _ = self.flush_pending_decrements();
        // Drop the record on every replica. One success suffices: a
        // replica that is down keeps a stale record, which the tombstone
        // recorded by its reachable siblings removes during repair.
        let chain = self.replicas_of(model);
        let meta_legs = self.fan_out(
            &chain
                .iter()
                .map(|&ep| (ep, RetireMetaRequest { model }))
                .collect::<Vec<_>>(),
            methods::RetireMeta,
        );
        let mut meta_legs = settle(meta_legs);
        if meta_legs.ok.is_empty() {
            return Err(meta_legs
                .first_error()
                .expect("replica chain is never empty"));
        }
        let (_, reply) = meta_legs.ok.swap_remove(0);
        let keys = reply.owner_map.all_tensor_keys();
        let refs_dropped = keys.len();
        // Decrement on every replica of every referenced key. Each leg
        // carries a *deterministic* op id derived from (model, record
        // timestamp, target provider): if the leg parks and repair
        // settles the counts first, the eventual re-issue hits the fence
        // the repair pass seeded and no-ops instead of double-applying.
        let groups = self.group_by_replicas(keys);
        let reqs: Vec<(EndpointId, RefsRequest)> = groups
            .into_iter()
            .map(|(ep, keys)| {
                let idx = self
                    .providers
                    .iter()
                    .position(|&p| p == ep)
                    .expect("grouped endpoint is a provider");
                (
                    ep,
                    RefsRequest::with_op_id(
                        RefsRequest::retirement_op_id(model, reply.timestamp, idx),
                        keys,
                    ),
                )
            })
            .collect();
        // Every leg is settled before the outcome is decided: returning
        // early on a permanent failure would discard later transient legs
        // without parking them, pinning those refcounts forever.
        let legs = settle(self.fan_out(&reqs, methods::DecrRefs));
        let tensors_reclaimed = legs.ok.iter().map(|(_, r)| r.reclaimed).sum();
        let refs_parked = self.park_decrements(
            legs.transient
                .iter()
                .map(|&(i, ..)| reqs[i].clone())
                .collect(),
        );
        if let Some((_, e)) = legs.permanent {
            return Err(e);
        }
        Ok(RetireOutcome {
            refs_dropped,
            tensors_reclaimed,
            refs_parked,
        })
    }

    /// Re-issue every parked refcount decrement. Legs that fail
    /// transiently again are re-parked; permanently failing legs are
    /// dropped (they can never succeed). Returns the number of tensor
    /// references successfully decremented.
    pub fn flush_pending_decrements(&self) -> Result<usize> {
        let pending: Vec<(EndpointId, RefsRequest)> =
            std::mem::take(&mut *self.pending_decrements.lock());
        if pending.is_empty() {
            return Ok(0);
        }
        let legs = settle(self.fan_out(&pending, methods::DecrRefs));
        let flushed = legs.ok.iter().map(|&(i, _)| pending[i].1.keys.len()).sum();
        let requeue = legs.transient.iter().map(|&(i, ..)| pending[i].clone());
        self.pending_decrements.lock().extend(requeue);
        Ok(flushed)
    }

    /// Tensor references currently parked awaiting a successful
    /// decrement.
    pub fn pending_decrement_count(&self) -> usize {
        self.pending_decrements
            .lock()
            .iter()
            .map(|(_, r)| r.keys.len())
            .sum()
    }

    // ---- provenance --------------------------------------------------------

    /// The transfer-learning chain of `model`, oldest last:
    /// `[model, parent, grandparent, ...]`.
    pub fn lineage(&self, model: ModelId) -> Result<Vec<ModelId>> {
        let mut chain = vec![model];
        let mut cur = model;
        loop {
            let meta = self.get_meta(cur)?;
            match meta.parent {
                Some(p) => {
                    if chain.contains(&p) {
                        return Err(EvoError::Protocol(format!("lineage cycle at {p}")));
                    }
                    chain.push(p);
                    cur = p;
                }
                None => return Ok(chain),
            }
        }
    }

    /// Most recent common ancestor of two models (by lineage walk).
    /// Returns `None` when the lineages are disjoint.
    pub fn most_recent_common_ancestor(&self, a: ModelId, b: ModelId) -> Result<Option<ModelId>> {
        let la = self.lineage(a)?;
        let lb: std::collections::HashSet<ModelId> = self.lineage(b)?.into_iter().collect();
        Ok(la.into_iter().find(|m| lb.contains(m)))
    }

    /// Which ancestors contributed tensors to `model`, with vertex counts
    /// and global write-order stamps — a pure owner-map read, no lineage
    /// walk (§4.1, "Owner Maps as a Foundation for Provenance").
    pub fn contributors(&self, model: ModelId) -> Result<Vec<(ModelId, usize, u64)>> {
        let meta = self.get_meta(model)?;
        let mut out = Vec::new();
        for (owner, count) in meta.owner_map.contribution_counts() {
            let ts = if owner == model {
                meta.timestamp
            } else {
                self.get_meta(owner)?.timestamp
            };
            out.push((owner, count, ts));
        }
        // Chronological order of contribution (the transfer chain order).
        out.sort_by_key(|&(_, _, ts)| ts);
        Ok(out)
    }

    // ---- stats -------------------------------------------------------------

    /// Aggregate statistics across all providers. Unlike the query
    /// collectives, stats are only meaningful over the *complete*
    /// deployment, so any failed provider fails the call
    /// ([`EvoError::PartialFailure`] when transient).
    pub fn stats(&self) -> Result<ProviderStats> {
        let legs = settle(self.broadcast(methods::Stats, &StatsRequest {})?);
        let failed = legs.unreachable();
        if let Some((_, e)) = legs.permanent {
            return Err(e);
        }
        if !failed.is_empty() {
            return Err(EvoError::PartialFailure { failed });
        }
        let stats = legs.ok.into_iter().map(|(_, s)| s);
        Ok(stats.fold(ProviderStats::default(), ProviderStats::merge))
    }
}

impl Drop for EvoStoreClient {
    /// Last-handle cleanup: when the final clone of a client goes away
    /// with refcount decrements still parked, flush them best-effort so
    /// a short-lived client doesn't leak pins it could still settle.
    /// Failures are ignored — the decrements are idempotent and repair
    /// recomputes authoritative counts regardless.
    fn drop(&mut self) {
        if Arc::strong_count(&self.pending_decrements) == 1
            && !self.pending_decrements.lock().is_empty()
        {
            let _ = self.flush_pending_decrements();
        }
    }
}

/// The better of two provider-reported LCP candidates: longest prefix;
/// higher quality, then lower model id, break ties — the one global
/// ordering of the cross-provider reduce.
fn better_candidate(a: LcpCandidate, b: LcpCandidate) -> LcpCandidate {
    let better = b.lcp.len() > a.lcp.len()
        || (b.lcp.len() == a.lcp.len()
            && (b.quality > a.quality || (b.quality == a.quality && b.model < a.model)));
    if better {
        b
    } else {
        a
    }
}

/// Dedup pattern matches by model (replicas answer for the same
/// catalogs, keeping the best-reported quality) and rank by descending
/// quality, ascending model id.
fn rank_matches(matches: impl IntoIterator<Item = (ModelId, f64)>) -> Vec<(ModelId, f64)> {
    let mut best: HashMap<ModelId, f64> = HashMap::new();
    for (model, quality) in matches {
        let entry = best.entry(model).or_insert(quality);
        if quality > *entry {
            *entry = quality;
        }
    }
    let mut acc: Vec<(ModelId, f64)> = best.into_iter().collect();
    acc.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    acc
}

/// Materialize random parameters for every vertex of `graph`, keyed as a
/// fresh model owned by `model`.
pub fn random_tensors<R: Rng + ?Sized>(
    model: ModelId,
    graph: &CompactGraph,
    rng: &mut R,
) -> HashMap<TensorKey, TensorData> {
    let mut out = HashMap::new();
    for v in graph.vertex_ids() {
        for spec in graph.param_specs(v) {
            out.insert(
                TensorKey::new(model, VertexId(v.0), spec.slot),
                spec.random(rng),
            );
        }
    }
    out
}
