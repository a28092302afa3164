//! The EvoStore client library.
//!
//! Clients are what application processes (NAS workers) link against
//! (§4.3): they interpret owner maps, consolidate tensors for writes,
//! parallelize bulk transfers across providers, and drive the LCP
//! broadcast/reduce. A client is cheap to clone per worker thread — it is
//! just the fabric handle plus the provider list.
//!
//! This module holds the client's types, builder and accessors; its
//! operations are split by seam: call shapes and placement (`calls`),
//! stores (`store`), catalog queries (`query`), reads (`read`), and
//! retirement with its parked decrements (`retire`).

mod calls;
mod query;
mod read;
mod retire;
mod store;

pub(crate) use read::prefix_keys;
pub use store::random_tensors;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use evostore_graph::{best_of, CompactGraph, IndexQueryStats};
use evostore_obs::ledger::install_costs;
use evostore_obs::{
    current_trace, set_current_trace, FlightRecorder, MetricsSource, MonotonicClock, ObsHub,
    OpCosts, OpLedger, SloEngine, SlowOp, SlowOpLog, Tracer,
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

    /// The answer mapped by `f`, over the same coverage.
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Degraded<U> {
        Degraded {
            value: f(self.value),
            unreachable: self.unreachable,
        }
    }
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
    /// References dropped: the keys the retired record's owner map names.
    pub refs_dropped: usize,
    /// Retired with the client's decrement round (the retiring provider's
    /// pump sends the decrements after the reply): always 0. Kept so the
    /// outcome keeps its shape; read reclamation from the store after
    /// [`crate::Deployment::drain_decrements`].
    pub tensors_reclaimed: usize,
    /// Retired with the client's decrement round: always 0. The pump
    /// retries a leg that fails transiently (`gc_legs_retried` in
    /// [`crate::ProviderStats`]).
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
    /// its telemetry registers as a metrics source. The hub holds all
    /// three weakly: when the last clone of the client drops, its ring,
    /// slow-op log and series leave the hub.
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
        // A client built without a hub gets a private one on the wall
        // clock that nothing reads: one attach path either way.
        let hub = self
            .obs
            .clone()
            .unwrap_or_else(|| Arc::new(ObsHub::new(Arc::new(MonotonicClock::default()))));
        let slow = Arc::new(SlowOpLog::new(
            &node,
            self.slow_op_threshold.as_micros() as u64,
            SLOW_OP_CAPACITY,
        ));
        hub.attach_slow_log(&slow);
        let tracer = Tracer::new(hub.new_recorder(&node, CLIENT_FLIGHT_EVENTS));
        let tracer = Arc::new(tracer.with_slow_log(Arc::clone(&slow)));
        let telemetry = Arc::new(crate::telemetry::ClientTelemetry::new());
        let ledger = Arc::new(OpLedger::new());
        let (t, l) = (Arc::clone(&telemetry), Arc::clone(&ledger));
        let metrics_source = hub.registry().register(move || {
            let mut out = t.metrics(&node);
            out.extend(l.metrics(&node));
            out
        });
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
            slo: self.obs.map(|hub| Arc::clone(hub.slo())),
            telemetry_level: self.telemetry_level,
            pending_decrements: Arc::new(Mutex::new(Vec::new())),
            _metrics_source: metrics_source,
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
    /// A failed store's pin-rollback decrements that failed transiently,
    /// awaiting re-issue (shared across clones so any handle can flush
    /// them).
    pending_decrements: Arc<Mutex<Vec<(EndpointId, RefsRequest)>>>,
    /// The hub's registry holds this source weakly: it leaves with the
    /// last clone of this client.
    _metrics_source: MetricsSource,
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
