//! Deployment helper: spin up a fabric of providers plus clients, and
//! run deployment-wide maintenance: the GC audit and anti-entropy repair
//! (`repair`) and repair's per-model re-replication legs (`transfer`).

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use evostore_kv::{KvBackend, LogStore, MemPoolStore};
use evostore_obs::{
    FlightEvent, MetricsSource, MonotonicClock, ObsHub, ObsServer, OpLedger, RegistrySnapshot,
    SloSpec, TimeSource, Tracer,
};
use evostore_rpc::{EndpointId, Fabric, RetryPolicy};

use crate::client::EvoStoreClient;
use crate::messages::{ObsSnapshotRequest, ProviderStats, SyncRefsRequest};
use crate::methods;
use crate::policy::StorePolicy;
use crate::provider::{Provider, ProviderState, Substrate};
use crate::replication::ReplicationPolicy;

mod repair;
mod transfer;

pub use repair::RepairReport;
use repair::{Census, Mode};

/// Flight-recorder capacity of the fabric's ring (faults, endpoint
/// down/up transitions).
pub const FABRIC_FLIGHT_EVENTS: usize = 4096;

/// Flight-recorder capacity of the deployment's own ring (repair and
/// transfer spans).
pub const DEPLOYMENT_FLIGHT_EVENTS: usize = 1024;

/// Which KV backend providers persist tensors into.
#[derive(Debug, Clone)]
pub enum BackendKind {
    /// Synchronized in-memory pools (the paper's experimental config).
    Memory,
    /// Append-only log store under `dir/provider-<i>/` (the RocksDB-style
    /// persistent config).
    Log { dir: std::path::PathBuf },
}

/// Deployment parameters.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Number of providers.
    pub providers: usize,
    /// RPC service threads per provider.
    pub service_threads: usize,
    /// Tensor storage backend.
    pub backend: BackendKind,
    /// Replica placement policy (factor 1 = the paper's unreplicated
    /// static hashing).
    pub replication: ReplicationPolicy,
    /// Observability clock override: spans, flight events and slow-op
    /// thresholds are stamped from this source. `None` uses the wall
    /// clock; simulations pass a virtual clock (e.g.
    /// `evostore_sim::SimClock`).
    pub clock: Option<Arc<dyn TimeSource>>,
    /// Physical tensor-storage policy: whole records, or
    /// content-addressed chunks with parent-delta encoding of derived
    /// models. The default reproduces the pre-policy layout byte for byte.
    pub store_policy: StorePolicy,
    /// Broadcast-tree fanout of the delivery plane: how many subscribers
    /// fetch a released model directly from the provider; the rest fetch
    /// from an earlier subscriber along the planned tree.
    pub deliver_fanout: usize,
    /// Bind address (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral) of
    /// the live exposition server serving `/metrics`, `/metrics.json`,
    /// `/slo`, `/traces/recent` and `/flight` over HTTP. `None` (the
    /// default) serves nothing.
    pub obs_listen: Option<String>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            providers: 4,
            service_threads: 2,
            backend: BackendKind::Memory,
            replication: ReplicationPolicy::default(),
            clock: None,
            store_policy: StorePolicy::default(),
            deliver_fanout: 4,
            obs_listen: None,
        }
    }
}

/// A running EvoStore deployment.
///
/// It has no `Drop` of its own: the fields drop in declaration order, the
/// exposition server first (its thread is joined), then each [`Provider`]
/// (its pump stopped, its endpoint deregistered and joined, its stores
/// freed). The fabric goes with the last `Arc` to it — a client's, or this
/// one — since no endpoint's registration holds one.
pub struct Deployment {
    obs_server: Option<ObsServer>,
    fabric: Arc<Fabric>,
    providers: Vec<Provider>,
    provider_ids: Vec<EndpointId>,
    replication: ReplicationPolicy,
    obs: Arc<ObsHub>,
    /// Per-op-class resource attribution for deployment-driven work
    /// (`repair` passes, per-model `transfer` legs), exported as
    /// `evostore_ledger_*` under node `deployment`.
    ledger: Arc<OpLedger>,
    /// Span factory for the transfer plane: every `transfer.sync_model`
    /// root carries the negotiation round-trips as child spans.
    tracer: Arc<Tracer>,
    /// The storage policy providers were built with: picks repair's
    /// transfer leg.
    policy: StorePolicy,
    /// The ledger, fork-join pool and fabric lane sources. The hub holds
    /// them weakly, so the fabric one may hold the fabric: it goes with
    /// the deployment.
    _metrics_sources: [MetricsSource; 3],
}

impl Deployment {
    /// Start a deployment. Panics when a provider's stores cannot be
    /// opened or the exposition server cannot bind;
    /// [`Deployment::reopen`] returns those as errors instead.
    pub fn new(cfg: DeploymentConfig) -> Deployment {
        Self::start(cfg).unwrap_or_else(|e| panic!("start deployment: {e}"))
    }

    fn start(cfg: DeploymentConfig) -> Result<Deployment, String> {
        assert!(cfg.providers > 0);
        let fabric = Fabric::new();
        let obs_clock: Arc<dyn TimeSource> = cfg
            .clock
            .clone()
            .unwrap_or_else(|| Arc::new(MonotonicClock::default()));
        let obs = Arc::new(ObsHub::new(obs_clock));
        // Default latency objectives per op class; callers re-register
        // via `deployment.obs().slo()` to tighten or loosen them.
        for spec in [
            SloSpec::new("store", 250_000, 0.99),
            SloSpec::new("fetch", 250_000, 0.99),
            SloSpec::new("query", 50_000, 0.99),
            SloSpec::new("retire", 250_000, 0.99),
            SloSpec::new("repair", 5_000_000, 0.99),
            SloSpec::new("deliver", 500_000, 0.99),
        ] {
            obs.slo().register(spec);
        }
        fabric.set_flight_recorder(Some(obs.new_recorder("fabric", FABRIC_FLIGHT_EVENTS)));
        let clock = Arc::new(AtomicU64::new(1));
        let mut providers = Vec::with_capacity(cfg.providers);
        for i in 0..cfg.providers {
            let tensors = Substrate::open(cfg.store_policy, &cfg.backend, i)
                .map_err(|e| format!("open provider {i} tensor store: {e}"))?;
            let meta: Box<dyn KvBackend> = match &cfg.backend {
                BackendKind::Memory => Box::new(MemPoolStore::new()),
                BackendKind::Log { dir } => Box::new(
                    LogStore::open(dir.join(format!("provider-{i}/meta")))
                        .map_err(|e| format!("open provider {i} meta store: {e}"))?,
                ),
            };
            providers.push(Provider::spawn(
                Arc::clone(&fabric),
                i,
                cfg.providers,
                cfg.replication,
                Arc::clone(&clock),
                tensors,
                meta,
                cfg.service_threads,
                &obs,
                cfg.deliver_fanout,
            ));
        }
        let provider_ids: Vec<EndpointId> = providers.iter().map(|p| p.endpoint_id()).collect();
        let obs_server = cfg
            .obs_listen
            .as_deref()
            .map(|addr| {
                Self::start_obs_server(addr, Arc::clone(&fabric), provider_ids.clone(), &obs)
                    .map_err(|e| format!("obs exposition server on {addr}: {e}"))
            })
            .transpose()?;
        let ledger = Arc::new(OpLedger::new());
        let (l, f) = (Arc::clone(&ledger), Arc::clone(&fabric));
        let sources = [
            obs.registry().register(move || l.metrics("deployment")),
            // The fork-join pool and the fabric are shared by every
            // node: one series each, registered here rather than once
            // per provider.
            obs.registry().register(|| crate::par::stats().rows(&[])),
            obs.registry().register(move || f.stats().rows(&[])),
        ];
        let tracer = Arc::new(Tracer::new(
            obs.new_recorder("deployment", DEPLOYMENT_FLIGHT_EVENTS),
        ));
        Ok(Deployment {
            fabric,
            providers,
            provider_ids,
            replication: cfg.replication,
            obs,
            obs_server,
            ledger,
            tracer,
            policy: cfg.store_policy,
            _metrics_sources: sources,
        })
    }

    /// Spin up the live exposition server: every route re-renders from
    /// the deployment's current state per request.
    fn start_obs_server(
        addr: &str,
        fabric: Arc<Fabric>,
        provider_ids: Vec<EndpointId>,
        obs: &Arc<ObsHub>,
    ) -> std::io::Result<ObsServer> {
        let snap = {
            let (fabric, ids, obs) = (Arc::clone(&fabric), provider_ids.clone(), Arc::clone(obs));
            move || merged_snapshot(&fabric, &ids, &obs)
        };
        let metrics = snap.clone();
        let metrics_json = snap;
        let slo = Arc::clone(obs);
        let traces = Arc::clone(obs);
        let flight = {
            let (ids, obs) = (provider_ids, Arc::clone(obs));
            move || render_flight_dump(&obs, &ids)
        };
        ObsServer::builder()
            .route("/metrics", move || {
                (
                    "text/plain; version=0.0.4".into(),
                    metrics().to_prometheus_text(),
                )
            })
            .route("/metrics.json", move || {
                ("application/json".into(), metrics_json().to_json())
            })
            .route("/slo", move || {
                ("application/json".into(), slo.slo().to_json())
            })
            .route("/traces/recent", move || {
                ("text/plain".into(), traces.recent_traces(16))
            })
            .route("/flight", move || ("text/plain".into(), flight()))
            .start(addr)
    }

    /// Address of the live exposition server, when one was configured
    /// (its port is concrete even when the config bound port 0).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_server.as_ref().map(|s| s.addr())
    }

    /// Reopen a log-backed deployment after a restart: restore every
    /// provider's catalog from its durable meta store, take the strict
    /// census of what references what (the replicas must agree), and
    /// install every provider's counts from it through the refs sync —
    /// which also drops the records a crash left unreferenced.
    pub fn reopen(cfg: DeploymentConfig) -> Result<Deployment, String> {
        if matches!(cfg.backend, BackendKind::Memory) {
            return Err("reopen requires a persistent (Log) backend".into());
        }
        let dep = Deployment::start(cfg)?;
        let states = dep.provider_states();
        for s in &states {
            s.recover_catalog()?;
        }
        let digests = dep.digests()?;
        let census = Census::take(&digests, dep.replication, digests.len(), Mode::Strict)?;
        for (i, s) in states.iter().enumerate() {
            let reply = s.handle_sync_refs(SyncRefsRequest {
                entries: census.counts_on(i),
                prune_unlisted: true,
            })?;
            if reply.missing > 0 {
                return Err(format!(
                    "{} referenced tensors missing on replica provider {i} — run repair()",
                    reply.missing
                ));
            }
        }
        dep.gc_audit()?;
        Ok(dep)
    }

    /// In-memory deployment with `n` providers (test/example shorthand).
    pub fn in_memory(n: usize) -> Deployment {
        Deployment::new(DeploymentConfig {
            providers: n,
            ..Default::default()
        })
    }

    /// In-memory deployment with `n` providers keeping `factor` replicas
    /// of every model (test/example shorthand).
    pub fn in_memory_replicated(n: usize, factor: usize) -> Deployment {
        Deployment::new(DeploymentConfig {
            providers: n,
            replication: ReplicationPolicy::new(factor),
            ..Default::default()
        })
    }

    /// The replica placement policy in effect.
    pub fn replication(&self) -> ReplicationPolicy {
        self.replication
    }

    /// A new client handle (cheap; one per worker thread), with the
    /// default resilience policy.
    pub fn client(&self) -> EvoStoreClient {
        self.client_builder().build()
    }

    /// A client builder pre-wired to this deployment's fabric and
    /// providers — for callers that want a custom retry policy, call
    /// timeout, or quorum.
    pub fn client_builder(&self) -> crate::client::EvoStoreClientBuilder {
        EvoStoreClient::builder(Arc::clone(&self.fabric))
            .providers(self.provider_ids.clone())
            .replication(self.replication)
            .obs_hub(Arc::clone(&self.obs))
    }

    /// The deployment's observability hub (clock, unified registry,
    /// flight recorders).
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Provider endpoint ids, in provider-index order.
    pub fn provider_ids(&self) -> &[EndpointId] {
        &self.provider_ids
    }

    /// Direct access to provider state (tests, audits, benches).
    pub fn provider_states(&self) -> Vec<Arc<ProviderState>> {
        self.providers
            .iter()
            .map(|p| Arc::clone(&p.state))
            .collect()
    }

    /// Switch every provider between indexed ancestor/pattern queries
    /// (the default) and the unindexed full-catalog scan — the A/B lever
    /// behind the fig5 bench's `--no-index` mode.
    pub fn set_index_enabled(&self, enabled: bool) {
        for p in &self.providers {
            p.state.set_index_enabled(enabled);
        }
    }

    /// Per-op-class resource attribution for deployment-driven work:
    /// every [`Deployment::repair`] pass folds into the `repair` class
    /// and every per-model re-replication leg into `transfer`, so the
    /// bytes a negotiated sync avoided moving are visible right in the
    /// ledger (`evostore_ledger_bytes_*{node="deployment"}`).
    pub fn ledger(&self) -> &Arc<OpLedger> {
        &self.ledger
    }

    /// Per-provider statistics, in provider-index order — including the
    /// KV byte counters ([`ProviderStats::tensor_kv`] /
    /// [`ProviderStats::meta_kv`]) carried in STATS replies.
    pub fn stats(&self) -> Vec<ProviderStats> {
        self.providers.iter().map(|p| p.state.stats()).collect()
    }

    /// One unified metrics snapshot for the whole deployment: the hub
    /// registry (live clients built via [`Deployment::client_builder`]
    /// register their telemetry there) merged with every provider's
    /// registry, fanned in over the `OBS_SNAPSHOT` RPC.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        merged_snapshot(&self.fabric, &self.provider_ids, &self.obs)
    }

    /// Prometheus text exposition of [`Deployment::metrics_snapshot`] —
    /// the one export surface for every counter in the system.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus_text()
    }

    /// Merge every live flight recorder (fabric, providers, live
    /// clients) into one time-ordered postmortem dump. Degraded answers
    /// and failovers are annotated with the fault window of the endpoints
    /// involved (down since when, per the fabric's down/up transitions),
    /// so each degraded line alone names the provider and fault
    /// responsible.
    pub fn flight_dump(&self) -> String {
        render_flight_dump(&self.obs, &self.provider_ids)
    }
}

/// One unified metrics snapshot: the hub registry merged with every
/// reachable provider's registry, fanned in over the `OBS_SNAPSHOT`
/// RPC. Free-standing so the exposition server's route closures can
/// re-render it per request without holding a `Deployment` borrow.
fn merged_snapshot(fabric: &Fabric, provider_ids: &[EndpointId], obs: &ObsHub) -> RegistrySnapshot {
    let mut snap = obs.registry().snapshot();
    let retry = RetryPolicy::default().with_timeout(Duration::from_secs(30));
    if let Ok(legs) = evostore_rpc::broadcast(
        fabric,
        provider_ids,
        methods::ObsSnapshot,
        &ObsSnapshotRequest {},
        &retry,
        None,
        None,
    ) {
        for (_, leg) in legs {
            // An unreachable provider degrades the snapshot rather
            // than failing it; its series are simply absent.
            if let Ok(provider_snap) = leg {
                snap.merge(&provider_snap);
            }
        }
    }
    snap
}

/// [`Deployment::flight_dump`], free-standing for the exposition server.
fn render_flight_dump(obs: &ObsHub, provider_ids: &[EndpointId]) -> String {
    // `providerN(epM)` when the endpoint is a provider of this
    // deployment, `epM` otherwise (clients, external endpoints).
    let endpoint_name = |ep: u32| match provider_ids.iter().position(|e| e.0 == ep) {
        Some(i) => format!("provider{i}(ep{ep})"),
        None => format!("ep{ep}"),
    };
    let mut events: Vec<(String, FlightEvent)> = Vec::new();
    let mut out = String::new();
    for rec in obs.recorders() {
        out.push_str(&format!(
            "# node {}: {} recorded, {} dropped\n",
            rec.node(),
            rec.recorded(),
            rec.dropped()
        ));
        for e in rec.events() {
            events.push((rec.node().to_string(), e));
        }
    }
    events.sort_by_key(|(_, e)| e.at_us());
    // Walk in time order tracking which endpoints are down so the
    // degraded/failover lines can name their fault window.
    let mut down_since: HashMap<u32, u64> = HashMap::new();
    let since = |down: &HashMap<u32, u64>, ep: u32| match down.get(&ep) {
        Some(at) => format!("{} (down since {at}us)", endpoint_name(ep)),
        None => endpoint_name(ep),
    };
    for (node, e) in &events {
        let at = e.at_us();
        let line = match e {
            FlightEvent::Span(s) => {
                let ep = match s.endpoint {
                    Some(ep) => format!(" @{}", endpoint_name(ep)),
                    None => String::new(),
                };
                format!(
                    "span {}{} trace={:016x} span={:x} parent={:x} {}..{}us {}",
                    s.name,
                    ep,
                    s.trace_id,
                    s.span_id,
                    s.parent_span_id,
                    s.start_us,
                    s.end_us,
                    s.status
                )
            }
            FlightEvent::Fault {
                endpoint,
                method,
                action,
                ..
            } => format!(
                "FAULT {} method={method} action={action}",
                endpoint_name(*endpoint)
            ),
            FlightEvent::EndpointDown { endpoint, .. } => {
                down_since.insert(*endpoint, at);
                format!("DOWN {}", endpoint_name(*endpoint))
            }
            FlightEvent::EndpointUp { endpoint, .. } => {
                let was = down_since.remove(endpoint);
                match was {
                    Some(from) => {
                        format!(
                            "UP {} (was down {from}us..{at}us)",
                            endpoint_name(*endpoint)
                        )
                    }
                    None => format!("UP {}", endpoint_name(*endpoint)),
                }
            }
            FlightEvent::Failover {
                trace_id,
                from,
                to,
                what,
                ..
            } => format!(
                "FAILOVER {what} trace={trace_id:016x} {} -> {}",
                since(&down_since, *from),
                endpoint_name(*to)
            ),
            FlightEvent::Degraded {
                trace_id,
                op,
                unreachable,
                ..
            } => {
                let who: Vec<String> = unreachable
                    .iter()
                    .map(|ep| since(&down_since, *ep))
                    .collect();
                format!(
                    "DEGRADED {op} trace={trace_id:016x} unreachable=[{}]",
                    who.join(", ")
                )
            }
            FlightEvent::Note { text, .. } => text.clone(),
        };
        out.push_str(&format!("[{at:>10}us] {node:<10} {line}\n"));
    }
    out
}
