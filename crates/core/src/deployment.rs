//! Deployment helper: spin up a fabric of providers plus clients, and
//! run deployment-wide maintenance (GC audit, anti-entropy repair).

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use evostore_kv::{
    ChunkStats, ChunkedStore, FannedLogStore, KvBackend, LogStore, MemPoolStore, DEFAULT_CHUNK_SIZE,
};
use evostore_obs::ledger::install_costs;
use evostore_obs::{
    FlightEvent, MonotonicClock, ObsHub, ObsServer, OpCosts, OpLedger, RegistrySnapshot, SloSpec,
    TimeSource, Tracer,
};
use evostore_rpc::{BulkHandle, EndpointId, Fabric, Method, RetryPolicy, RpcError, TraceHandle};
use evostore_tensor::{ModelId, TensorKey};

use crate::client::EvoStoreClient;
use crate::messages::{
    DigestReply, DigestRequest, GetMetaRequest, HaveChunksReply, HaveChunksRequest, ModelMetaReply,
    ObsSnapshotRequest, ProviderStats, ReadChunksRequest, ReadTensorsRequest, SyncChunksRequest,
    SyncModelRequest, SyncRefsRequest, SyncRetireRequest, Tombstone, TransferManifestReply,
    TransferManifestRequest,
};
use crate::methods;
use crate::policy::StorePolicy;
use crate::provider::{Provider, ProviderState};
use crate::records::pushed_chunks;
use crate::replication::ReplicationPolicy;

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
    /// Persistent log store fronted by a byte-bounded in-memory cache
    /// (the combined "in-memory and persistently" provider of §4.3).
    Tiered {
        /// Storage directory.
        dir: std::path::PathBuf,
        /// Memory-tier budget per provider, in bytes.
        memory_budget: usize,
    },
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
pub struct Deployment {
    fabric: Arc<Fabric>,
    providers: Vec<Provider>,
    provider_ids: Vec<EndpointId>,
    replication: ReplicationPolicy,
    obs: Arc<ObsHub>,
    obs_server: Option<ObsServer>,
    /// Per-op-class resource attribution for deployment-driven work
    /// (`repair` passes, per-model `transfer` legs), exported as
    /// `evostore_ledger_*` under node `deployment`.
    ledger: Arc<OpLedger>,
    /// Span factory for the transfer plane: every `transfer.sync_model`
    /// root carries the negotiation round-trips as child spans.
    tracer: Arc<Tracer>,
    /// The storage policy providers were built with: picks repair's
    /// transfer leg and bounds the post-repair chain compaction pass.
    policy: StorePolicy,
}

/// What one [`Deployment::repair`] pass did.
#[derive(Debug, Default, Clone)]
pub struct RepairReport {
    /// Providers that did not answer the digest broadcast (their
    /// replicas could not be repaired this pass).
    pub unreachable: Vec<EndpointId>,
    /// Records re-replicated onto providers that missed or held stale
    /// copies of them.
    pub models_synced: usize,
    /// Stale records removed because a sibling replica witnessed the
    /// retirement.
    pub retirements_applied: usize,
    /// Tensor reference counts corrected to the authoritative value.
    pub refs_adjusted: usize,
    /// Orphaned tensor payloads reclaimed (only when every provider
    /// contributed a digest).
    pub orphans_removed: usize,
    /// Referenced payloads that could not be installed because no live
    /// replica holds them (data loss beyond the replication factor).
    pub missing_payloads: usize,
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
        let chunked = cfg.store_policy != StorePolicy::Whole;
        // Under chunking, the whole-tensor layer wraps in a
        // content-addressed chunk store; persistent tensor stores switch
        // to the fanned two-level hash-directory layout (chunk keys are
        // content hashes, so fan-out by leading key byte is uniform).
        let wrap = |b: Box<dyn KvBackend>| -> Result<Box<dyn KvBackend>, String> {
            if !chunked {
                return Ok(b);
            }
            let store = ChunkedStore::open(b, DEFAULT_CHUNK_SIZE)
                .map_err(|e| format!("open content-addressed chunk layer: {e}"))?;
            Ok(Box::new(store))
        };
        let open_tensor_log = |dir: &Path, i: usize| -> Result<Box<dyn KvBackend>, String> {
            let tensor_dir = dir.join(format!("provider-{i}/tensors"));
            let err = |e| format!("open provider {i} tensor store: {e}");
            Ok(match chunked {
                false => Box::new(LogStore::open(tensor_dir).map_err(err)?),
                true => Box::new(FannedLogStore::open(tensor_dir).map_err(err)?),
            })
        };
        let open_meta_log = |dir: &Path, i: usize| -> Result<Box<dyn KvBackend>, String> {
            let meta = LogStore::open(dir.join(format!("provider-{i}/meta")))
                .map_err(|e| format!("open provider {i} meta store: {e}"))?;
            Ok(Box::new(meta))
        };
        let mut providers = Vec::with_capacity(cfg.providers);
        for i in 0..cfg.providers {
            let (backend, meta): (Box<dyn KvBackend>, Box<dyn KvBackend>) = match &cfg.backend {
                BackendKind::Memory => (
                    wrap(Box::new(MemPoolStore::new()))?,
                    Box::new(MemPoolStore::new()),
                ),
                BackendKind::Log { dir } => {
                    (wrap(open_tensor_log(dir, i)?)?, open_meta_log(dir, i)?)
                }
                BackendKind::Tiered { dir, memory_budget } => (
                    wrap(Box::new(evostore_kv::TieredStore::new(
                        open_tensor_log(dir, i)?,
                        *memory_budget,
                    )))?,
                    open_meta_log(dir, i)?,
                ),
            };
            providers.push(Provider::spawn(
                Arc::clone(&fabric),
                i,
                cfg.providers,
                cfg.replication,
                Arc::clone(&clock),
                backend,
                meta,
                cfg.service_threads,
                Some(&obs),
                cfg.store_policy,
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
        {
            let l = Arc::clone(&ledger);
            obs.registry().register(move || l.metrics("deployment"));
        }
        // The fork-join pool is process-wide: one series, registered
        // here rather than once per provider.
        obs.registry().register(|| crate::par::stats().rows(&[]));
        // The fabric is shared by every node too: one series for which
        // lane its calls took. A weak handle, so the registry does not
        // keep the endpoints (and the providers their handlers hold) alive.
        let lanes = Arc::downgrade(&fabric);
        obs.registry().register(move || {
            lanes
                .upgrade()
                .map(|f| f.stats().rows(&[]))
                .unwrap_or_default()
        });
        let tracer = Arc::new(Tracer::new(
            "deployment",
            Arc::clone(obs.clock()),
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
    /// provider's catalog from its durable meta store, then rebuild the
    /// tensor reference counts by replaying all owner maps (and attached
    /// optimizer states) across providers and every provider's local
    /// delta links, and finally purge tensors orphaned by a crash.
    pub fn reopen(cfg: DeploymentConfig) -> Result<Deployment, String> {
        if matches!(cfg.backend, BackendKind::Memory) {
            return Err("reopen requires a persistent (Log) backend".into());
        }
        let rep = cfg.replication;
        let dep = Deployment::start(cfg)?;
        let states = dep.provider_states();
        for s in &states {
            s.recover_catalog();
        }
        // Replay references: every owner-map key and optimizer key of
        // every *distinct* model (replicas hold identical records after
        // a clean shutdown, so the union catalog dedups them) increments
        // the count on every provider of the key's replica chain.
        let n = states.len();
        let mut union: HashMap<ModelId, (u64, Vec<TensorKey>)> = HashMap::new();
        for s in &states {
            for (model, ts, map, opt) in s.catalog_entries() {
                match union.get(&model) {
                    Some(&(uts, _)) if uts == ts => {}
                    Some(&(uts, _)) => {
                        return Err(format!(
                            "model {model}: replica timestamps diverge after reopen \
                             ({uts} vs {ts}) — run repair()"
                        ));
                    }
                    None => {
                        let mut keys = map.all_tensor_keys();
                        keys.extend(opt);
                        union.insert(model, (ts, keys));
                    }
                }
            }
        }
        for (_, keys) in union.values() {
            for key in keys {
                for host in rep.replicas(key.owner, n) {
                    states[host].replay_ref(*key)?;
                }
            }
        }
        // Plus one reference per local delta → base link.
        for s in &states {
            for (_, base) in s.delta_links()? {
                s.replay_ref(base)?;
            }
            s.purge_orphan_tensors()
                .map_err(|e| format!("purge orphans: {e}"))?;
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

    /// Per-provider chunk-occupancy counters, in provider-index order
    /// (`None` on providers whose tensor store is not content-addressed).
    pub fn chunk_stats(&self) -> Vec<Option<ChunkStats>> {
        self.providers
            .iter()
            .map(|p| p.state.chunk_stats())
            .collect()
    }

    /// Maintenance re-base pass: on every provider, rewrite delta
    /// records whose chain depth exceeds `max_depth` back to raw bytes,
    /// bounding reconstruction cost after deep derivation chains
    /// accumulate. Returns how many records were rewritten. Like
    /// [`Deployment::repair`], run it against a quiescent deployment.
    pub fn compact_deltas(&self, max_depth: u8) -> Result<usize, String> {
        let mut rewritten = 0;
        for p in &self.providers {
            rewritten += p.state.rebase_deltas(max_depth)?;
        }
        Ok(rewritten)
    }

    /// One unified metrics snapshot for the whole deployment: the hub
    /// registry (clients built via [`Deployment::client_builder`]
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

    /// Merge every flight recorder (fabric, providers, clients) into one
    /// time-ordered postmortem dump. Degraded answers and failovers are
    /// annotated with the fault window of the endpoints involved (down
    /// since when, per the fabric's down/up transitions), so each
    /// degraded line alone names the provider and fault responsible.
    pub fn flight_dump(&self) -> String {
        render_flight_dump(&self.obs, &self.provider_ids)
    }

    /// Cross-provider garbage-collection audit. Replication-aware: the
    /// catalogs are deduplicated into a union (replicas of a record must
    /// agree on its timestamp and optimizer state), every referenced
    /// tensor must be hosted on *every* member of its owner's replica
    /// chain, and nothing may be hosted off-chain or unreferenced. A count
    /// is the union models referencing the key plus the local deltas
    /// encoded against it (replicas may differ), and every delta's base
    /// must be hosted beside it.
    pub fn gc_audit(&self) -> Result<(), String> {
        let n = self.providers.len();
        let rep = self.replication;
        // Union catalog; replicas must agree.
        let mut union: HashMap<ModelId, (u64, Vec<TensorKey>, Vec<TensorKey>)> = HashMap::new();
        let mut held: Vec<HashSet<ModelId>> = vec![HashSet::new(); n];
        for (i, p) in self.providers.iter().enumerate() {
            for (model, ts, map, opt) in p.state.catalog_entries() {
                held[i].insert(model);
                match union.get(&model) {
                    Some((uts, _, uopt)) => {
                        if *uts != ts {
                            return Err(format!(
                                "model {model}: replica timestamps diverge ({uts} vs {ts} on \
                                 provider {i}) — run repair()"
                            ));
                        }
                        if *uopt != opt {
                            return Err(format!(
                                "model {model}: replica optimizer states diverge on provider {i} \
                                 — run repair()"
                            ));
                        }
                    }
                    None => {
                        union.insert(model, (ts, map.all_tensor_keys(), opt));
                    }
                }
            }
        }
        // Every record must be present on its full chain.
        for &model in union.keys() {
            for idx in rep.replicas(model, n) {
                if !held[idx].contains(&model) {
                    return Err(format!(
                        "model {model} missing on replica provider {idx} — run repair()"
                    ));
                }
            }
        }
        // Union models referencing each key (the same on every replica).
        let mut expected: HashMap<TensorKey, u64> = HashMap::new();
        for (_, ref_keys, opt_keys) in union.values() {
            for key in ref_keys.iter().chain(opt_keys) {
                *expected.entry(*key).or_default() += 1;
            }
        }
        for (i, p) in self.providers.iter().enumerate() {
            p.state.audit_tensors()?;
            let hosted: HashSet<TensorKey> = p.state.hosted_tensor_keys().into_iter().collect();
            let mut dependents: HashMap<TensorKey, u64> = HashMap::new();
            for (delta, base) in p.state.delta_links()? {
                if !hosted.contains(&base) {
                    return Err(format!(
                        "delta {delta} on provider {i} is encoded against {base}, which is \
                         not hosted there"
                    ));
                }
                *dependents.entry(base).or_default() += 1;
            }
            for &key in expected.keys() {
                if rep.is_replica(key.owner, n, i) && !hosted.contains(&key) {
                    return Err(format!(
                        "tensor {key} missing on replica provider {i} — run repair()"
                    ));
                }
            }
            for key in hosted {
                let models = expected.get(&key).copied().unwrap_or(0);
                let deltas = dependents.get(&key).copied().unwrap_or(0);
                if models + deltas == 0 {
                    return Err(format!(
                        "tensor {key} hosted on provider {i} but referenced by no model \
                         and no delta"
                    ));
                }
                let refs = p.state.tensor_refs(key);
                if refs != models + deltas {
                    return Err(format!(
                        "tensor {key} on provider {i}: refcount {refs}, but {models} models \
                         and {deltas} local deltas reference it"
                    ));
                }
                if !rep.is_replica(key.owner, n, i) {
                    return Err(format!(
                        "tensor {key} hosted off its replica chain on provider {i}"
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- anti-entropy repair ---------------------------------------------

    /// One anti-entropy pass over every reachable provider: exchange
    /// digests, converge each replica chain on the newest incarnation of
    /// every record, propagate witnessed retirements (fencing their
    /// parked decrements), install authoritative reference counts, and —
    /// when every provider contributed a digest — reclaim orphaned
    /// payloads.
    ///
    /// An administrative pass: run it against a quiescent deployment
    /// (no concurrent stores/retires), typically after a failed provider
    /// comes back. Idempotent — a second pass on a healthy deployment
    /// reports zero work.
    pub fn repair(&self) -> Result<RepairReport, String> {
        let start_us = self.obs.clock().now_us();
        let costs = OpCosts::new();
        let out = {
            let _costs = install_costs(Some(Arc::clone(&costs)));
            self.repair_inner()
        };
        let latency_us = self.obs.clock().now_us().saturating_sub(start_us);
        self.obs.slo().record("repair", latency_us, out.is_ok());
        self.ledger.finish_op("repair", out.is_ok(), &costs);
        // Post-repair maintenance: the chunk leg re-installs delta
        // chains at their stored depth, so re-base anything a lowered
        // bound left beyond the cap. Idempotent — a healthy deployment
        // re-bases nothing.
        if let (true, Some(depth)) = (out.is_ok(), self.policy.max_chain_depth()) {
            self.compact_deltas(depth)
                .map_err(|e| format!("post-repair delta compaction: {e}"))?;
        }
        out
    }

    fn repair_inner(&self) -> Result<RepairReport, String> {
        let retry = RetryPolicy::default().with_timeout(Duration::from_secs(30));
        let n = self.provider_ids.len();
        let rep = self.replication;
        let mut report = RepairReport::default();

        // 1. Digest every provider; remember who is unreachable.
        let legs = evostore_rpc::broadcast(
            &self.fabric,
            &self.provider_ids,
            methods::Digest,
            &DigestRequest {},
            &retry,
            None,
            None,
        )
        .map_err(|e| format!("digest broadcast: {e}"))?;
        let mut digests: HashMap<usize, DigestReply> = HashMap::new();
        for (ep, leg) in legs {
            match leg {
                Ok(d) => {
                    digests.insert(d.provider_index, d);
                }
                Err(e) if e.is_transient() => report.unreachable.push(ep),
                Err(e) => return Err(format!("digest from {ep}: {e}")),
            }
        }
        if digests.is_empty() {
            return Err("no provider answered the digest broadcast".into());
        }

        // 2. Merge retirements: newest tombstone per model wins.
        let mut tombstones: HashMap<ModelId, Tombstone> = HashMap::new();
        for d in digests.values() {
            for t in &d.tombstones {
                let e = tombstones.entry(t.model).or_insert(*t);
                if (t.record_timestamp, t.retired_at) > (e.record_timestamp, e.retired_at) {
                    *e = *t;
                }
            }
        }

        // 3. Union catalog: newest incarnation of every record wins
        // (optimizer attachment breaks equal-timestamp ties), remembering
        // a live replica to copy payloads from; drop retired incarnations.
        struct UnionEntry {
            timestamp: u64,
            ref_keys: Vec<TensorKey>,
            optimizer_keys: Vec<TensorKey>,
            source: usize,
        }
        let mut union: HashMap<ModelId, UnionEntry> = HashMap::new();
        for (&idx, d) in &digests {
            for m in &d.models {
                let better = match union.get(&m.model) {
                    None => true,
                    Some(u) => {
                        m.timestamp > u.timestamp
                            || (m.timestamp == u.timestamp
                                && m.optimizer_keys.len() > u.optimizer_keys.len())
                    }
                };
                if better {
                    union.insert(
                        m.model,
                        UnionEntry {
                            timestamp: m.timestamp,
                            ref_keys: m.ref_keys.clone(),
                            optimizer_keys: m.optimizer_keys.clone(),
                            source: idx,
                        },
                    );
                }
            }
        }
        union.retain(|model, u| {
            tombstones
                .get(model)
                .map(|t| u.timestamp > t.record_timestamp)
                .unwrap_or(true)
        });

        // 4. Authoritative global reference counts over live records.
        let mut expected: HashMap<TensorKey, u64> = HashMap::new();
        for u in union.values() {
            for key in u.ref_keys.iter().chain(&u.optimizer_keys) {
                *expected.entry(*key).or_default() += 1;
            }
        }

        let tomb_list: Vec<Tombstone> = tombstones.values().copied().collect();
        // Orphan pruning is only safe with a complete digest: with a
        // provider missing, a key could look orphaned merely because
        // every record referencing it lives on the unreachable provider.
        let full_coverage = report.unreachable.is_empty();

        // 5. Converge each live provider.
        let mut indices: Vec<usize> = digests.keys().copied().collect();
        indices.sort_unstable();
        for idx in indices {
            let ep = self.provider_ids[idx];
            let digest = &digests[&idx];

            // 5a. Propagate retirements first (removes stale records and
            // fences their parked decrement legs).
            if !tomb_list.is_empty() {
                let reply = evostore_rpc::unary(
                    &self.fabric,
                    ep,
                    methods::SyncRetire,
                    &SyncRetireRequest {
                        tombstones: tomb_list.clone(),
                    },
                    &retry,
                    None,
                    None,
                )
                .map_err(|e| format!("sync_retire on provider {idx}: {e}"))?;
                report.retirements_applied += reply.removed;
            }

            // 5b. Re-replicate records this provider should hold but
            // missed (or holds stale).
            let local: HashMap<ModelId, (u64, usize)> = digest
                .models
                .iter()
                .map(|m| (m.model, (m.timestamp, m.optimizer_keys.len())))
                .collect();
            let mut to_sync: Vec<&ModelId> = union.keys().collect();
            to_sync.sort_unstable();
            for &model in to_sync {
                let u = &union[&model];
                if u.source == idx || !rep.replicas(model, n).contains(&idx) {
                    continue;
                }
                let stale = match local.get(&model) {
                    None => true,
                    Some(&(ts, opt)) => {
                        ts < u.timestamp || (ts == u.timestamp && opt < u.optimizer_keys.len())
                    }
                };
                if !stale {
                    continue;
                }
                match self.sync_model_to(model, &u.optimizer_keys, u.source, idx, &retry)? {
                    true => report.models_synced += 1,
                    false => report.missing_payloads += 1,
                }
            }

            // 5c. Install authoritative counts for every key placed here;
            // reclaim orphans when the digest was complete.
            let mut entries: Vec<(TensorKey, u64)> = expected
                .iter()
                .filter(|(key, _)| rep.is_replica(key.owner, n, idx))
                .map(|(&key, &count)| (key, count))
                .collect();
            entries.sort_unstable_by_key(|(key, _)| *key);
            let reply = evostore_rpc::unary(
                &self.fabric,
                ep,
                methods::SyncRefs,
                &SyncRefsRequest {
                    entries,
                    prune_unlisted: full_coverage,
                },
                &retry,
                None,
                None,
            )
            .map_err(|e| format!("sync_refs on provider {idx}: {e}"))?;
            report.refs_adjusted += reply.adjusted;
            report.orphans_removed += reply.removed;
            report.missing_payloads += reply.missing;
        }
        Ok(report)
    }

    /// Copy one record (metadata + the payloads its chain hosts) from
    /// provider `source` to provider `target`. Returns `Ok(false)` when
    /// the source no longer serves the payloads (lost beyond the
    /// replication factor).
    ///
    /// The deployment's [`StorePolicy`] picks the leg. Whole records ship
    /// materialized over `SYNC_MODEL`. The chunked substrate negotiates:
    /// it asks the source how the stored bytes decompose
    /// (`TRANSFER_MANIFEST`), probes the target's possession set
    /// (`HAVE_CHUNKS`), and ships only the missing chunks (`READ_CHUNKS`
    /// → `SYNC_CHUNKS`), deltas as stored; a delta base missing on the
    /// target, or a failed leg, falls back to the materialized
    /// `SYNC_MODEL`, which is the correctness backstop.
    ///
    /// The whole leg is accounted as one `transfer` op in the
    /// deployment ledger and as a `transfer.sync_model` span tree whose
    /// children are the negotiation round-trips.
    fn sync_model_to(
        &self,
        model: ModelId,
        optimizer_keys: &[TensorKey],
        source: usize,
        target: usize,
        retry: &RetryPolicy,
    ) -> Result<bool, String> {
        let costs = OpCosts::new();
        let mut root = self.tracer.start_root("transfer.sync_model");
        let out = {
            let _costs = install_costs(Some(Arc::clone(&costs)));
            Transfer {
                fabric: &self.fabric,
                model,
                source,
                target,
                src: self.provider_ids[source],
                dst: self.provider_ids[target],
                chunked: self.policy != StorePolicy::Whole,
                retry,
                trace: TraceHandle::new(&self.tracer, root.ctx()),
            }
            .run(optimizer_keys)
        };
        self.ledger.finish_op("transfer", out.is_ok(), &costs);
        // Credit the same movement to the enclosing repair op (the
        // transfer cell replaced the repair cell while installed).
        let s = costs.snapshot();
        evostore_obs::ledger::add_bytes_in(s.bytes_in);
        evostore_obs::ledger::add_bytes_out(s.bytes_out);
        evostore_obs::ledger::add_chunks_touched(s.chunks_touched);
        if let Err(e) = &out {
            root.fail(e.to_string());
        }
        root.finish();
        out
    }
}

/// One model's re-replication from provider `source` to provider
/// `target`: what every leg of the transfer shares.
struct Transfer<'a> {
    fabric: &'a Fabric,
    model: ModelId,
    source: usize,
    target: usize,
    src: EndpointId,
    dst: EndpointId,
    /// The deployment stores chunks and deltas: negotiate before falling
    /// back to materialized records.
    chunked: bool,
    retry: &'a RetryPolicy,
    /// Attempt spans of every leg hang under the transfer's root span.
    trace: TraceHandle<'a>,
}

impl Transfer<'_> {
    /// One round-trip of the transfer, retried per its policy.
    fn call<M: Method>(
        &self,
        to: EndpointId,
        method: M,
        req: &M::Request,
    ) -> Result<M::Reply, RpcError> {
        evostore_rpc::unary(
            self.fabric,
            to,
            method,
            req,
            self.retry,
            None,
            Some(&self.trace),
        )
    }

    fn run(&self, optimizer_keys: &[TensorKey]) -> Result<bool, String> {
        let (model, source) = (self.model, self.source);
        let meta = self
            .call(self.src, methods::GetMeta, &GetMetaRequest { model })
            .map_err(|e| format!("get_meta({model}) from provider {source}: {e}"))?;
        // Ship only what the target's replica role needs: the model's
        // self-owned tensors plus its optimizer copy. Inherited keys
        // belong to their owners' chains and are synced with those
        // records.
        let mut keys: Vec<TensorKey> = meta
            .owner_map
            .all_tensor_keys()
            .into_iter()
            .filter(|k| k.owner == model)
            .collect();
        keys.extend_from_slice(optimizer_keys);
        // Anything short of a completed negotiation — declined (missing
        // delta base) or failed mid-flight — falls through to the
        // materialized backstop.
        if self.chunked {
            if let Some(done) = self.negotiated(&meta, &keys) {
                return Ok(done);
            }
        }
        self.records(&meta, &keys)
    }

    /// The chunked substrate's path. `None` means negotiation declined
    /// or a leg of it failed, and the caller should ship materialized
    /// payloads.
    fn negotiated(&self, meta: &ModelMetaReply, keys: &[TensorKey]) -> Option<bool> {
        // 1. How do the source's stored records decompose?
        let request = TransferManifestRequest {
            keys: keys.to_vec(),
        };
        let manifest = self
            .call(self.src, methods::TransferManifest, &request)
            .ok()?;
        // Union of the chunk hashes to probe (dedup, source order) and
        // the delta bases that must already sit on the target (bases
        // riding along in this shipment fence themselves).
        let shipped: HashSet<TensorKey> = keys.iter().copied().collect();
        let mut hashes: Vec<[u8; 16]> = Vec::new();
        let mut seen: HashSet<[u8; 16]> = HashSet::new();
        for r in &manifest.records {
            for h in &r.hashes {
                if seen.insert(*h) {
                    hashes.push(*h);
                }
            }
        }
        let mut base_keys: Vec<TensorKey> = manifest
            .records
            .iter()
            .filter_map(|r| r.delta_base)
            .filter(|b| !shipped.contains(b))
            .collect();
        base_keys.sort_unstable();
        base_keys.dedup();
        // 2. Probe the receiver's possession set.
        let probe = HaveChunksRequest {
            hashes: hashes.clone(),
            keys: base_keys,
        };
        let have = self.call(self.dst, methods::HaveChunks, &probe).ok()?;
        // Every delta base must be on the target (or in this shipment),
        // or shipping the delta as stored would strand the chain.
        if have.have_records.iter().any(|ok| !ok) {
            return None;
        }
        self.chunks(meta, &manifest, &hashes, &have)
    }

    /// Chunk-negotiated leg: pull only the chunks the target reported
    /// missing from the source and install the records manifest-level —
    /// no tensor is materialized on either side.
    fn chunks(
        &self,
        meta: &ModelMetaReply,
        manifest: &TransferManifestReply,
        hashes: &[[u8; 16]],
        have: &HaveChunksReply,
    ) -> Option<bool> {
        let missing: Vec<[u8; 16]> = hashes
            .iter()
            .zip(&have.have_chunks)
            .filter(|(_, held)| !**held)
            .map(|(h, _)| *h)
            .collect();
        let (lens, segments) = if missing.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let request = ReadChunksRequest {
                hashes: missing.clone(),
            };
            let read = self.call(self.src, methods::ReadChunks, &request).ok()?;
            let region = self.fabric.bulk_take(BulkHandle(read.bulk)).ok()?;
            // A source that answers with other chunks than the ones asked
            // for is caught here, not on the target.
            let chunks = pushed_chunks(&missing, &read.lens, &region).ok()?;
            evostore_obs::ledger::add_bytes_in(region.len() as u64);
            evostore_obs::ledger::add_chunks_touched(chunks.len() as u64);
            (read.lens, chunks)
        };
        let moved: u64 = lens.iter().sum();
        let out = self.fabric.bulk_expose_vec(segments);
        let result = self.call(
            self.dst,
            methods::SyncChunks,
            &SyncChunksRequest {
                model: self.model,
                graph: meta.graph.clone(),
                owner_map: meta.owner_map.clone(),
                parent: meta.parent,
                quality: meta.quality,
                timestamp: meta.timestamp,
                records: manifest.records.clone(),
                pushed: missing,
                lens,
                bulk: out.0,
            },
        );
        self.fabric.bulk_release(out);
        // A rejected manifest (e.g. a chunk the target claimed got
        // reclaimed concurrently) is left to the materialized backstop.
        result.ok()?;
        evostore_obs::ledger::add_bytes_out(moved);
        Some(true)
    }

    /// Materialized leg: read the records from the source and relay them
    /// to the target over `SYNC_MODEL` — the pulled rope is re-exposed as
    /// it is, so the manifest carries over unchanged and no byte is
    /// copied in between. The source materializes every record, which is
    /// correct on either substrate at O(model bytes) cost. `Ok(false)`:
    /// the source catalogs the record but lost its payloads.
    fn records(&self, meta: &ModelMetaReply, keys: &[TensorKey]) -> Result<bool, String> {
        let (model, source, target) = (self.model, self.source, self.target);
        let request = ReadTensorsRequest {
            keys: keys.to_vec(),
        };
        let read = match self.call(self.src, methods::Read, &request) {
            Ok(r) => r,
            // Lost payloads (e.g. a crash between legs) are reported, not
            // failed on.
            Err(e) if !e.is_transient() => return Ok(false),
            Err(e) => return Err(format!("read payloads of {model} from {source}: {e}")),
        };
        let region = self
            .fabric
            .bulk_take(BulkHandle(read.bulk))
            .map_err(|e| format!("bulk pull for {model}: {e}"))?;
        evostore_obs::ledger::add_bytes_in(region.len() as u64);
        evostore_obs::ledger::add_chunks_touched(read.manifest.len() as u64);
        let out = self.fabric.bulk_expose_vec(region.segments().to_vec());
        let result = self.call(
            self.dst,
            methods::SyncModel,
            &SyncModelRequest {
                model,
                graph: meta.graph.clone(),
                owner_map: meta.owner_map.clone(),
                parent: meta.parent,
                quality: meta.quality,
                timestamp: meta.timestamp,
                manifest: read.manifest,
                bulk: out.0,
            },
        );
        self.fabric.bulk_release(out);
        result.map_err(|e| format!("sync_model({model}) to provider {target}: {e}"))?;
        evostore_obs::ledger::add_bytes_out(region.len() as u64);
        Ok(true)
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

/// Merge every flight recorder (fabric, providers, clients) into one
/// time-ordered postmortem dump. Degraded answers and failovers are
/// annotated with the fault window of the endpoints involved (down
/// since when, per the fabric's down/up transitions), so each degraded
/// line alone names the provider and fault responsible.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ReadChunksReply;
    use bytes::Bytes;
    use evostore_obs::FlightRecorder;

    /// Regression: the chunk-negotiated leg returned through `?` ahead of
    /// its `bulk_release` when the source's `lens` overran the region it
    /// exposed, leaving that region — and the chunk buffers it pins —
    /// registered for good. A stand-in source lies about `lens`.
    #[test]
    fn a_lying_read_chunks_reply_leaks_no_region() {
        let fabric = Fabric::new();
        let source = fabric.create_endpoint(1);
        let chunk = Bytes::from_static(b"eight by");
        let hash = evostore_tensor::ContentHash::of_bytes(&chunk).to_bytes();
        {
            let (fabric, chunk) = (Arc::clone(&fabric), chunk.clone());
            source.serve(methods::ReadChunks, move |_| {
                Ok(ReadChunksReply {
                    lens: vec![chunk.len() as u64 + 8],
                    bulk: fabric.bulk_expose_vec(vec![chunk.clone()]).0,
                })
            });
        }
        let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
        let ring = Arc::new(FlightRecorder::new("repair", 16, Arc::clone(&wall)));
        let tracer = Tracer::new("repair", wall, ring);
        let root = tracer.start_root("transfer.sync_model");
        let retry = RetryPolicy::no_retry();
        let transfer = Transfer {
            fabric: &fabric,
            model: ModelId(1),
            source: 0,
            target: 1,
            src: source.id(),
            dst: EndpointId(u32::MAX),
            chunked: true,
            retry: &retry,
            trace: TraceHandle::new(&tracer, root.ctx()),
        };
        let mut arch = evostore_graph::Architecture::new("one-layer");
        arch.add_layer(evostore_graph::LayerConfig::new(
            "in",
            evostore_graph::LayerKind::Input { shape: vec![1] },
        ));
        let g = evostore_graph::flatten(&arch).unwrap();
        let meta = ModelMetaReply {
            owner_map: crate::owner_map::OwnerMap::fresh(ModelId(1), &g),
            graph: g,
            parent: None,
            quality: 0.0,
            timestamp: 1,
        };
        let manifest = TransferManifestReply {
            records: Vec::new(),
        };
        let have = HaveChunksReply {
            have_chunks: vec![false],
            have_records: Vec::new(),
        };
        let baseline = fabric.bulk_regions();
        assert_eq!(transfer.chunks(&meta, &manifest, &[hash], &have), None);
        assert_eq!(fabric.bulk_regions(), baseline);
    }
}
