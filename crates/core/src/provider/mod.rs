//! EvoStore providers.
//!
//! A provider is simultaneously a *data* node (reference-counted tensor
//! store) and a *metadata* node (catalog of model records: compact graph,
//! owner map, lineage link, quality, write timestamp) — §4.1's coupled
//! data/metadata design. Providers serve:
//!
//! * consolidated model stores (one bulk pull per store request);
//! * fine-grained tensor reads (one bulk expose per read request);
//! * reference-count adjustments (the distributed-GC primitive);
//! * provider-side LCP scans over the local catalog, executed in parallel
//!   (the map step of the broadcast/reduce metadata query).
//!
//! This module holds the shared state, the catalog and its published
//! snapshot, and [`Provider::spawn`]; the handlers live beside it, one
//! module per seam: `catalog`, `data`, `refs`, `delta`, `transfer`,
//! `stats`, over the tensor store `substrate` defines. Handlers are
//! reachable only through the method table ([`crate::methods`]) they are
//! registered under.

mod catalog;
mod data;
mod delta;
mod refs;
mod stats;
mod substrate;
mod transfer;
mod write_set;

pub use stats::{index_query_rows, kv_rows};
pub use substrate::Substrate;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use evostore_graph::{ArchIndex, CompactGraph, IndexQueryStats, SnapshotCell};
use evostore_kv::{KvBackend, RefCountedStore};
use evostore_obs::ledger::install_costs;
use evostore_obs::{current_trace, FlightRecorder, ObsHub, OpCosts, OpLedger, Span, Tracer};
use evostore_rpc::{Endpoint, EndpointId, Fabric, Method, SegmentedRegion};
use evostore_tensor::{ModelId, TensorKey};
use parking_lot::{Mutex, RwLock};

use evostore_deliver::{SubscribeReply, SubscribeRequest, UnsubscribeReply, UnsubscribeRequest};

use crate::delivery::{CatalogChange, DeliveryHub};
use crate::messages::{GetMetaRequest, ProviderCounters, Tombstone};
use crate::methods;
use crate::owner_map::OwnerMap;
use crate::replication::ReplicationPolicy;

/// Flight-recorder ring capacity per provider (recent events kept for a
/// postmortem dump; older ones are evicted and counted).
pub const PROVIDER_FLIGHT_EVENTS: usize = 1024;

/// Catalog entry for one stored model.
#[derive(Clone)]
pub struct ModelRecord {
    /// Flattened architecture (shared, read-only).
    pub graph: Arc<CompactGraph>,
    /// Ownership of every vertex.
    pub owner_map: OwnerMap,
    /// Direct transfer-learning ancestor.
    pub parent: Option<ModelId>,
    /// Quality metric.
    pub quality: f64,
    /// Global write-order stamp.
    pub timestamp: u64,
    /// Keys of attached optimizer-state tensors (model-private).
    pub optimizer_keys: Vec<TensorKey>,
    /// This incarnation's encoded `GET_META` reply, built on the first
    /// fetch. A re-store or sync installs a new record, so the cache
    /// never outlives the incarnation it encodes; an optimizer attach
    /// keeps it, since the reply names no optimizer keys.
    meta_reply: OnceLock<Bytes>,
}

/// The provider's model catalog: the record map plus the incrementally
/// maintained [`ArchIndex`] over it, always mutated together under one
/// lock so index membership exactly mirrors the records.
///
/// This is the *writer-side* authoritative state. Read handlers never
/// touch it: every mutation ends by publishing an immutable
/// [`CatalogSnapshot`] ([`ProviderState::mutate_catalog`]), and the read
/// path pins that snapshot without taking the catalog lock.
#[derive(Default)]
struct Catalog {
    records: HashMap<ModelId, Arc<ModelRecord>>,
    index: ArchIndex,
    /// Publication counter: bumped once per mutation, stamped on the
    /// snapshot it produces (strictly monotone across publications).
    version: u64,
    /// Change log of the in-progress mutation, drained at publication
    /// and handed to the delivery hub for subscription matching.
    changes: Vec<CatalogChange>,
}

impl Catalog {
    fn insert(&mut self, model: ModelId, rec: ModelRecord) {
        self.index
            .insert(model, Arc::clone(&rec.graph), rec.quality);
        self.records.insert(model, Arc::new(rec));
        self.changes.push(CatalogChange::Stored { model });
    }

    fn remove(&mut self, model: ModelId) -> Option<Arc<ModelRecord>> {
        let rec = self.records.remove(&model)?;
        self.index.remove(model);
        self.changes.push(CatalogChange::Retired {
            model,
            parent: rec.parent,
            graph: Arc::clone(&rec.graph),
            quality: rec.quality,
            timestamp: rec.timestamp,
        });
        Some(rec)
    }

    /// Freeze the current state into an immutable snapshot. Cheap:
    /// records are shared `Arc`s and [`ArchIndex::clone`] is
    /// copy-on-write (pointer bumps per bucket and posting shard).
    fn snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::new(CatalogSnapshot {
            records: self.records.clone(),
            index: self.index.clone(),
            version: self.version,
        })
    }
}

/// An immutable view of one provider's catalog, published atomically
/// after every mutation and pinned (one `Arc` clone) by every read handler. A
/// reader always observes records and index from the *same* publication
/// — never a half-applied store or retire.
#[derive(Default)]
pub struct CatalogSnapshot {
    records: HashMap<ModelId, Arc<ModelRecord>>,
    index: ArchIndex,
    version: u64,
}

impl CatalogSnapshot {
    /// Publication counter of the mutation that produced this snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Cataloged models in this snapshot.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// One model's record.
    pub fn get(&self, model: ModelId) -> Option<&Arc<ModelRecord>> {
        self.records.get(&model)
    }

    /// Every `(model, record)` in the snapshot.
    pub fn records(&self) -> impl Iterator<Item = (ModelId, &Arc<ModelRecord>)> {
        self.records.iter().map(|(&m, r)| (m, r))
    }

    /// The architecture index frozen with the records.
    pub fn index(&self) -> &ArchIndex {
        &self.index
    }

    /// Assert the snapshot is internally coherent: index membership
    /// mirrors the record map exactly, and inside the index postings
    /// mirror buckets. A violation means a reader observed a
    /// half-applied mutation — exactly what the atomic publication
    /// protocol forbids.
    pub fn verify_coherent(&self) -> Result<(), String> {
        if self.records.len() != self.index.len() {
            return Err(format!(
                "snapshot v{}: {} records but {} indexed models",
                self.version,
                self.records.len(),
                self.index.len()
            ));
        }
        for &model in self.records.keys() {
            if !self.index.contains(model) {
                return Err(format!(
                    "snapshot v{}: record {model} missing from the index",
                    self.version
                ));
            }
        }
        let distinct: std::collections::HashSet<_> = self
            .records
            .values()
            .map(|r| r.graph.arch_signature())
            .collect();
        if distinct.len() != self.index.distinct_architectures() {
            return Err(format!(
                "snapshot v{}: {} distinct archs in records, {} in index",
                self.version,
                distinct.len(),
                self.index.distinct_architectures()
            ));
        }
        self.index
            .verify()
            .map_err(|e| format!("snapshot v{}: index: {e}", self.version))
    }
}

/// Lock-free cumulative index-query counters (one field per
/// [`IndexQueryStats`] member): handlers bump plain atomics instead of
/// taking a mutex just to add statistics.
#[derive(Default)]
struct AtomicQueryStats {
    candidates: AtomicU64,
    scanned: AtomicU64,
    memo_hits: AtomicU64,
    deduped: AtomicU64,
    pruned: AtomicU64,
    prefiltered: AtomicU64,
    answered: AtomicU64,
}

impl AtomicQueryStats {
    fn note(&self, s: IndexQueryStats) {
        self.candidates.fetch_add(s.candidates, Ordering::Relaxed);
        self.scanned.fetch_add(s.scanned, Ordering::Relaxed);
        self.memo_hits.fetch_add(s.memo_hits, Ordering::Relaxed);
        self.deduped.fetch_add(s.deduped, Ordering::Relaxed);
        self.pruned.fetch_add(s.pruned, Ordering::Relaxed);
        self.prefiltered.fetch_add(s.prefiltered, Ordering::Relaxed);
        self.answered.fetch_add(s.answered, Ordering::Relaxed);
    }

    fn load(&self) -> IndexQueryStats {
        IndexQueryStats {
            candidates: self.candidates.load(Ordering::Relaxed),
            scanned: self.scanned.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            prefiltered: self.prefiltered.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
        }
    }
}

/// Shared state of one provider.
pub struct ProviderState {
    fabric: Arc<Fabric>,
    /// This provider's index within the deployment.
    pub index: usize,
    /// Total providers in the deployment (placement function input).
    pub num_providers: usize,
    /// Replica placement rule (shared by every provider and client of
    /// the deployment).
    pub replication: ReplicationPolicy,
    /// The tensor store; [`Substrate::chunked`] is the one answer to
    /// "are records content-addressed here?".
    tensors: RefCountedStore<Substrate>,
    catalog: RwLock<Catalog>,
    /// The published immutable catalog view. Writers rebuild and swap it
    /// while still holding the catalog write lock, so publication order
    /// equals mutation order; read handlers pin it without that lock.
    snapshot: SnapshotCell<CatalogSnapshot>,
    /// Durable catalog records (separate namespace from tensors).
    meta_store: Box<dyn KvBackend>,
    /// Deployment-wide write-ordering clock.
    clock: Arc<AtomicU64>,
    /// Applied refs operations, for duplicate suppression under retries.
    refs_ops: Mutex<refs::RefsOpCache>,
    /// Retirements witnessed here (anti-entropy): lets a digest exchange
    /// distinguish "this replica missed a store" from "the others missed
    /// a retirement" when catalogs diverge after a fault window.
    tombstones: Mutex<HashMap<ModelId, Tombstone>>,
    /// Serve ancestor/pattern queries through the [`ArchIndex`] (the
    /// default) or by the unindexed full-catalog scan (A/B measurement;
    /// the index stays maintained either way).
    index_enabled: AtomicBool,
    /// Cumulative per-query index statistics (LCP and pattern scans),
    /// bumped lock-free by every query handler.
    query_stats: AtomicQueryStats,
    /// Every other counter the handlers bump — the `atomic` lines of
    /// the [`ProviderStats`](crate::messages::ProviderStats) table.
    counters: ProviderCounters,
    /// Span factory for this provider; its flight recorder is the
    /// provider's postmortem ring.
    tracer: Tracer,
    /// This provider's fabric address (stamped on handler spans).
    endpoint_id: u32,
    /// Held by the release path (`refs`) and the refs sync, so no count
    /// falls between the release path's peek at a record and its
    /// decrement.
    drops: Mutex<()>,
    /// Subscription matching and event delivery for this provider's
    /// catalog publications (the delivery plane).
    delivery: Arc<DeliveryHub>,
    /// Per-method resource attribution for traced handler invocations.
    ledger: Arc<OpLedger>,
}

impl ProviderState {
    /// Does `model`'s metadata (and its self-owned tensors) belong on
    /// this provider? True for the primary and every ring successor in
    /// the replica chain.
    fn places_here(&self, model: ModelId) -> bool {
        self.replication
            .is_replica(model, self.num_providers, self.index)
    }

    /// `model`'s record in the writer-side catalog, if one is here.
    fn local_record(&self, model: ModelId) -> Option<Arc<ModelRecord>> {
        self.catalog.read().records.get(&model).cloned()
    }

    /// [`ProviderState::places_here`] as the refusal a write answers.
    fn refuse_unplaced(&self, model: ModelId) -> Result<(), String> {
        match self.places_here(model) {
            true => Ok(()),
            false => Err(format!(
                "model {model} does not place on provider {}",
                self.index
            )),
        }
    }

    /// Pin the current published catalog snapshot (what every read
    /// handler serves from).
    pub fn catalog_snapshot(&self) -> Arc<CatalogSnapshot> {
        self.counters.snapshot_reads.add(1);
        self.snapshot.load()
    }

    /// Run `f` under a handler span joined to the caller's trace. The
    /// fabric installs the RPC envelope's [`TraceContext`] ambiently
    /// before invoking the handler (on a service thread, or on the caller
    /// for a caller-lane read); when present, the handler
    /// hop becomes a child span in the caller's trace (recorded in this
    /// provider's flight ring) and is re-installed ambiently so kv-op
    /// spans opened inside `f` nest under it. Untraced calls run `f`
    /// bare.
    ///
    /// [`TraceContext`]: evostore_obs::TraceContext
    fn traced<T>(
        &self,
        method: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let Some(parent) = current_trace() else {
            return f();
        };
        let mut span = self
            .tracer
            .start_child(parent, method, Some(self.endpoint_id));
        // The fabric runs every handler with no ambient cost cell — a
        // caller-lane one too — so this fresh cell never shadows a client
        // op's; charges land in this provider's per-method ledger.
        let costs = OpCosts::new();
        let out = {
            let _g = evostore_obs::set_current_trace(Some(span.ctx()));
            let _c = install_costs(Some(Arc::clone(&costs)));
            f()
        };
        self.ledger.finish_op(method, out.is_ok(), &costs);
        if let Err(e) = &out {
            span.fail(e.clone());
        }
        span.finish();
        out
    }

    /// Per-method handler resource attribution (tests, diagnostics).
    pub fn ledger(&self) -> &Arc<OpLedger> {
        &self.ledger
    }

    /// Pull a write's bulk region (one one-sided read of the caller's) and
    /// charge what moved in to the handler's op.
    fn pull(&self, bulk: u64) -> Result<SegmentedRegion, String> {
        let region = self.fabric.bulk_get_vec(evostore_rpc::BulkHandle(bulk));
        let region = region.map_err(|e| format!("bulk pull failed: {e}"))?;
        evostore_obs::ledger::add_bytes_in(region.len() as u64);
        Ok(region)
    }

    /// A child span for a kv-store operation inside a traced handler
    /// (`None` when the request carried no trace context).
    fn kv_span(&self, name: &'static str) -> Option<Span<'_>> {
        current_trace().map(|parent| self.tracer.start_child(parent, name, None))
    }

    /// Switch ancestor/pattern queries between the indexed walk (default)
    /// and the unindexed full-catalog scan. The index keeps being
    /// maintained while disabled, so re-enabling is instant.
    pub fn set_index_enabled(&self, enabled: bool) {
        self.index_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether queries are currently served through the index.
    pub fn index_enabled(&self) -> bool {
        self.index_enabled.load(Ordering::Relaxed)
    }

    /// The provider's span factory (tests, diagnostics).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The provider's flight-recorder ring.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        self.tracer.recorder()
    }

    /// Reference count of a hosted tensor (tests/GC audits).
    pub fn tensor_refs(&self, key: TensorKey) -> u64 {
        self.tensors.refs(&key.encode())
    }

    /// Keys of every tensor hosted here (GC audits). Iterates the
    /// backend in place ([`KvBackend::for_each_key`]) instead of
    /// materializing one `Vec<u8>` per stored key.
    pub fn hosted_tensor_keys(&self) -> Vec<TensorKey> {
        let mut keys = Vec::new();
        self.tensors.backend().for_each_key(&mut |k| {
            if let Some(key) = TensorKey::decode(k) {
                keys.push(key);
            }
        });
        keys
    }

    // ---- delivery plane --------------------------------------------------

    /// This provider's delivery hub (tests, diagnostics).
    pub fn delivery(&self) -> &Arc<DeliveryHub> {
        &self.delivery
    }

    fn handle_subscribe(&self, req: SubscribeRequest) -> Result<SubscribeReply, String> {
        // Hold the catalog read lock across the replay scan and the
        // registration: publications run `on_publication` under the
        // write lock, so no store can slip between the snapshot this
        // replay sees and the moment the subscription starts matching
        // (such a store would otherwise be neither replayed nor pushed).
        let _catalog = self.catalog.read();
        let snap = self.snapshot.load();
        Ok(self.delivery.subscribe(req, &snap))
    }

    fn handle_unsubscribe(&self, req: UnsubscribeRequest) -> Result<UnsubscribeReply, String> {
        Ok(self.delivery.unsubscribe(req))
    }

    // ---- method table ----------------------------------------------------

    /// Register `handler` as the server of `M` on `endpoint`. Every
    /// handler runs under [`ProviderState::traced`]: when the RPC
    /// envelope carried a trace context, the hop becomes a child span
    /// (named after the method) in the caller's trace, recorded in this
    /// provider's flight ring.
    fn serve<M: Method>(
        self: &Arc<Self>,
        endpoint: &Endpoint,
        method: M,
        handler: fn(&ProviderState, M::Request) -> Result<M::Reply, String>,
    ) {
        let s = Arc::clone(self);
        endpoint.serve(method, move |req| s.traced(M::METHOD, || handler(&s, req)));
    }

    /// Bind every provider-side entry of the method table to its
    /// handler.
    fn register_handlers(self: &Arc<Self>, endpoint: &Endpoint) {
        use methods::*;
        self.serve(endpoint, Store, Self::handle_store);
        // GET_META is the one method not registered through `serve`:
        // its handler returns the bytes cached on the record, so a hot
        // model's compact graph is deep-cloned and JSON-encoded once per
        // incarnation, not once per fetch. Like LCP_BATCH and
        // MATCH_PATTERN_BATCH it runs on the caller's thread (its
        // method-table line puts it on the caller lane).
        let s = Arc::clone(self);
        endpoint.serve_bytes(GetMeta, move |body: Bytes| {
            let req: GetMetaRequest =
                serde_json::from_slice(&body).map_err(|e| format!("decode: {e}"))?;
            s.traced(GetMeta::METHOD, || s.get_meta_encoded(req))
        });
        self.serve(endpoint, Read, Self::handle_read);
        self.serve(endpoint, IncrRefs, Self::handle_incr_refs);
        self.serve(endpoint, DecrRefs, Self::handle_decr_refs);
        self.serve(endpoint, LcpBatch, Self::handle_lcp_batch);
        self.serve(
            endpoint,
            MatchPatternBatch,
            Self::handle_match_pattern_batch,
        );
        self.serve(endpoint, RetireMeta, Self::handle_retire_meta);
        self.serve(endpoint, ReadRange, Self::handle_read_range);
        self.serve(endpoint, StoreOptimizer, Self::handle_store_optimizer);
        self.serve(endpoint, LoadOptimizer, Self::handle_load_optimizer);
        self.serve(endpoint, Stats, |s, _| Ok(s.stats()));
        self.serve(endpoint, Digest, Self::handle_digest);
        self.serve(endpoint, SyncModel, Self::handle_sync_model);
        self.serve(endpoint, TransferManifest, Self::handle_transfer_manifest);
        self.serve(endpoint, HaveChunks, Self::handle_have_chunks);
        self.serve(endpoint, ReadChunks, Self::handle_read_chunks);
        self.serve(endpoint, SyncChunks, Self::handle_sync_chunks);
        self.serve(endpoint, SyncRetire, Self::handle_sync_retire);
        self.serve(endpoint, SyncRefs, Self::handle_sync_refs);
        self.serve(endpoint, ObsSnapshot, |s, _| Ok(s.obs_snapshot()));
        self.serve(endpoint, Subscribe, Self::handle_subscribe);
        self.serve(endpoint, Unsubscribe, Self::handle_unsubscribe);
    }
}

/// A running provider: shared state + its fabric endpoint.
///
/// Teardown runs in three steps: [`Drop`] stops the delivery pump, then
/// the fields drop in declaration order — the endpoint first, which
/// deregisters it and joins its service threads, releasing the handlers'
/// clones of the state; then the state, whose last `Arc` this usually is,
/// and with it the tensor and meta stores.
pub struct Provider {
    endpoint: Endpoint,
    /// Shared state (handlers hold clones of this Arc).
    pub state: Arc<ProviderState>,
}

impl Drop for Provider {
    fn drop(&mut self) {
        // Stop the delivery pump before the endpoint goes away; a pump
        // push racing teardown would otherwise spin on dead endpoints
        // until its subscriber reap kicks in.
        self.state.delivery.shutdown();
    }
}

impl Provider {
    /// Spawn a provider on `fabric` as provider `index` of
    /// `num_providers`, with the given replica placement rule, tensor
    /// store and RPC service thread count. Its flight recorders register
    /// with `obs` and stamp time from the hub clock (the simulator's
    /// virtual clock in simulated runs).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        fabric: Arc<Fabric>,
        index: usize,
        num_providers: usize,
        replication: ReplicationPolicy,
        clock: Arc<AtomicU64>,
        tensors: Substrate,
        meta_store: Box<dyn KvBackend>,
        service_threads: usize,
        obs: &ObsHub,
        deliver_fanout: usize,
    ) -> Provider {
        let endpoint = fabric.create_endpoint(service_threads);
        let tracer_for =
            |node: String| Tracer::new(obs.new_recorder(&node, PROVIDER_FLIGHT_EVENTS));
        let tracer = tracer_for(format!("provider{index}"));
        // The pump pushes from its own thread, outside any handler
        // span, so it gets its own span factory (`deliver.push` roots
        // land in a dedicated flight ring).
        let deliver_tracer = tracer_for(format!("deliver{index}"));
        let delivery = Arc::new(DeliveryHub::new(
            Arc::clone(&fabric),
            endpoint.id().0,
            deliver_fanout,
            deliver_tracer,
        ));
        let state = Arc::new(ProviderState {
            fabric: Arc::clone(&fabric),
            index,
            num_providers,
            replication,
            tensors: RefCountedStore::new(tensors),
            catalog: RwLock::default(),
            snapshot: SnapshotCell::new(Arc::default()),
            meta_store,
            clock,
            refs_ops: Mutex::new(refs::RefsOpCache::default()),
            tombstones: Mutex::new(HashMap::new()),
            index_enabled: AtomicBool::new(true),
            query_stats: AtomicQueryStats::default(),
            counters: ProviderCounters::new(),
            tracer,
            endpoint_id: endpoint.id().0,
            drops: Mutex::new(()),
            delivery,
            ledger: Arc::new(OpLedger::new()),
        });
        state.register_handlers(&endpoint);

        Provider { endpoint, state }
    }

    /// The provider's fabric address.
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint.id()
    }
}
