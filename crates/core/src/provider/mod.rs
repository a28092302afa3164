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
//! `stats`, over the tensor store `substrate` defines and, on the chunked
//! substrate, the `raw_cache` of the newest derived records. Handlers are
//! reachable only through the method table ([`crate::methods`]) they are
//! registered under.

mod catalog;
mod data;
mod decrements;
mod delta;
mod raw_cache;
mod refs;
mod stats;
mod substrate;
mod transfer;
mod write_set;

pub use raw_cache::RAW_CACHE_CAP;
pub use stats::{index_query_rows, kv_rows};
pub use substrate::Substrate;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use evostore_graph::{ArchIndex, CompactGraph, IndexQueryStats, IndexedArch, SnapshotCell};
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

/// One provider's catalog as one publication left it: the record map and
/// the [`ArchIndex`] over it, published atomically after every mutation
/// and pinned (one `Arc` clone) by every read handler. A reader always
/// observes records and index from the *same* publication — never a
/// half-applied store or retire — and a published snapshot never changes
/// while anything pins it. Index membership mirrors the records because
/// both change only in one place, `CatalogSnapshot::apply`.
#[derive(Clone, Default)]
pub struct CatalogSnapshot {
    records: HashMap<ModelId, Arc<ModelRecord>>,
    index: ArchIndex,
    /// Publication counter, strictly monotone across publications.
    version: u64,
}

/// One change to a catalog buffer, kept so the other buffer can replay it
/// ([`CatalogBuffers`]). It carries everything the change needs, the
/// architecture's cones included, so a replay recomputes nothing.
enum CatalogOp {
    /// `rec` becomes `model`'s record, replacing any, indexed under `arch`.
    Insert {
        model: ModelId,
        rec: Arc<ModelRecord>,
        arch: Arc<IndexedArch>,
    },
    /// `rec` takes the place of `model`'s record, with the same graph and
    /// quality, so the index entry stands (an optimizer attach).
    Replace {
        model: ModelId,
        rec: Arc<ModelRecord>,
    },
    /// `model`'s record and index entry go.
    Remove { model: ModelId },
}

/// A catalog mutation in progress: a private working copy of the
/// published catalog, the ops applied to it so far, and the change log
/// the delivery hub matches at publication. Reads see the working copy.
pub(super) struct CatalogEdit<'a> {
    snap: &'a mut CatalogSnapshot,
    ops: Vec<CatalogOp>,
    changes: Vec<CatalogChange>,
}

impl CatalogEdit<'_> {
    /// `model`'s record as this mutation has left it so far.
    pub(super) fn get(&self, model: ModelId) -> Option<&Arc<ModelRecord>> {
        self.snap.records.get(&model)
    }

    /// Insert `rec` as `model`'s record, replacing any there.
    pub(super) fn insert(&mut self, model: ModelId, rec: ModelRecord) {
        let arch = self.snap.index.arch_of(Arc::clone(&rec.graph));
        let rec = Arc::new(rec);
        self.apply(CatalogOp::Insert { model, rec, arch });
        self.changes.push(CatalogChange::Stored { model });
    }

    /// Replace `model`'s record by `rec`, which has its graph and quality.
    pub(super) fn replace(&mut self, model: ModelId, rec: ModelRecord) {
        self.apply(CatalogOp::Replace {
            model,
            rec: Arc::new(rec),
        });
    }

    /// Take `model`'s record out, if one is here.
    pub(super) fn remove(&mut self, model: ModelId) -> Option<Arc<ModelRecord>> {
        let rec = Arc::clone(self.get(model)?);
        self.apply(CatalogOp::Remove { model });
        self.changes.push(CatalogChange::Retired {
            model,
            parent: rec.parent,
            graph: Arc::clone(&rec.graph),
            quality: rec.quality,
            timestamp: rec.timestamp,
        });
        Some(rec)
    }

    fn apply(&mut self, op: CatalogOp) {
        self.snap.apply(&op);
        self.ops.push(op);
    }
}

/// The snapshot published before the current one, and the ops of the
/// current one's mutation, which it lacks.
struct Spare {
    /// `None` after a failed mutation that had changed its working copy.
    buffer: Option<Arc<CatalogSnapshot>>,
    missing: Vec<CatalogOp>,
}

/// The catalog's two buffers: the published snapshot readers pin, and
/// the writer's spare. A mutation brings the spare up to date by
/// replaying the ops it is missing (or, when a reader still pins it,
/// clones the published snapshot instead), applies its own ops to it,
/// publishes it with one pointer swap and keeps the predecessor as the
/// next spare — so a publication costs its own ops twice, not a copy of
/// the catalog.
pub(super) struct CatalogBuffers {
    published: SnapshotCell<CatalogSnapshot>,
    /// The write lock: mutations run under it one at a time, so
    /// publication order is mutation order.
    writer: RwLock<Spare>,
    /// Mutations that found the spare pinned (or lost) and cloned the
    /// published snapshot.
    clones: AtomicU64,
}

impl CatalogBuffers {
    fn new() -> CatalogBuffers {
        let writer = Spare {
            buffer: Some(Arc::default()),
            missing: Vec::new(),
        };
        CatalogBuffers {
            published: SnapshotCell::new(Arc::default()),
            writer: RwLock::new(writer),
            clones: AtomicU64::new(0),
        }
    }

    /// Pin the published snapshot.
    fn load(&self) -> Arc<CatalogSnapshot> {
        self.published.load()
    }

    /// Publications so far.
    fn publications(&self) -> u64 {
        self.published.swaps()
    }

    /// Mutations that had to clone the published snapshot.
    fn clones(&self) -> u64 {
        self.clones.load(Ordering::Relaxed)
    }

    /// Run `f` on a working copy of the published catalog and, when it
    /// succeeds, publish the copy and hand it, with the mutation's change
    /// log, to `on_publication` — still under the write lock, so whatever
    /// that does happens in publication order. A failed `f` publishes
    /// nothing and its working copy is dropped, unless it changed nothing.
    fn mutate<T>(
        &self,
        f: impl FnOnce(&mut CatalogEdit) -> Result<T, String>,
        on_publication: impl FnOnce(&CatalogSnapshot, &[CatalogChange]),
    ) -> Result<T, String> {
        let mut spare = self.writer.write();
        let current = self.published.load();
        let missing = std::mem::take(&mut spare.missing);
        let reused = spare.buffer.take().and_then(|mut buffer| {
            let unshared = Arc::get_mut(&mut buffer)?;
            missing.iter().for_each(|op| unshared.apply(op));
            Some(buffer)
        });
        let mut work = reused.unwrap_or_else(|| {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Arc::new(CatalogSnapshot::clone(&current))
        });
        let snap = Arc::get_mut(&mut work).expect("the working copy is private");
        snap.version = current.version + 1;
        let mut edit = CatalogEdit {
            snap,
            ops: Vec::new(),
            changes: Vec::new(),
        };
        let out = f(&mut edit);
        let CatalogEdit { ops, changes, .. } = edit;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                if ops.is_empty() {
                    spare.buffer = Some(work);
                }
                return Err(e);
            }
        };
        drop(current);
        let predecessor = self.published.swap(Arc::clone(&work));
        *spare = Spare {
            buffer: Some(predecessor),
            missing: ops,
        };
        on_publication(&work, &changes);
        Ok(out)
    }
}

impl CatalogSnapshot {
    fn apply(&mut self, op: &CatalogOp) {
        match op {
            CatalogOp::Insert { model, rec, arch } => {
                self.index.insert_arch(*model, arch, rec.quality);
                self.records.insert(*model, Arc::clone(rec));
            }
            CatalogOp::Replace { model, rec } => {
                self.records.insert(*model, Arc::clone(rec));
            }
            CatalogOp::Remove { model } => {
                self.records.remove(model);
                self.index.remove(*model);
            }
        }
    }

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
    /// The published immutable catalog view, which read handlers pin
    /// without the write lock, and the writer's spare.
    catalog: CatalogBuffers,
    /// Durable catalog records (separate namespace from tensors).
    meta_store: Box<dyn KvBackend>,
    /// Deployment-wide write-ordering clock.
    clock: Arc<AtomicU64>,
    /// Refs operations claimed and applied, for duplicate suppression
    /// under retries and replicated retirements.
    refs_ops: refs::RefsOps,
    /// The decrement legs of the records this provider retired, and the
    /// thread that sends them.
    pump: Arc<decrements::DecrementPump>,
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
    /// The raw ropes of the newest derived records, on the chunked
    /// substrate only ([`raw_cache`]): `None` under whole records.
    raw_cache: Option<raw_cache::RawCache>,
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

    /// `model`'s published record, if one is here.
    fn local_record(&self, model: ModelId) -> Option<Arc<ModelRecord>> {
        self.catalog.load().get(model).cloned()
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
        self.catalog.load()
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

    /// Send every decrement leg this provider's pump holds and wait, at
    /// most a few seconds, until each has landed or failed twice. Returns
    /// the legs still queued: their targets are unreachable.
    pub fn drain_decrements(&self) -> usize {
        self.pump.drain(decrements::DRAIN_BOUND)
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
        let _writer = self.catalog.writer.read();
        let snap = self.catalog.load();
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
/// Teardown runs in three steps: [`Drop`] stops the delivery pump and the
/// decrement pump (dropping the legs it still holds), then
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
        self.state.pump.shutdown();
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
        let raw_cache = tensors.chunked().map(|_| raw_cache::RawCache::new());
        let pump = Arc::new(decrements::DecrementPump::new(
            Arc::clone(&fabric),
            replication,
            Arc::clone(tracer.recorder()),
        ));
        let state = Arc::new(ProviderState {
            fabric: Arc::clone(&fabric),
            index,
            num_providers,
            replication,
            tensors: RefCountedStore::new(tensors),
            catalog: CatalogBuffers::new(),
            meta_store,
            clock,
            refs_ops: refs::RefsOps::default(),
            pump,
            tombstones: Mutex::new(HashMap::new()),
            index_enabled: AtomicBool::new(true),
            query_stats: AtomicQueryStats::default(),
            counters: ProviderCounters::new(),
            raw_cache,
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

    /// Give the provider the deployment's provider endpoints, in
    /// provider-index order (the list clients get): where its decrement
    /// pump sends. Set once, after every provider is spawned; until then
    /// the provider refuses a retirement.
    pub fn set_peers(&self, peers: Vec<EndpointId>) {
        self.state.pump.set_peers(peers);
    }
}

#[cfg(test)]
mod tests {
    //! The two-buffer publication, driven step by step on one thread with
    //! no fabric: random mutations against a map of what the catalog
    //! should hold, with readers pinning snapshots across publications.

    use std::collections::BTreeMap;
    use std::sync::Arc;

    use evostore_graph::{lcp, CompactGraph};
    use evostore_tensor::{ModelId, TensorKey, VertexId};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::refs::tests::seq;
    use super::{CatalogBuffers, CatalogEdit, CatalogSnapshot, ModelRecord};
    use crate::owner_map::OwnerMap;

    /// What one model's record should be: its graph (an index into the
    /// pool), quality, stamp and optimizer key count.
    type Want = (usize, f64, u64, usize);

    /// What the catalog should hold.
    type Oracle = BTreeMap<ModelId, Want>;

    /// Where the writer's spare comes from, as the model sees it.
    #[derive(Clone, Copy)]
    enum SpareIs {
        /// The snapshot published as this version: a pin on it forces a
        /// clone.
        Published(u64),
        /// A buffer no reader ever saw.
        Private,
        /// Dropped with a failed mutation's working copy.
        Lost,
    }

    fn record(pool: &[CompactGraph], model: ModelId, want: Want) -> ModelRecord {
        let (g, quality, stamp, keys) = want;
        let graph = pool[g].clone();
        let owner_map = OwnerMap::fresh(model, &graph);
        ModelRecord {
            optimizer_keys: (0..keys as u32)
                .map(|slot| TensorKey::new(model, VertexId(u32::MAX), slot))
                .collect(),
            ..ModelRecord::new(graph, owner_map, None, quality, stamp)
        }
    }

    /// `snap` holds exactly `oracle`, its index agrees with its records,
    /// and every pool graph's best ancestor is the brute-force one.
    fn assert_holds(snap: &CatalogSnapshot, oracle: &Oracle, pool: &[CompactGraph], what: &str) {
        snap.verify_coherent()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let held: Oracle = snap
            .records()
            .map(|(m, r)| {
                let sig = r.graph.arch_signature();
                let g = pool.iter().position(|p| p.arch_signature() == sig);
                let g = g.expect("a pool graph");
                (m, (g, r.quality, r.timestamp, r.optimizer_keys.len()))
            })
            .collect();
        assert_eq!(&held, oracle, "{what}");
        for probe in pool {
            let brute = oracle
                .iter()
                .map(|(&m, &(g, q, _, _))| (lcp(probe, &pool[g]).len(), q, m))
                .filter(|&(len, _, _)| len > 0)
                .max_by(|a, b| {
                    (a.0, a.1)
                        .partial_cmp(&(b.0, b.1))
                        .unwrap()
                        .then(b.2.cmp(&a.2))
                });
            let (best, _) = snap.index().best_ancestor(probe);
            assert_eq!(best.map(|c| c.model), brute.map(|b| b.2), "{what}");
        }
    }

    /// Random insert / replace / remove batches, some failing after their
    /// ops or before any, with readers pinning and dropping snapshots:
    /// after every step the published snapshot and every pin hold what
    /// they should, and a mutation clones the published catalog exactly
    /// when its spare is pinned or was lost to a failure.
    #[test]
    fn publications_match_the_oracle_and_clone_only_for_a_pinned_spare() {
        let pool: Vec<CompactGraph> = [&[4, 8, 2][..], &[4, 8, 2, 5], &[4, 8, 3], &[4, 9], &[5, 8]]
            .iter()
            .map(|units| seq(units))
            .collect();
        for seed in 0..6 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let buffers = CatalogBuffers::new();
            let mut oracle = Oracle::new();
            let mut pins: Vec<(Arc<CatalogSnapshot>, Oracle)> = Vec::new();
            let mut spare = SpareIs::Private;
            let mut stamp = 0u64;
            let (mut reused, mut cloned) = (0, 0);
            for step in 0..400 {
                let what = format!("seed {seed} step {step}");
                if rng.random_bool(0.3) && pins.len() < 4 {
                    pins.push((buffers.load(), oracle.clone()));
                }
                if rng.random_bool(0.3) && !pins.is_empty() {
                    pins.swap_remove(rng.random_range(0..pins.len()));
                }
                let forced = match spare {
                    SpareIs::Published(v) => pins.iter().any(|(p, _)| p.version() == v),
                    SpareIs::Private => false,
                    SpareIs::Lost => true,
                };
                let fails = rng.random_bool(0.15);
                let ops = rng.random_range(0..4usize);
                let mut next = oracle.clone();
                // Ops that changed the working copy (a remove of an absent
                // model changes nothing).
                let mut applied = 0;
                let clones = buffers.clones();
                let version = buffers.load().version();
                let out = buffers.mutate(
                    |c: &mut CatalogEdit| {
                        for _ in 0..ops {
                            let model = ModelId(rng.random_range(0..12u64));
                            match (rng.random_range(0..3u32), next.get(&model).copied()) {
                                (1, Some((g, q, s, _))) => {
                                    let want = (g, q, s, rng.random_range(1..4usize));
                                    c.replace(model, record(&pool, model, want));
                                    next.insert(model, want);
                                    applied += 1;
                                }
                                (2, _) => {
                                    let gone = c.remove(model).map(|r| r.timestamp);
                                    assert_eq!(gone, next.remove(&model).map(|w| w.2));
                                    applied += usize::from(gone.is_some());
                                }
                                _ => {
                                    stamp += 1;
                                    let g = rng.random_range(0..pool.len());
                                    let q = f64::from(rng.random_range(0..4u32)) / 4.0;
                                    c.insert(model, record(&pool, model, (g, q, stamp, 0)));
                                    next.insert(model, (g, q, stamp, 0));
                                    applied += 1;
                                }
                            }
                        }
                        if fails {
                            return Err("refused".to_string());
                        }
                        Ok(())
                    },
                    |_, _| {},
                );
                let published = buffers.load();
                assert_eq!(out.is_ok(), !fails, "{what}");
                let published_as = version + u64::from(!fails);
                assert_eq!(published.version(), published_as, "{what}");
                spare = match (fails, applied) {
                    (false, _) => SpareIs::Published(version),
                    (true, 0) => SpareIs::Private,
                    (true, _) => SpareIs::Lost,
                };
                if !fails {
                    oracle = next;
                }
                let took = buffers.clones() - clones;
                assert_eq!(took, u64::from(forced), "{what}: clones");
                if forced {
                    cloned += 1;
                } else {
                    reused += 1;
                }
                assert_holds(&published, &oracle, &pool, &what);
                for (pin, held) in &pins {
                    assert_holds(pin, held, &pool, &format!("{what}, pin v{}", pin.version()));
                }
            }
            assert!(
                reused > 100 && cloned > 10,
                "seed {seed}: {reused} / {cloned}"
            );
            assert_eq!(buffers.clones(), cloned);
        }
    }
}
