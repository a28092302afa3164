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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use evostore_graph::{lcp, ArchIndex, ArchPattern, CompactGraph, IndexQueryStats, SnapshotCell};
use evostore_kv::{KvBackend, RefCountedStore, TensorStore};
use evostore_obs::ledger::install_costs;
use evostore_obs::{
    current_trace, FlightRecorder, Metric, MonotonicClock, ObsHub, OpCosts, OpLedger,
    RegistrySnapshot, Span, TimeSource, Tracer,
};
use evostore_rpc::{typed_handler, Endpoint, EndpointId, Fabric};
use evostore_tensor::{
    decode_delta, delta_header, delta_probe, encode_delta, is_delta, read_tensor, validate_record,
    ContentHash, DeltaHeader, ModelId, TensorKey, DELTA_PROBE_LEN,
};
use parking_lot::{Mutex, RwLock};
use rayon::prelude::*;

use evostore_deliver::wire::methods as deliver_methods;
use evostore_deliver::{SubscribeReply, SubscribeRequest, UnsubscribeReply, UnsubscribeRequest};

use crate::delivery::{CatalogChange, DeliveryHub};
use crate::messages::*;
use crate::owner_map::OwnerMap;
use crate::policy::DeltaPolicy;
use crate::replication::ReplicationPolicy;

/// How many applied refs-operation ids a provider remembers for duplicate
/// suppression. Must comfortably exceed (in-flight refs ops) ×
/// (retry attempts) so a retried leg always finds its first delivery in
/// the cache; beyond that window a duplicate would re-apply.
const REFS_OP_MEMORY: usize = 65_536;

/// Flight-recorder ring capacity per provider (recent events kept for a
/// postmortem dump; older ones are evicted and counted).
pub const PROVIDER_FLIGHT_EVENTS: usize = 1024;

/// Decode a wire-form content hash (always 16 bytes).
fn wire_hash(b: &[u8; 16]) -> ContentHash {
    ContentHash::from_bytes(b).expect("16-byte content hash")
}

/// Turn a probed delta header into the transfer manifest's linkage pair
/// (`delta_base`, `delta_depth`); raw records carry `(None, 0)`.
fn delta_linkage(
    key: TensorKey,
    head: Option<DeltaHeader>,
) -> Result<(Option<TensorKey>, u8), String> {
    match head {
        None => Ok((None, 0)),
        Some(h) => {
            let base = TensorKey::decode(&h.base_key)
                .ok_or_else(|| format!("record {key}: undecodable delta base key"))?;
            Ok((Some(base), h.depth))
        }
    }
}

/// Bounded memo of applied [`RefsRequest`]s: `op_id` → the reply the
/// first delivery produced. Evicts in insertion order at
/// [`REFS_OP_MEMORY`].
#[derive(Default)]
struct RefsOpCache {
    replies: HashMap<u64, RefsReply>,
    order: std::collections::VecDeque<u64>,
}

impl RefsOpCache {
    fn get(&self, op_id: u64) -> Option<RefsReply> {
        self.replies.get(&op_id).cloned()
    }

    fn record(&mut self, op_id: u64, reply: RefsReply) {
        if self.replies.insert(op_id, reply).is_none() {
            self.order.push_back(op_id);
            while self.order.len() > REFS_OP_MEMORY {
                if let Some(evicted) = self.order.pop_front() {
                    self.replies.remove(&evicted);
                }
            }
        }
    }
}

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
}

/// On-disk form of a [`ModelRecord`] (catalog persistence).
#[derive(serde::Serialize, serde::Deserialize)]
struct PersistedRecord {
    graph: CompactGraph,
    owner_map: OwnerMap,
    parent: Option<ModelId>,
    quality: f64,
    timestamp: u64,
    optimizer_keys: Vec<TensorKey>,
}

impl ModelRecord {
    fn to_persisted(&self) -> PersistedRecord {
        PersistedRecord {
            graph: (*self.graph).clone(),
            owner_map: self.owner_map.clone(),
            parent: self.parent,
            quality: self.quality,
            timestamp: self.timestamp,
            optimizer_keys: self.optimizer_keys.clone(),
        }
    }

    fn from_persisted(p: PersistedRecord) -> ModelRecord {
        ModelRecord {
            graph: Arc::new(p.graph),
            owner_map: p.owner_map,
            parent: p.parent,
            quality: p.quality,
            timestamp: p.timestamp,
            optimizer_keys: p.optimizer_keys,
        }
    }
}

/// The provider's model catalog: the record map plus the incrementally
/// maintained [`ArchIndex`] over it, always mutated together under one
/// lock so index membership exactly mirrors the records.
///
/// This is the *writer-side* authoritative state. Read handlers never
/// touch it: every mutation ends by publishing an immutable
/// [`CatalogSnapshot`] ([`ProviderState::mutate_catalog`]), and the read
/// path pins that snapshot with zero locks.
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
    fn new() -> Catalog {
        Catalog {
            records: HashMap::new(),
            index: ArchIndex::new(),
            version: 0,
            changes: Vec::new(),
        }
    }

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
    /// copy-on-write (per-bucket pointer bumps, shared memo).
    fn snapshot(&self) -> Arc<CatalogSnapshot> {
        Arc::new(CatalogSnapshot {
            records: self.records.clone(),
            index: self.index.clone(),
            version: self.version,
        })
    }
}

/// An immutable view of one provider's catalog, published atomically
/// after every mutation and pinned lock-free by every read handler. A
/// reader always observes records and index from the *same* publication
/// — never a half-applied store or retire.
pub struct CatalogSnapshot {
    records: HashMap<ModelId, Arc<ModelRecord>>,
    index: ArchIndex,
    version: u64,
}

impl CatalogSnapshot {
    fn empty() -> CatalogSnapshot {
        CatalogSnapshot {
            records: HashMap::new(),
            index: ArchIndex::new(),
            version: 0,
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
    /// mirrors the record map exactly. A violation means a reader
    /// observed a half-applied mutation — exactly what the atomic
    /// publication protocol forbids.
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
        Ok(())
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

/// Shards of the encoded `GET_META` reply cache. Hot fetches of
/// *different* models no longer serialize on one global mutex; the
/// model id picks the shard.
const META_REPLY_SHARDS: usize = 16;

/// Sharded cache of encoded `GET_META` replies, each entry stamped with
/// the record timestamp it was built from (a re-store or sync installs
/// a newer stamp and invalidates implicitly).
struct MetaReplyCache {
    shards: [Mutex<HashMap<ModelId, (u64, Bytes)>>; META_REPLY_SHARDS],
}

impl MetaReplyCache {
    fn new() -> MetaReplyCache {
        MetaReplyCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, model: ModelId) -> &Mutex<HashMap<ModelId, (u64, Bytes)>> {
        &self.shards[(model.0 as usize) % META_REPLY_SHARDS]
    }

    fn get(&self, model: ModelId, timestamp: u64) -> Option<Bytes> {
        let shard = self.shard(model).lock();
        match shard.get(&model) {
            Some((ts, blob)) if *ts == timestamp => Some(blob.clone()),
            _ => None,
        }
    }

    fn insert(&self, model: ModelId, timestamp: u64, blob: Bytes) {
        self.shard(model).lock().insert(model, (timestamp, blob));
    }

    fn remove(&self, model: ModelId) {
        self.shard(model).lock().remove(&model);
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
    tensors: RefCountedStore<Box<dyn KvBackend>>,
    catalog: RwLock<Catalog>,
    /// The published immutable catalog view. Writers rebuild and swap it
    /// (one atomic pointer store) while still holding the catalog write
    /// lock, so publication order equals mutation order; read handlers
    /// pin it with zero locks.
    snapshot: SnapshotCell<CatalogSnapshot>,
    /// Durable catalog records (separate namespace from tensors).
    meta_store: Box<dyn KvBackend>,
    /// Deployment-wide write-ordering clock.
    clock: Arc<AtomicU64>,
    /// Applied refs operations, for duplicate suppression under retries.
    refs_ops: Mutex<RefsOpCache>,
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
    /// Lock-free snapshot pins taken by read handlers.
    snapshot_reads: AtomicU64,
    /// Batched query envelopes served, and queries delivered in them.
    batch_envelopes: AtomicU64,
    batch_queries: AtomicU64,
    /// Span factory for this provider; its flight recorder is the
    /// provider's postmortem ring.
    tracer: Tracer,
    /// This provider's fabric address (stamped on handler spans).
    endpoint_id: u32,
    /// Segments handed to `bulk_expose_vec` by read-side handlers.
    bulk_segments_exposed: AtomicU64,
    /// Tensor reads served as shared-buffer clones of memory-resident
    /// values (no payload copy on the provider).
    zero_copy_reads: AtomicU64,
    /// Tensor reads that fell back to a copying `get` (disk-resident
    /// record or a delta that had to be reconstructed).
    copy_fallback_reads: AtomicU64,
    /// Store requests whose manifest validation fanned out across the
    /// rayon pool (decode-free `validate_record` path).
    validate_par_batches: AtomicU64,
    /// Encoded `GET_META` replies keyed by model, each stamped with the
    /// record timestamp it was built from. A hit serves the cached JSON
    /// bytes without re-cloning the compact graph; a timestamp mismatch
    /// (model re-stored or synced) rebuilds. Sharded by model id so hot
    /// fetches of different models never serialize.
    meta_replies: MetaReplyCache,
    /// Parent-delta encoding policy for derived-model stores.
    delta: DeltaPolicy,
    /// Delta dependency index: base record key → keys of the delta
    /// records encoded directly against it. No reference counts are
    /// taken on bases (that would break the exact-count GC audit);
    /// instead, every reclaim path re-bases dependents to raw bytes
    /// before the base dies. Rebuilt from record headers on recovery.
    delta_deps: Mutex<HashMap<Vec<u8>, Vec<Vec<u8>>>>,
    /// Records stored as parent deltas rather than raw bytes.
    delta_stored: AtomicU64,
    /// Delta decodes performed to serve reads (one per chain link).
    delta_reconstructs: AtomicU64,
    /// Delta records rewritten back to raw bytes (base reclaimed, or a
    /// maintenance re-base pass).
    delta_rebased: AtomicU64,
    /// Chunk hashes this provider was asked to probe for possession
    /// (negotiated transfers it served as a sync target or chunk-aware
    /// fetch source).
    transfer_chunks_offered: AtomicU64,
    /// Chunk payloads shipped for negotiated transfers.
    transfer_chunks_sent: AtomicU64,
    /// Offered chunks the negotiation elided (already held by the
    /// receiving side).
    transfer_chunks_skipped: AtomicU64,
    /// Delta-encoded records that crossed the wire verbatim during sync.
    transfer_deltas_shipped: AtomicU64,
    /// Payload bytes negotiation kept off the wire.
    transfer_bytes_saved: AtomicU64,
    /// Subscription matching and event delivery for this provider's
    /// catalog publications (the delivery plane).
    delivery: Arc<DeliveryHub>,
    /// Per-method resource attribution for traced handler invocations.
    ledger: Arc<OpLedger>,
    /// Spawned under an [`ObsHub`]: the hub emits this provider's
    /// flight-ring metrics, so [`ProviderState::obs_snapshot`] must not
    /// emit them a second time.
    hub_attached: bool,
}

impl ProviderState {
    /// Does `model`'s metadata (and its self-owned tensors) belong on
    /// this provider? True for the primary and every ring successor in
    /// the replica chain.
    fn places_here(&self, model: ModelId) -> bool {
        self.replication
            .is_replica(model, self.num_providers, self.index)
    }

    /// The logical tensor-storage facade — the only storage API request
    /// handlers touch. Physical layering (chunking, residency tiers)
    /// stays behind it.
    fn store(&self) -> &dyn TensorStore {
        &self.tensors
    }

    // ---- snapshot publication -------------------------------------------

    /// Run a catalog mutation and publish the resulting snapshot. The
    /// swap happens while the write lock is still held, so the
    /// publication order of snapshots is exactly the mutation order —
    /// two racing writers can never publish out of order.
    fn mutate_catalog<T>(&self, f: impl FnOnce(&mut Catalog) -> T) -> T {
        let mut catalog = self.catalog.write();
        let out = f(&mut catalog);
        catalog.version += 1;
        let snap = catalog.snapshot();
        self.snapshot.store(Arc::clone(&snap));
        // Hand the mutation's change log to the delivery hub while the
        // write lock is still held: subscribers observe events in
        // exactly the publication order. With no subscribers this is
        // one atomic load.
        let changes = std::mem::take(&mut catalog.changes);
        if !changes.is_empty() {
            self.delivery.on_publication(&snap, &changes);
        }
        out
    }

    /// Pin the current published catalog snapshot (lock-free; what every
    /// read handler serves from).
    pub fn catalog_snapshot(&self) -> Arc<CatalogSnapshot> {
        self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        self.snapshot.load()
    }

    // ---- parent-delta encoding ------------------------------------------

    /// Materialize the raw (EVST) bytes of a fetched record, decoding
    /// the delta chain under it when the record is delta-encoded.
    fn materialize(&self, record: Bytes) -> Result<Bytes, String> {
        if !is_delta(&record) {
            return Ok(record);
        }
        // Walk down to the raw base (chains are depth-bounded at store
        // time; the u8 depth field caps the walk regardless).
        let mut chain = vec![record];
        let mut raw = loop {
            let head = delta_header(chain.last().expect("chain non-empty"))
                .map_err(|e| format!("delta record: {e}"))?;
            let base = self
                .store()
                .get_record(&head.base_key)
                .map_err(|_| "delta base record missing".to_string())?;
            if chain.len() > u8::MAX as usize {
                return Err("delta chain exceeds the depth bound".into());
            }
            if is_delta(&base) {
                chain.push(base);
            } else {
                break base;
            }
        };
        evostore_obs::ledger::note_delta_chain_depth(chain.len() as u64);
        // Decode back up the chain.
        while let Some(delta) = chain.pop() {
            raw = decode_delta(&delta, &raw).map_err(|e| format!("delta decode: {e}"))?;
            self.delta_reconstructs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(raw)
    }

    /// Fetch a record and materialize it to raw bytes.
    fn resolve_record(&self, enc: &[u8]) -> Result<Bytes, String> {
        let record = self
            .store()
            .get_record(enc)
            .map_err(|_| "record not stored".to_string())?;
        self.materialize(record)
    }

    /// Try to delta-encode a self-owned tensor of a derived model
    /// against the parent's tensor at the same vertex/slot. Returns the
    /// delta blob and the base's record key, or `None` when the base is
    /// unavailable (not co-located here), the chain bound is reached, or
    /// the delta would not actually save space.
    fn try_delta_encode(
        &self,
        key: TensorKey,
        record: &Bytes,
        parent_map: &OwnerMap,
    ) -> Option<(Bytes, Vec<u8>)> {
        if (key.vertex.0 as usize) >= parent_map.vertices.len() {
            return None;
        }
        let owner = parent_map.vertex(key.vertex);
        if key.slot >= owner.slots {
            return None;
        }
        let base_key = TensorKey::new(owner.owner, owner.owner_vertex, key.slot);
        let base_enc = base_key.encode();
        if base_enc == key.encode() {
            return None;
        }
        // Delta applies only when the base is co-located: cross-provider
        // bases would turn every read into a remote fetch.
        let base_rec = self.store().get_record(&base_enc).ok()?;
        let depth = if is_delta(&base_rec) {
            delta_header(&base_rec).ok()?.depth
        } else {
            0
        };
        if depth >= self.delta.max_chain_depth {
            return None;
        }
        let base_raw = self.materialize(base_rec).ok()?;
        let blob = encode_delta(record, &base_raw, base_enc, depth + 1)?;
        Some((blob, base_enc.to_vec()))
    }

    /// Fence a record's physical removal: rewrite every delta directly
    /// based on it back to raw bytes (so their payloads survive the
    /// base's death), and unlink the record itself from its base's
    /// dependent list. Must run before any decrement/refs-install that
    /// can drop the record.
    fn before_reclaim(&self, enc: &[u8]) -> Result<(), String> {
        if !self.delta.enabled {
            return Ok(());
        }
        let deps = self.delta_deps.lock().remove(enc);
        for dep in deps.into_iter().flatten() {
            // A dependent may have been reclaimed (or already re-based)
            // since it was registered; skip it silently.
            let Ok(rec) = self.store().get_record(&dep) else {
                continue;
            };
            if !is_delta(&rec) {
                continue;
            }
            let raw = self.materialize(rec)?;
            self.store()
                .replace_record(&dep, raw)
                .map_err(|e| format!("re-base dependent record: {e}"))?;
            self.delta_rebased.fetch_add(1, Ordering::Relaxed);
        }
        // If the dying record is itself a delta, drop it from its base's
        // dependent list so the base never re-bases a reclaimed key.
        if let Ok(rec) = self.store().get_record(enc) {
            if is_delta(&rec) {
                if let Ok(head) = delta_header(&rec) {
                    let mut deps = self.delta_deps.lock();
                    if let Some(v) = deps.get_mut(head.base_key.as_slice()) {
                        v.retain(|k| k != enc);
                        if v.is_empty() {
                            deps.remove(head.base_key.as_slice());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Maintenance re-base: rewrite every delta record whose chain depth
    /// exceeds `max_depth` back to raw bytes, bounding reconstruction
    /// cost after deep derivation chains accumulate. Returns how many
    /// records were rewritten.
    pub fn rebase_deltas(&self, max_depth: u8) -> Result<usize, String> {
        let mut keys = Vec::new();
        self.store()
            .for_each_record_key(&mut |k| keys.push(k.to_vec()));
        let mut rewritten = 0;
        for enc in keys {
            let Ok(rec) = self.store().get_record(&enc) else {
                continue;
            };
            if !is_delta(&rec) {
                continue;
            }
            let head = delta_header(&rec).map_err(|e| format!("delta record: {e}"))?;
            if head.depth <= max_depth {
                continue;
            }
            let base_enc = head.base_key.to_vec();
            let raw = self.materialize(rec)?;
            self.store()
                .replace_record(&enc, raw)
                .map_err(|e| format!("re-base record: {e}"))?;
            let mut deps = self.delta_deps.lock();
            if let Some(v) = deps.get_mut(&base_enc) {
                v.retain(|k| k != &enc);
                if v.is_empty() {
                    deps.remove(&base_enc);
                }
            }
            drop(deps);
            self.delta_rebased.fetch_add(1, Ordering::Relaxed);
            rewritten += 1;
        }
        Ok(rewritten)
    }

    /// Chunk-occupancy counters of the tensor store, when the physical
    /// layer is content-addressed.
    pub fn chunk_stats(&self) -> Option<evostore_kv::ChunkStats> {
        self.store().record_chunk_stats()
    }

    /// Run `f` under a handler span joined to the caller's trace. The
    /// service thread installs the RPC envelope's [`TraceContext`]
    /// ambiently before invoking the handler; when present, the handler
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
        // Handlers run on provider service threads, so a fresh ambient
        // cost cell never shadows a client op's; charges land in this
        // provider's per-method ledger.
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

    /// A child span for a kv-store operation inside a traced handler
    /// (`None` when the request carried no trace context).
    fn kv_span(&self, name: &'static str) -> Option<Span<'_>> {
        current_trace().map(|parent| self.tracer.start_child(parent, name, None))
    }

    fn meta_key(model: ModelId) -> Vec<u8> {
        let mut k = b"meta/".to_vec();
        k.extend_from_slice(&model.0.to_le_bytes());
        k
    }

    fn persist_record(&self, model: ModelId, rec: &ModelRecord) {
        let blob = serde_json::to_vec(&rec.to_persisted()).expect("record serializes");
        self.meta_store
            .put(&Self::meta_key(model), bytes::Bytes::from(blob))
            .expect("persist catalog record");
    }

    fn unpersist_record(&self, model: ModelId) {
        let _ = self.meta_store.delete(&Self::meta_key(model));
    }

    /// Restore the catalog from the durable meta store and register every
    /// hosted tensor with a zero reference count. The deployment then
    /// replays reference counts from *all* providers' owner maps
    /// ([`crate::deployment::Deployment::reopen`]); counts are correct
    /// only after that pass completes.
    pub fn recover_catalog(&self) -> usize {
        let mut recovered = Vec::new();
        for key in self.meta_store.keys() {
            let Ok(blob) = self.meta_store.get(&key) else {
                continue;
            };
            let Ok(p) = serde_json::from_slice::<PersistedRecord>(&blob) else {
                continue;
            };
            let model = p.owner_map.model;
            self.clock.fetch_max(p.timestamp + 1, Ordering::Relaxed);
            recovered.push((model, ModelRecord::from_persisted(p)));
        }
        let restored = recovered.len();
        // One batched mutation: the whole recovered catalog becomes one
        // snapshot publication instead of one per record.
        self.mutate_catalog(|catalog| {
            for (model, rec) in recovered {
                catalog.insert(model, rec);
            }
        });
        // Adopt hosted tensors with zero counts; the deployment replay
        // brings them up to their true values.
        let mut hosted = Vec::new();
        self.store()
            .for_each_record_key(&mut |k| hosted.push(k.to_vec()));
        for key in &hosted {
            self.store().adopt_record(key);
        }
        // Rebuild the delta dependency index from record headers, so
        // reclaim fencing works across restarts.
        if self.delta.enabled {
            let mut deps: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
            for key in hosted {
                let Ok(rec) = self.store().get_record(&key) else {
                    continue;
                };
                if is_delta(&rec) {
                    if let Ok(head) = delta_header(&rec) {
                        deps.entry(head.base_key.to_vec()).or_default().push(key);
                    }
                }
            }
            *self.delta_deps.lock() = deps;
        }
        restored
    }

    /// Directly bump a hosted tensor's reference count (recovery replay).
    pub fn replay_ref(&self, key: TensorKey) -> Result<(), String> {
        self.store()
            .incr_adopted_record(&key.encode())
            .map_err(|e| format!("replay ref {key}: {e}"))?;
        Ok(())
    }

    /// Drop tensors whose replayed reference count stayed at zero,
    /// re-basing any deltas that depend on them first.
    pub fn purge_orphan_tensors(&self) -> Result<usize, String> {
        let bases: Vec<Vec<u8>> = self.delta_deps.lock().keys().cloned().collect();
        for enc in bases {
            if self.store().record_refs(&enc) == 0 && self.store().contains_record(&enc) {
                self.before_reclaim(&enc)?;
            }
        }
        self.store()
            .purge_zero_ref_records()
            .map_err(|e| e.to_string())
    }

    /// Handle a store request.
    pub fn handle_store(&self, req: StoreModelRequest) -> Result<StoreModelReply, String> {
        if req.owner_map.model != req.model {
            return Err(format!(
                "owner map belongs to {} but stores {}",
                req.owner_map.model, req.model
            ));
        }
        if req.owner_map.len() != req.graph.len() {
            return Err(format!(
                "owner map covers {} vertices, graph has {}",
                req.owner_map.len(),
                req.graph.len()
            ));
        }
        if !self.places_here(req.model) {
            return Err(format!(
                "model {} does not place on provider {}",
                req.model, self.index
            ));
        }
        if let Some(existing_ts) = self
            .catalog
            .read()
            .records
            .get(&req.model)
            .map(|r| r.timestamp)
        {
            return match req.timestamp {
                // A retried mirror leg whose first delivery applied (its
                // reply was lost): answer idempotently — re-pulling the
                // payload would double-count the tensor references.
                Some(ts) if existing_ts >= ts => Ok(StoreModelReply {
                    timestamp: existing_ts,
                    bytes_stored: 0,
                }),
                _ => Err(format!("model {} already stored", req.model)),
            };
        }

        // The manifest must carry exactly the self-owned tensors.
        let expected: std::collections::HashSet<TensorKey> = req
            .owner_map
            .self_owned()
            .flat_map(|v| req.owner_map.vertex(v).tensor_keys().collect::<Vec<_>>())
            .collect();
        let got: std::collections::HashSet<TensorKey> =
            req.manifest.iter().map(|m| m.key).collect();
        if expected != got {
            return Err(format!(
                "manifest carries {} tensors, owner map declares {} self-owned",
                got.len(),
                expected.len()
            ));
        }

        // One consolidated one-sided pull for the whole request. The
        // region may be vectored (one segment per tensor record when the
        // client skipped consolidation); manifest offsets address the
        // logical concatenation either way.
        let region = self
            .fabric
            .bulk_get_vec(evostore_rpc::BulkHandle(req.bulk))
            .map_err(|e| format!("bulk pull failed: {e}"))?;
        evostore_obs::ledger::add_chunks_touched(req.manifest.len() as u64);
        evostore_obs::ledger::add_bytes_in(region.len() as u64);

        // Validate the ENTIRE manifest before persisting anything, so a
        // malformed request can never leave partially-stored tensors with
        // no catalog entry referencing them. Entries are independent, so
        // the integrity + spec checks fan out across the rayon pool;
        // `validate_record` verifies framing, dims and checksum without
        // materializing a `TensorData`.
        self.validate_par_batches.fetch_add(1, Ordering::Relaxed);
        let validated = req
            .manifest
            .par_iter()
            .map(|entry| {
                let (off, len) = (entry.offset as usize, entry.len as usize);
                let record = region.slice(off, len).ok_or_else(|| {
                    format!(
                        "manifest entry {} out of bulk bounds ({} + {} > {})",
                        entry.key,
                        off,
                        len,
                        region.len()
                    )
                })?;
                // Integrity + spec check before persisting.
                let (shape, dtype) =
                    validate_record(&record).map_err(|e| format!("tensor {}: {e}", entry.key))?;
                let specs = req
                    .graph
                    .param_specs(evostore_tensor::VertexId(entry.key.vertex.0));
                let spec = specs
                    .iter()
                    .find(|s| s.slot == entry.key.slot)
                    .ok_or_else(|| format!("tensor {} has no spec in the graph", entry.key))?;
                if spec.shape != shape || spec.dtype != dtype {
                    return Err(format!(
                        "tensor {} does not match its layer spec ({:?} {} vs {:?} {})",
                        entry.key, shape, dtype, spec.shape, spec.dtype
                    ));
                }
                Ok((entry.key, record))
            })
            .collect::<Result<Vec<_>, String>>()?;

        // When delta encoding is on and the parent is cataloged locally,
        // each self-owned tensor may be stored as a delta against the
        // parent's tensor at the same vertex/slot (only when the base is
        // co-located and the delta actually saves space).
        let parent_map = if self.delta.enabled {
            req.parent.and_then(|p| {
                self.catalog
                    .read()
                    .records
                    .get(&p)
                    .map(|r| r.owner_map.clone())
            })
        } else {
            None
        };

        let kv = self.kv_span("kv.put_tensors");
        let mut bytes_stored = 0u64;
        for (key, record) in validated {
            bytes_stored += record.len() as u64;
            let delta = parent_map
                .as_ref()
                .and_then(|map| self.try_delta_encode(key, &record, map));
            match delta {
                Some((blob, base_enc)) => {
                    self.store()
                        .put_record(&key.encode(), blob, 1)
                        .map_err(|e| format!("store tensor {key}: {e}"))?;
                    self.delta_deps
                        .lock()
                        .entry(base_enc)
                        .or_default()
                        .push(key.encode().to_vec());
                    self.delta_stored.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    self.store()
                        .put_record(&key.encode(), record, 1)
                        .map_err(|e| format!("store tensor {key}: {e}"))?;
                }
            }
        }
        drop(kv);

        let timestamp = match req.timestamp {
            // Mirror leg: adopt the stamp the first replica assigned and
            // keep the shared clock ahead of it, so every replica of the
            // model records the same write order.
            Some(ts) => {
                self.clock.fetch_max(ts + 1, Ordering::Relaxed);
                ts
            }
            None => self.clock.fetch_add(1, Ordering::Relaxed),
        };
        let record = ModelRecord {
            graph: Arc::new(req.graph),
            owner_map: req.owner_map,
            parent: req.parent,
            quality: req.quality,
            timestamp,
            optimizer_keys: Vec::new(),
        };
        self.persist_record(req.model, &record);
        self.mutate_catalog(|c| c.insert(req.model, record));
        Ok(StoreModelReply {
            timestamp,
            bytes_stored,
        })
    }

    /// The encoded-bytes fast path behind the `GET_META` handler: build
    /// (and deep-clone the compact graph) at most once per stored record
    /// incarnation, then serve the cached JSON encoding. The cache entry
    /// is keyed by record timestamp, so a re-store or anti-entropy sync
    /// that installs a newer record invalidates it implicitly.
    fn get_meta_encoded(&self, req: GetMetaRequest) -> Result<Bytes, String> {
        let snap = self.catalog_snapshot();
        let rec = snap
            .get(req.model)
            .ok_or_else(|| format!("model {} not found", req.model))?;
        if let Some(blob) = self.meta_replies.get(req.model, rec.timestamp) {
            return Ok(blob);
        }
        let reply = ModelMetaReply {
            graph: (*rec.graph).clone(),
            owner_map: rec.owner_map.clone(),
            parent: rec.parent,
            quality: rec.quality,
            timestamp: rec.timestamp,
        };
        let blob = Bytes::from(serde_json::to_vec(&reply).map_err(|e| format!("encode: {e}"))?);
        self.meta_replies
            .insert(req.model, reply.timestamp, blob.clone());
        Ok(blob)
    }

    /// Handle a tensor read: gather the requested tensors into one
    /// freshly exposed bulk region. Per-key kv lookups fan out across
    /// the rayon pool; memory-resident records are appended to the
    /// region as shared-buffer clones (`get_ref`, zero copy), anything
    /// else falls back to a copying `get`.
    pub fn handle_read(&self, req: ReadTensorsRequest) -> Result<ReadTensorsReply, String> {
        let kv = self.kv_span("kv.read_tensors");
        let records = req
            .keys
            .par_iter()
            .map(|key| {
                if !self.places_here(key.owner) {
                    return Err(format!(
                        "tensor {key} is not hosted by provider {}",
                        self.index
                    ));
                }
                let enc = key.encode();
                // The delta-preserving sync driver reads *stored* record
                // bytes verbatim — a delta record crosses the wire as the
                // delta, never materialized.
                if req.raw_records {
                    if let Some(record) = self.store().get_record_ref(&enc) {
                        return Ok((record, true));
                    }
                    return self
                        .store()
                        .get_record(&enc)
                        .map(|record| (record, false))
                        .map_err(|_| format!("tensor {key} not stored"));
                }
                if let Some(record) = self.store().get_record_ref(&enc) {
                    // A delta record must be reconstructed before it
                    // leaves the provider; it counts as a fallback
                    // (the reply buffer is freshly built).
                    if !is_delta(&record) {
                        return Ok((record, true));
                    }
                    return self
                        .materialize(record)
                        .map(|r| (r, false))
                        .map_err(|e| format!("tensor {key}: {e}"));
                }
                let record = self
                    .store()
                    .get_record(&enc)
                    .map_err(|_| format!("tensor {key} not stored"))?;
                self.materialize(record)
                    .map(|r| (r, false))
                    .map_err(|e| format!("tensor {key}: {e}"))
            })
            .collect::<Result<Vec<(Bytes, bool)>, String>>()?;
        drop(kv);
        let manifest = self.logical_manifest(&req.keys, &records);
        evostore_obs::ledger::add_chunks_touched(manifest.len() as u64);
        evostore_obs::ledger::add_bytes_out(manifest.iter().map(|e| e.len).sum());
        let bulk = self.expose_records(records);
        Ok(ReadTensorsReply {
            manifest,
            bulk: bulk.0,
        })
    }

    /// Manifest over the *logical* concatenation of `records` (offsets
    /// accumulate record lengths; no buffer is built), tallying the
    /// zero-copy/fallback read counters as it goes.
    fn logical_manifest(
        &self,
        keys: &[TensorKey],
        records: &[(Bytes, bool)],
    ) -> Vec<ManifestEntry> {
        let mut manifest = Vec::with_capacity(records.len());
        let mut offset = 0u64;
        let (mut zero_copy, mut fallback) = (0u64, 0u64);
        for (key, (record, shared)) in keys.iter().zip(records) {
            manifest.push(ManifestEntry {
                key: *key,
                offset,
                len: record.len() as u64,
            });
            offset += record.len() as u64;
            if *shared {
                zero_copy += 1;
            } else {
                fallback += 1;
            }
        }
        self.zero_copy_reads.fetch_add(zero_copy, Ordering::Relaxed);
        self.copy_fallback_reads
            .fetch_add(fallback, Ordering::Relaxed);
        manifest
    }

    /// Expose fetched records as one vectored bulk region: each record
    /// becomes a segment, no copy.
    fn expose_records(&self, records: Vec<(Bytes, bool)>) -> evostore_rpc::BulkHandle {
        let segments: Vec<Bytes> = records.into_iter().map(|(r, _)| r).collect();
        self.bulk_segments_exposed
            .fetch_add(segments.len() as u64, Ordering::Relaxed);
        self.fabric.bulk_expose_vec(segments)
    }

    /// Handle reference-count increments (pinning a new descendant's
    /// inherited tensors).
    ///
    /// Idempotent per [`RefsRequest::op_id`]: a retry of an operation that
    /// already applied (its reply was lost in flight) is answered from
    /// cache without touching the counts.
    pub fn handle_incr_refs(&self, req: RefsRequest) -> Result<RefsReply, String> {
        if let Some(reply) = self.refs_ops.lock().get(req.op_id) {
            return Ok(reply);
        }
        // Check-then-apply: a missing tensor indicates the ancestor was
        // retired between query and pin; the whole request fails and the
        // client re-queries.
        for key in &req.keys {
            if !self.store().contains_record(&key.encode()) {
                return Err(format!("tensor {key} no longer stored (ancestor retired?)"));
            }
        }
        for key in &req.keys {
            self.store()
                .incr_record(&key.encode())
                .map_err(|e| format!("incr {key}: {e}"))?;
        }
        let reply = RefsReply {
            applied: req.keys.len(),
            reclaimed: 0,
        };
        self.refs_ops.lock().record(req.op_id, reply.clone());
        Ok(reply)
    }

    /// Handle reference-count decrements (model retirement); tensors whose
    /// count reaches zero are reclaimed.
    ///
    /// Idempotent per [`RefsRequest::op_id`] (see
    /// [`ProviderState::handle_incr_refs`]) — essential here, because a
    /// duplicated decrement would drop a shared tensor's count to zero
    /// and delete data still referenced by live models.
    pub fn handle_decr_refs(&self, req: RefsRequest) -> Result<RefsReply, String> {
        if let Some(reply) = self.refs_ops.lock().get(req.op_id) {
            return Ok(reply);
        }
        // Check-then-apply so a malformed request fails whole: no keys
        // decremented when any key is unknown.
        for key in &req.keys {
            if !self.store().contains_record(&key.encode()) {
                return Err(format!("decr {key}: not stored"));
            }
        }
        let mut reclaimed = 0usize;
        for key in &req.keys {
            let enc = key.encode();
            if self.store().record_refs(&enc) == 1 {
                self.before_reclaim(&enc)
                    .map_err(|e| format!("decr {key}: {e}"))?;
            }
            match self.store().decr_record(&enc) {
                Ok(0) => reclaimed += 1,
                Ok(_) => {}
                Err(e) => return Err(format!("decr {key}: {e}")),
            }
        }
        let reply = RefsReply {
            applied: req.keys.len(),
            reclaimed,
        };
        self.refs_ops.lock().record(req.op_id, reply.clone());
        Ok(reply)
    }

    /// Handle a provider-side LCP scan and return the best match (longest
    /// prefix; quality breaks ties; lower model id breaks exact ties
    /// deterministically).
    ///
    /// The default path consults the [`ArchIndex`]: one `lcp()` per
    /// distinct non-memoized architecture whose root matches the query
    /// and whose vertex count can still beat the best length so far. The
    /// unindexed path (A/B measurement, [`ProviderState::set_index_enabled`])
    /// scans every stored model in parallel; both return identical
    /// candidates.
    pub fn handle_lcp(&self, req: LcpQueryRequest) -> Result<LcpQueryReply, String> {
        let snap = self.catalog_snapshot();
        let reply = self.lcp_reply_on(&snap, &req.graph);
        self.query_stats.note(reply.stats);
        Ok(reply)
    }

    /// Answer one LCP query against a pinned snapshot (shared by the
    /// single-query and batched handlers; the caller accumulates stats).
    fn lcp_reply_on(&self, snap: &CatalogSnapshot, g: &CompactGraph) -> LcpQueryReply {
        if self.index_enabled.load(Ordering::Relaxed) {
            let (best, stats) = snap.index.best_ancestor(g);
            return LcpQueryReply {
                best: best.map(|c| LcpCandidate {
                    model: c.model,
                    quality: c.quality,
                    lcp: (*c.lcp).clone(),
                }),
                scanned: stats.scanned as usize,
                stats,
            };
        }

        let candidates: Vec<(ModelId, Arc<CompactGraph>, f64)> = snap
            .records()
            .map(|(id, rec)| (id, Arc::clone(&rec.graph), rec.quality))
            .collect();
        let scanned = candidates.len();
        let best = candidates
            .into_par_iter()
            .map(|(model, graph, quality)| {
                let r = lcp(g, &graph);
                (model, quality, r)
            })
            .filter(|(_, _, r)| !r.is_empty())
            .max_by(|(ma, qa, ra), (mb, qb, rb)| {
                ra.len()
                    .cmp(&rb.len())
                    .then(qa.partial_cmp(qb).unwrap_or(std::cmp::Ordering::Equal))
                    .then(mb.cmp(ma)) // lower id wins => treat lower as greater
            })
            .map(|(model, quality, lcp)| LcpCandidate {
                model,
                quality,
                lcp,
            });
        let stats = IndexQueryStats {
            candidates: scanned as u64,
            scanned: scanned as u64,
            ..IndexQueryStats::default()
        };
        LcpQueryReply {
            best,
            scanned,
            stats,
        }
    }

    /// Handle a batched LCP scan: every query in the envelope is answered
    /// against *one* pinned snapshot (coherent across the batch), fanned
    /// across the rayon pool. Dispatch, tracing, and snapshot acquisition
    /// are paid once per envelope instead of once per query.
    pub fn handle_lcp_batch(&self, req: LcpBatchRequest) -> Result<LcpBatchReply, String> {
        let snap = self.catalog_snapshot();
        let replies: Vec<LcpQueryReply> = req
            .graphs
            .par_iter()
            .map(|g| self.lcp_reply_on(&snap, g))
            .collect();
        let agg = replies
            .iter()
            .fold(IndexQueryStats::default(), |acc, r| acc.merge(r.stats));
        self.query_stats.note(agg);
        self.batch_envelopes.fetch_add(1, Ordering::Relaxed);
        self.batch_queries
            .fetch_add(req.graphs.len() as u64, Ordering::Relaxed);
        Ok(LcpBatchReply { replies })
    }

    /// Handle metadata retirement. The caller receives the owner map and
    /// is responsible for the decrement fan-out.
    pub fn handle_retire_meta(&self, req: RetireMetaRequest) -> Result<RetireMetaReply, String> {
        let rec = self
            .mutate_catalog(|c| c.remove(req.model))
            .ok_or_else(|| format!("model {} not found", req.model))?;
        self.unpersist_record(req.model);
        self.meta_replies.remove(req.model);
        // Tombstone the retirement so anti-entropy can tell a replica
        // that missed this retirement from one that missed a newer
        // store of the same id.
        let retired_at = self.clock.fetch_add(1, Ordering::Relaxed);
        self.record_tombstone(Tombstone {
            model: req.model,
            record_timestamp: rec.timestamp,
            retired_at,
        });
        // Optimizer state is model-private and replica-local: each
        // replica reclaims its own copy on its retire leg.
        for key in &rec.optimizer_keys {
            let enc = key.encode();
            if self.store().record_refs(&enc) == 1 {
                let _ = self.before_reclaim(&enc);
            }
            let _ = self.store().decr_record(&enc);
        }
        Ok(RetireMetaReply {
            owner_map: rec.owner_map.clone(),
            timestamp: rec.timestamp,
        })
    }

    /// Record a retirement, keeping the newest incarnation per model.
    fn record_tombstone(&self, t: Tombstone) {
        let mut tombs = self.tombstones.lock();
        let entry = tombs.entry(t.model).or_insert(t);
        if (t.record_timestamp, t.retired_at) > (entry.record_timestamp, entry.retired_at) {
            *entry = t;
        }
    }

    /// Handle a partial (element-range) tensor read.
    pub fn handle_read_range(&self, req: ReadRangeRequest) -> Result<ReadRangeReply, String> {
        if !self.places_here(req.key.owner) {
            return Err(format!(
                "tensor {} is not hosted by provider {}",
                req.key, self.index
            ));
        }
        let record = self
            .resolve_record(&req.key.encode())
            .map_err(|e| format!("tensor {}: {e}", req.key))?;
        let (range, dtype) = evostore_tensor::payload_range(&record)
            .map_err(|e| format!("tensor {}: {e}", req.key))?;
        let esz = dtype.size_of() as u64;
        let start = range.start as u64 + req.elem_offset * esz;
        let end = start + req.elem_count * esz;
        if end > range.end as u64 {
            return Err(format!(
                "range {}+{} elements out of bounds for tensor {}",
                req.elem_offset, req.elem_count, req.key
            ));
        }
        let slice = record.slice(start as usize..end as usize);
        let bulk = self.fabric.bulk_expose(slice);
        Ok(ReadRangeReply {
            dtype_tag: dtype.tag(),
            bulk: bulk.0,
        })
    }

    /// Handle a catalog pattern scan. Patterns are architecture-only
    /// predicates, so the indexed path evaluates each *distinct*
    /// architecture once and fans the verdict out to every model in its
    /// bucket; the unindexed path tests every record in parallel.
    pub fn handle_match_pattern(
        &self,
        req: PatternQueryRequest,
    ) -> Result<PatternQueryReply, String> {
        let snap = self.catalog_snapshot();
        let reply = self.pattern_reply_on(&snap, &req.pattern);
        self.query_stats.note(reply.stats);
        Ok(reply)
    }

    /// Answer one pattern query against a pinned snapshot (shared by the
    /// single-query and batched handlers; the caller accumulates stats).
    fn pattern_reply_on(&self, snap: &CatalogSnapshot, pattern: &ArchPattern) -> PatternQueryReply {
        if self.index_enabled.load(Ordering::Relaxed) {
            let (matches, stats) = snap.index.match_pattern(pattern);
            return PatternQueryReply {
                matches,
                scanned: stats.scanned as usize,
                stats,
            };
        }

        let candidates: Vec<(ModelId, Arc<CompactGraph>, f64)> = snap
            .records()
            .map(|(id, rec)| (id, Arc::clone(&rec.graph), rec.quality))
            .collect();
        let scanned = candidates.len();
        let mut matches: Vec<(ModelId, f64)> = candidates
            .into_par_iter()
            .filter(|(_, g, _)| pattern.matches(g))
            .map(|(id, _, q)| (id, q))
            .collect();
        matches.sort_by_key(|a| a.0);
        let stats = IndexQueryStats {
            candidates: scanned as u64,
            scanned: scanned as u64,
            ..IndexQueryStats::default()
        };
        PatternQueryReply {
            matches,
            scanned,
            stats,
        }
    }

    /// Handle a batched pattern scan against one pinned snapshot (see
    /// [`ProviderState::handle_lcp_batch`]).
    pub fn handle_match_pattern_batch(
        &self,
        req: PatternBatchRequest,
    ) -> Result<PatternBatchReply, String> {
        let snap = self.catalog_snapshot();
        let replies: Vec<PatternQueryReply> = req
            .patterns
            .par_iter()
            .map(|p| self.pattern_reply_on(&snap, p))
            .collect();
        let agg = replies
            .iter()
            .fold(IndexQueryStats::default(), |acc, r| acc.merge(r.stats));
        self.query_stats.note(agg);
        self.batch_envelopes.fetch_add(1, Ordering::Relaxed);
        self.batch_queries
            .fetch_add(req.patterns.len() as u64, Ordering::Relaxed);
        Ok(PatternBatchReply { replies })
    }

    /// Handle attaching optimizer state to a stored model.
    pub fn handle_store_optimizer(
        &self,
        req: StoreOptimizerRequest,
    ) -> Result<StoreModelReply, String> {
        let region = self
            .fabric
            .bulk_get(evostore_rpc::BulkHandle(req.bulk))
            .map_err(|e| format!("bulk pull failed: {e}"))?;

        // Validate everything first (see handle_store): no partial state
        // on malformed requests.
        let mut validated = Vec::with_capacity(req.manifest.len());
        for entry in &req.manifest {
            if entry.key.owner != req.model || entry.key.vertex.0 != u32::MAX {
                return Err(format!(
                    "optimizer tensor {} must use the owner's optimizer namespace",
                    entry.key
                ));
            }
            let (off, len) = (entry.offset as usize, entry.len as usize);
            if off
                .checked_add(len)
                .map(|end| end > region.len())
                .unwrap_or(true)
            {
                return Err(format!(
                    "optimizer manifest entry {} out of bounds",
                    entry.key
                ));
            }
            let record = region.slice(off..off + len);
            evostore_tensor::read_tensor(record.clone())
                .map_err(|e| format!("optimizer tensor {}: {e}", entry.key))?;
            validated.push((entry.key, record));
        }
        // Attach under the write lock (check-then-act vs concurrent
        // attaches stays atomic); the records are shared `Arc`s, so the
        // mutation copies-on-write and the published snapshot picks up
        // the new incarnation without disturbing pinned readers.
        let (rec_clone, timestamp, bytes_stored) = self.mutate_catalog(|catalog| {
            let rec = catalog
                .records
                .get_mut(&req.model)
                .ok_or_else(|| format!("model {} not found", req.model))?;
            if !rec.optimizer_keys.is_empty() {
                return Err(format!("model {} already has optimizer state", req.model));
            }
            let mut bytes_stored = 0u64;
            let mut keys = Vec::with_capacity(validated.len());
            for (key, record) in validated {
                bytes_stored += record.len() as u64;
                self.store()
                    .put_record(&key.encode(), record, 1)
                    .map_err(|e| format!("store optimizer tensor {key}: {e}"))?;
                keys.push(key);
            }
            let rec = Arc::make_mut(rec);
            rec.optimizer_keys = keys;
            Ok::<_, String>((rec.clone(), rec.timestamp, bytes_stored))
        })?;
        self.persist_record(req.model, &rec_clone);
        Ok(StoreModelReply {
            timestamp,
            bytes_stored,
        })
    }

    /// Handle fetching a model's optimizer state.
    pub fn handle_load_optimizer(
        &self,
        req: LoadOptimizerRequest,
    ) -> Result<ReadTensorsReply, String> {
        let keys = {
            let snap = self.catalog_snapshot();
            let rec = snap
                .get(req.model)
                .ok_or_else(|| format!("model {} not found", req.model))?;
            rec.optimizer_keys.clone()
        };
        // Same zero-copy gather as `handle_read`: memory-resident
        // optimizer tensors become shared segments, disk-resident ones
        // fall back to a copying `get`.
        let records = keys
            .par_iter()
            .map(|key| {
                let enc = key.encode();
                if let Some(record) = self.store().get_record_ref(&enc) {
                    return Ok((record, true));
                }
                self.store()
                    .get_record(&enc)
                    .map(|record| (record, false))
                    .map_err(|_| format!("optimizer tensor {key} not stored"))
            })
            .collect::<Result<Vec<(Bytes, bool)>, String>>()?;
        let manifest = self.logical_manifest(&keys, &records);
        let bulk = self.expose_records(records);
        Ok(ReadTensorsReply {
            manifest,
            bulk: bulk.0,
        })
    }

    // ---- anti-entropy repair --------------------------------------------

    /// Handle a digest request: summarize every cataloged model (id,
    /// timestamp, referenced tensor keys) and every witnessed
    /// retirement. The repair pass unions these across providers to
    /// find stale or under-replicated replicas.
    pub fn handle_digest(&self, _req: DigestRequest) -> Result<DigestReply, String> {
        let models = {
            let snap = self.catalog_snapshot();
            snap.records()
                .map(|(model, rec)| ModelDigest {
                    model,
                    timestamp: rec.timestamp,
                    ref_keys: rec.owner_map.all_tensor_keys(),
                    optimizer_keys: rec.optimizer_keys.clone(),
                })
                .collect()
        };
        let tombstones = self.tombstones.lock().values().copied().collect();
        Ok(DigestReply {
            provider_index: self.index,
            models,
            tombstones,
        })
    }

    /// Handle a model sync: install the record and its tensor payloads
    /// unless the local copy is already at least as new. Payloads come
    /// from a peer replica that validated them at original store time,
    /// so only framing integrity is re-checked here.
    pub fn handle_sync_model(&self, req: SyncModelRequest) -> Result<SyncModelReply, String> {
        if !self.places_here(req.model) {
            return Err(format!(
                "model {} does not place on provider {}",
                req.model, self.index
            ));
        }
        if let Some((ts, opt_len)) = self
            .catalog
            .read()
            .records
            .get(&req.model)
            .map(|r| (r.timestamp, r.optimizer_keys.len()))
        {
            // Equal-timestamp records can still differ: attaching
            // optimizer state does not bump the write stamp, so a
            // replica that missed only the attachment is stale despite
            // matching timestamps.
            let req_opt = req
                .manifest
                .iter()
                .filter(|e| e.key.vertex.0 == u32::MAX)
                .count();
            if ts > req.timestamp || (ts == req.timestamp && opt_len >= req_opt) {
                return Ok(SyncModelReply {
                    applied: false,
                    tensors_stored: 0,
                });
            }
        }
        let region = self
            .fabric
            .bulk_get(evostore_rpc::BulkHandle(req.bulk))
            .map_err(|e| format!("bulk pull failed: {e}"))?;
        evostore_obs::ledger::add_bytes_in(region.len() as u64);
        let mut validated = Vec::with_capacity(req.manifest.len());
        for entry in &req.manifest {
            let (off, len) = (entry.offset as usize, entry.len as usize);
            if off
                .checked_add(len)
                .map(|end| end > region.len())
                .unwrap_or(true)
            {
                return Err(format!("sync manifest entry {} out of bounds", entry.key));
            }
            let record = region.slice(off..off + len);
            if req.raw_records && is_delta(&record) {
                // Delta-preserving leg: the payload is the source's
                // stored EVDL record shipped verbatim. Validate the
                // delta framing and require the base to be resolvable
                // here (already stored, or part of this same sync) —
                // otherwise the driver must fall back to a
                // materialized sync.
                let head =
                    delta_header(&record).map_err(|e| format!("tensor {}: {e}", entry.key))?;
                if !self.delta.enabled {
                    return Err(format!(
                        "tensor {}: delta record shipped to a delta-disabled provider",
                        entry.key
                    ));
                }
                let base_local = self.store().contains_record(&head.base_key);
                let base_inbound = req.manifest.iter().any(|m| m.key.encode() == head.base_key);
                if !base_local && !base_inbound {
                    return Err(format!(
                        "tensor {}: delta base not present on the target",
                        entry.key
                    ));
                }
            } else {
                read_tensor(record.clone()).map_err(|e| format!("tensor {}: {e}", entry.key))?;
            }
            validated.push((entry.key, record));
        }
        // Replace a stale record (an older incarnation under the same
        // id); its private optimizer copies go with it.
        if let Some(old) = self.mutate_catalog(|c| c.remove(req.model)) {
            for key in &old.optimizer_keys {
                let enc = key.encode();
                if self.store().record_refs(&enc) == 1 {
                    let _ = self.before_reclaim(&enc);
                }
                let _ = self.store().decr_record(&enc);
            }
        }
        let mut tensors_stored = 0usize;
        for (key, record) in validated {
            // Already-present payloads keep their count: the refs sync
            // that follows installs the authoritative values. On the
            // default (materialized) leg payloads arrive raw; under
            // `raw_records` a delta record is installed verbatim and
            // its reclaim fencing registered on arrival.
            let enc = key.encode();
            if !self.store().contains_record(&enc) {
                let delta_head = if req.raw_records && is_delta(&record) {
                    Some(delta_header(&record).map_err(|e| format!("tensor {key}: {e}"))?)
                } else {
                    None
                };
                let record_len = record.len() as u64;
                self.store()
                    .put_record(&enc, record, 1)
                    .map_err(|e| format!("sync tensor {key}: {e}"))?;
                if let Some(head) = delta_head {
                    self.delta_deps
                        .lock()
                        .entry(head.base_key.to_vec())
                        .or_default()
                        .push(enc.to_vec());
                    self.delta_stored.fetch_add(1, Ordering::Relaxed);
                    self.transfer_deltas_shipped.fetch_add(1, Ordering::Relaxed);
                    self.transfer_bytes_saved.fetch_add(
                        (head.raw_len as u64).saturating_sub(record_len),
                        Ordering::Relaxed,
                    );
                }
                tensors_stored += 1;
            }
        }
        self.clock.fetch_max(req.timestamp + 1, Ordering::Relaxed);
        let mut optimizer_keys: Vec<TensorKey> = req
            .manifest
            .iter()
            .map(|e| e.key)
            .filter(|k| k.vertex.0 == u32::MAX)
            .collect();
        optimizer_keys.sort_by_key(|k| k.slot);
        let record = ModelRecord {
            graph: Arc::new(req.graph),
            owner_map: req.owner_map,
            parent: req.parent,
            quality: req.quality,
            timestamp: req.timestamp,
            optimizer_keys,
        };
        self.persist_record(req.model, &record);
        self.mutate_catalog(|c| c.insert(req.model, record));
        Ok(SyncModelReply {
            applied: true,
            tensors_stored,
        })
    }

    // ---- derivative-aware transfer plane --------------------------------

    /// Assemble at most [`DELTA_PROBE_LEN`] head bytes of a chunked
    /// record from its leading chunks — `provided` payloads first, the
    /// local chunk store second — and return the record's delta header
    /// (`None` for raw records). Framing is validated without ever
    /// assembling the record.
    fn probe_chunked_framing(
        &self,
        key: TensorKey,
        total: u64,
        hashes: &[[u8; 16]],
        provided: &HashMap<u128, Bytes>,
    ) -> Result<Option<DeltaHeader>, String> {
        let mut prefix = BytesMut::new();
        for hb in hashes {
            if prefix.len() >= DELTA_PROBE_LEN || prefix.len() as u64 >= total {
                break;
            }
            let h = wire_hash(hb);
            let chunk = match provided.get(&h.0) {
                Some(c) => c.clone(),
                None => match self.store().record_chunk_fetch(h) {
                    Some(Ok(c)) => c,
                    Some(Err(_)) | None => {
                        return Err(format!(
                            "record {key}: head chunk {:032x} unavailable for framing validation",
                            h.0
                        ))
                    }
                },
            };
            prefix.extend_from_slice(&chunk);
        }
        if !is_delta(&prefix) {
            return Ok(None);
        }
        delta_probe(&prefix, total as usize)
            .map(Some)
            .map_err(|e| format!("record {key}: {e}"))
    }

    /// Handle a transfer-manifest request (sync source side): describe
    /// how each record's *stored* bytes decompose into content-addressed
    /// chunks and delta linkage, without materializing anything — the
    /// opening move of a chunk-negotiated sync.
    pub fn handle_transfer_manifest(
        &self,
        req: TransferManifestRequest,
    ) -> Result<TransferManifestReply, String> {
        let chunk = self.store().record_chunk_stats();
        let (chunked, chunk_size) = match &chunk {
            Some(s) => (true, s.chunk_size),
            None => (false, 0),
        };
        let no_push = HashMap::new();
        let mut records = Vec::with_capacity(req.keys.len());
        for key in &req.keys {
            let enc = key.encode();
            let rec = match self.store().record_chunk_listing(&enc) {
                Some(Ok((total, hashes))) => {
                    let wire: Vec<[u8; 16]> = hashes.iter().map(|h| h.to_bytes()).collect();
                    let head = self.probe_chunked_framing(*key, total as u64, &wire, &no_push)?;
                    let (delta_base, delta_depth) = delta_linkage(*key, head)?;
                    TransferRecord {
                        key: *key,
                        total: total as u64,
                        hashes: wire,
                        delta_base,
                        delta_depth,
                    }
                }
                Some(Err(_)) => return Err(format!("tensor {key} not stored")),
                None => {
                    // Whole layout: no chunk negotiation, but the delta
                    // linkage still drives the delta-preserving leg.
                    let stored = self
                        .store()
                        .get_record(&enc)
                        .map_err(|_| format!("tensor {key} not stored"))?;
                    let head = if is_delta(&stored) {
                        Some(delta_header(&stored).map_err(|e| format!("tensor {key}: {e}"))?)
                    } else {
                        None
                    };
                    let (delta_base, delta_depth) = delta_linkage(*key, head)?;
                    TransferRecord {
                        key: *key,
                        total: stored.len() as u64,
                        hashes: Vec::new(),
                        delta_base,
                        delta_depth,
                    }
                }
            };
            records.push(rec);
        }
        Ok(TransferManifestReply {
            chunked,
            chunk_size,
            records,
        })
    }

    /// Handle a possession probe (sync target side): which of the
    /// offered chunks — and record keys, for delta-base fencing — are
    /// already held here.
    pub fn handle_have_chunks(&self, req: HaveChunksRequest) -> Result<HaveChunksReply, String> {
        let chunk = self.store().record_chunk_stats();
        let (chunked, chunk_size) = match &chunk {
            Some(s) => (true, s.chunk_size),
            None => (false, 0),
        };
        let hashes: Vec<ContentHash> = req.hashes.iter().map(wire_hash).collect();
        let have_chunks = self
            .store()
            .record_chunk_probe(&hashes)
            .unwrap_or_else(|| vec![false; hashes.len()]);
        let have_records = req
            .keys
            .iter()
            .map(|k| self.store().contains_record(&k.encode()))
            .collect();
        self.transfer_chunks_offered
            .fetch_add(req.hashes.len() as u64, Ordering::Relaxed);
        self.transfer_chunks_skipped.fetch_add(
            have_chunks.iter().filter(|b| **b).count() as u64,
            Ordering::Relaxed,
        );
        Ok(HaveChunksReply {
            chunked,
            chunk_size,
            have_chunks,
            have_records,
        })
    }

    /// Handle a chunk read (sync source side): the requested chunk
    /// payloads, by content hash, as one vectored bulk region of shared
    /// buffers (the caller releases it).
    pub fn handle_read_chunks(&self, req: ReadChunksRequest) -> Result<ReadChunksReply, String> {
        let mut lens = Vec::with_capacity(req.hashes.len());
        let mut segments = Vec::with_capacity(req.hashes.len());
        for hb in &req.hashes {
            let h = wire_hash(hb);
            let chunk = match self.store().record_chunk_fetch(h) {
                Some(Ok(c)) => c,
                Some(Err(e)) => return Err(format!("chunk {:032x}: {e}", h.0)),
                None => return Err("store is not content-addressed".into()),
            };
            lens.push(chunk.len() as u64);
            segments.push(chunk);
        }
        evostore_obs::ledger::add_bytes_out(lens.iter().sum());
        evostore_obs::ledger::add_chunks_touched(segments.len() as u64);
        self.transfer_chunks_sent
            .fetch_add(segments.len() as u64, Ordering::Relaxed);
        self.bulk_segments_exposed
            .fetch_add(segments.len() as u64, Ordering::Relaxed);
        let bulk = self.fabric.bulk_expose_vec(segments);
        Ok(ReadChunksReply { lens, bulk: bulk.0 })
    }

    /// Handle a chunk-negotiated, delta-preserving model sync: install
    /// the record from transfer manifests plus only the pushed
    /// (receiver-missing) chunks. Tensors are never materialized on
    /// either side; delta-encoded records arrive verbatim with their
    /// reclaim fencing registered. Staleness rules match
    /// [`ProviderState::handle_sync_model`]; any validation failure
    /// leaves the driver to fall back to a materialized sync.
    pub fn handle_sync_chunks(&self, req: SyncChunksRequest) -> Result<SyncChunksReply, String> {
        if !self.places_here(req.model) {
            return Err(format!(
                "model {} does not place on provider {}",
                req.model, self.index
            ));
        }
        if req.pushed.len() != req.lens.len() {
            return Err("pushed/lens length mismatch".into());
        }
        if let Some((ts, opt_len)) = self
            .catalog
            .read()
            .records
            .get(&req.model)
            .map(|r| (r.timestamp, r.optimizer_keys.len()))
        {
            let req_opt = req
                .records
                .iter()
                .filter(|e| e.key.vertex.0 == u32::MAX)
                .count();
            if ts > req.timestamp || (ts == req.timestamp && opt_len >= req_opt) {
                return Ok(SyncChunksReply {
                    applied: false,
                    records_stored: 0,
                    bytes_saved: 0,
                });
            }
        }
        let region = self
            .fabric
            .bulk_get_vec(evostore_rpc::BulkHandle(req.bulk))
            .map_err(|e| format!("bulk pull failed: {e}"))?;
        evostore_obs::ledger::add_bytes_in(region.len() as u64);
        evostore_obs::ledger::add_chunks_touched(req.pushed.len() as u64);
        // Frame and content-verify every pushed chunk before touching
        // any state: a malformed push can never leave partially-stored
        // records.
        let mut provided: HashMap<u128, Bytes> = HashMap::with_capacity(req.pushed.len());
        let mut off = 0usize;
        for (hb, len) in req.pushed.iter().zip(&req.lens) {
            let len = *len as usize;
            let chunk = region.slice(off, len).ok_or_else(|| {
                format!(
                    "pushed chunk out of bulk bounds ({off} + {len} > {})",
                    region.len()
                )
            })?;
            off += len;
            let h = wire_hash(hb);
            if ContentHash::of_bytes(&chunk) != h {
                return Err(format!("pushed chunk {:032x} fails its content hash", h.0));
            }
            provided.insert(h.0, chunk);
        }
        // Validate every record's claimed delta linkage from its head
        // chunk — available pre-insert from the push or the local chunk
        // store — so a lying manifest can never install a delta record
        // without its reclaim fencing.
        let incoming: std::collections::HashSet<TensorKey> =
            req.records.iter().map(|r| r.key).collect();
        let mut delta_raw_len: HashMap<TensorKey, u64> = HashMap::new();
        for rec in &req.records {
            let head = self.probe_chunked_framing(rec.key, rec.total, &rec.hashes, &provided)?;
            if let Some(h) = &head {
                delta_raw_len.insert(rec.key, h.raw_len as u64);
            }
            match (head, rec.delta_base) {
                (None, None) => {}
                (None, Some(_)) => {
                    return Err(format!(
                        "record {}: manifest claims a delta base for a raw record",
                        rec.key
                    ))
                }
                (Some(_), None) => {
                    return Err(format!(
                        "record {}: manifest omits the stored delta's base",
                        rec.key
                    ))
                }
                (Some(h), Some(base)) => {
                    if !self.delta.enabled {
                        return Err(format!(
                            "record {}: delta record shipped to a delta-disabled provider",
                            rec.key
                        ));
                    }
                    if h.base_key != base.encode() || h.depth != rec.delta_depth {
                        return Err(format!(
                            "record {}: manifest disagrees with the stored delta header",
                            rec.key
                        ));
                    }
                    if !self.store().contains_record(&h.base_key) && !incoming.contains(&base) {
                        return Err(format!(
                            "record {}: delta base {base} not present on the target",
                            rec.key
                        ));
                    }
                }
            }
        }
        // Replace a stale record (an older incarnation under the same
        // id); its private optimizer copies go with it.
        if let Some(old) = self.mutate_catalog(|c| c.remove(req.model)) {
            for key in &old.optimizer_keys {
                let enc = key.encode();
                if self.store().record_refs(&enc) == 1 {
                    let _ = self.before_reclaim(&enc);
                }
                let _ = self.store().decr_record(&enc);
            }
        }
        let kv = self.kv_span("kv.sync_chunks");
        let mut records_stored = 0usize;
        let mut bytes_needed = 0u64;
        for rec in &req.records {
            let enc = rec.key.encode();
            // Already-present records keep their count: the refs sync
            // that follows installs the authoritative values.
            if self.store().contains_record(&enc) {
                continue;
            }
            let hashes: Vec<ContentHash> = rec.hashes.iter().map(wire_hash).collect();
            match self
                .store()
                .put_record_chunked(&enc, rec.total as usize, &hashes, &provided, 1)
            {
                Some(Ok(())) => {}
                Some(Err(e)) => return Err(format!("sync record {}: {e}", rec.key)),
                None => return Err("target store is not content-addressed".into()),
            }
            if let Some(base) = rec.delta_base {
                self.delta_deps
                    .lock()
                    .entry(base.encode().to_vec())
                    .or_default()
                    .push(enc.to_vec());
                self.delta_stored.fetch_add(1, Ordering::Relaxed);
                self.transfer_deltas_shipped.fetch_add(1, Ordering::Relaxed);
            }
            // What a materialized sync would have moved for this record:
            // the reconstructed length for deltas, the record itself
            // otherwise. The pushed region is what actually moved.
            bytes_needed += delta_raw_len.get(&rec.key).copied().unwrap_or(rec.total);
            records_stored += 1;
        }
        drop(kv);
        let bytes_saved = bytes_needed.saturating_sub(region.len() as u64);
        self.transfer_bytes_saved
            .fetch_add(bytes_saved, Ordering::Relaxed);
        self.clock.fetch_max(req.timestamp + 1, Ordering::Relaxed);
        let mut optimizer_keys: Vec<TensorKey> = req
            .records
            .iter()
            .map(|e| e.key)
            .filter(|k| k.vertex.0 == u32::MAX)
            .collect();
        optimizer_keys.sort_by_key(|k| k.slot);
        let record = ModelRecord {
            graph: Arc::new(req.graph),
            owner_map: req.owner_map,
            parent: req.parent,
            quality: req.quality,
            timestamp: req.timestamp,
            optimizer_keys,
        };
        self.persist_record(req.model, &record);
        self.mutate_catalog(|c| c.insert(req.model, record));
        Ok(SyncChunksReply {
            applied: true,
            records_stored,
            bytes_saved,
        })
    }

    /// Handle a chunk-negotiated tensor fetch (delivery-plane peer
    /// exchange): materialize each record, frame it at the caller's
    /// granularity, and push only the chunks the caller does not already
    /// hold — the chunking here is transient wire framing, so it works
    /// over any storage layout.
    pub fn handle_fetch_chunks(&self, req: FetchChunksRequest) -> Result<FetchChunksReply, String> {
        if req.chunk_size == 0 {
            return Err("chunk size must be positive".into());
        }
        let csize = req.chunk_size as usize;
        let have: std::collections::HashSet<u128> =
            req.have.iter().map(|b| wire_hash(b).0).collect();
        let mut records = Vec::with_capacity(req.keys.len());
        let mut pushed = Vec::new();
        let mut lens = Vec::new();
        let mut segments = Vec::new();
        let mut pushed_set = std::collections::HashSet::new();
        let (mut offered, mut skipped) = (0u64, 0u64);
        for key in &req.keys {
            if !self.places_here(key.owner) {
                return Err(format!(
                    "tensor {key} is not hosted by provider {}",
                    self.index
                ));
            }
            let raw = self
                .resolve_record(&key.encode())
                .map_err(|e| format!("tensor {key}: {e}"))?;
            let mut hashes = Vec::with_capacity(raw.len().div_ceil(csize));
            let mut at = 0usize;
            while at < raw.len() {
                let end = (at + csize).min(raw.len());
                let chunk = raw.slice(at..end);
                at = end;
                let h = ContentHash::of_bytes(&chunk);
                hashes.push(h.to_bytes());
                offered += 1;
                // Skip chunks the caller holds, and dedupe within the
                // reply (identical chunks ship once).
                if have.contains(&h.0) || !pushed_set.insert(h.0) {
                    skipped += 1;
                    continue;
                }
                pushed.push(h.to_bytes());
                lens.push(chunk.len() as u64);
                segments.push(chunk);
            }
            records.push(TransferRecord {
                key: *key,
                total: raw.len() as u64,
                hashes,
                delta_base: None,
                delta_depth: 0,
            });
        }
        evostore_obs::ledger::add_bytes_out(lens.iter().sum());
        evostore_obs::ledger::add_chunks_touched(offered);
        self.transfer_chunks_offered
            .fetch_add(offered, Ordering::Relaxed);
        self.transfer_chunks_skipped
            .fetch_add(skipped, Ordering::Relaxed);
        self.transfer_chunks_sent
            .fetch_add(segments.len() as u64, Ordering::Relaxed);
        self.bulk_segments_exposed
            .fetch_add(segments.len() as u64, Ordering::Relaxed);
        let bulk = self.fabric.bulk_expose_vec(segments);
        Ok(FetchChunksReply {
            records,
            pushed,
            lens,
            bulk: bulk.0,
        })
    }

    /// Handle a retirement sync: record each tombstone, drop any stale
    /// record it covers, and fence the retirement's decrement leg so a
    /// parked client decrement re-issued later deduplicates against the
    /// absolute counts the refs sync installs.
    pub fn handle_sync_retire(&self, req: SyncRetireRequest) -> Result<SyncRetireReply, String> {
        let mut removed = 0usize;
        for t in &req.tombstones {
            self.record_tombstone(*t);
            let covered = self
                .catalog
                .read()
                .records
                .get(&t.model)
                .map(|r| r.timestamp <= t.record_timestamp)
                .unwrap_or(false);
            if covered {
                if let Some(rec) = self.mutate_catalog(|c| c.remove(t.model)) {
                    self.unpersist_record(t.model);
                    self.meta_replies.remove(t.model);
                    for key in &rec.optimizer_keys {
                        let enc = key.encode();
                        if self.store().record_refs(&enc) == 1 {
                            let _ = self.before_reclaim(&enc);
                        }
                        let _ = self.store().decr_record(&enc);
                    }
                    removed += 1;
                }
            }
            let fence = RefsRequest::retirement_op_id(t.model, t.record_timestamp, self.index);
            self.refs_ops.lock().record(
                fence,
                RefsReply {
                    applied: 0,
                    reclaimed: 0,
                },
            );
        }
        Ok(SyncRetireReply { removed })
    }

    /// Handle a refs sync: set every listed hosted key to its
    /// authoritative count; optionally delete unlisted tensors (only
    /// when the repair pass saw every provider's digest).
    pub fn handle_sync_refs(&self, req: SyncRefsRequest) -> Result<SyncRefsReply, String> {
        let mut adjusted = 0usize;
        let mut missing = 0usize;
        let mut listed = std::collections::HashSet::with_capacity(req.entries.len());
        for (key, want) in &req.entries {
            listed.insert(*key);
            let enc = key.encode();
            if *want == 0 {
                let _ = self.before_reclaim(&enc);
            }
            match self.store().set_record_refs(&enc, *want) {
                Ok(prev) => {
                    if prev != *want {
                        adjusted += 1;
                    }
                }
                Err(_) => missing += 1,
            }
        }
        let mut removed = 0usize;
        if req.prune_unlisted {
            for key in self.hosted_tensor_keys() {
                if listed.contains(&key) {
                    continue;
                }
                let enc = key.encode();
                let _ = self.before_reclaim(&enc);
                if self.store().set_record_refs(&enc, 0).is_ok() {
                    removed += 1;
                }
            }
        }
        Ok(SyncRefsReply {
            adjusted,
            removed,
            missing,
        })
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

    /// Live entries in the index's LCP memo (diagnostics/tests). The
    /// memo is shared copy-on-write across snapshots, so the published
    /// snapshot's count is the authoritative one.
    pub fn index_memo_len(&self) -> usize {
        self.snapshot.load().index.memo_len()
    }

    /// Current statistics.
    pub fn stats(&self) -> ProviderStats {
        let chunk = self.store().record_chunk_stats().unwrap_or_default();
        let snap = self.catalog_snapshot();
        ProviderStats {
            models: snap.len(),
            distinct_archs: snap.index.distinct_architectures(),
            tensors: self.store().record_count(),
            tensor_bytes: self.store().record_bytes() as u64,
            metadata_bytes: snap
                .records()
                .map(|(_, r)| r.owner_map.metadata_bytes() as u64)
                .sum(),
            query_stats: self.query_stats.load(),
            tensor_kv: self.store().record_metrics().unwrap_or_default(),
            meta_kv: self.meta_store.metrics_snapshot().unwrap_or_default(),
            bulk_segments_exposed: self.bulk_segments_exposed.load(Ordering::Relaxed),
            zero_copy_reads: self.zero_copy_reads.load(Ordering::Relaxed),
            copy_fallback_reads: self.copy_fallback_reads.load(Ordering::Relaxed),
            validate_par_batches: self.validate_par_batches.load(Ordering::Relaxed),
            delta_stored: self.delta_stored.load(Ordering::Relaxed),
            delta_reconstructs: self.delta_reconstructs.load(Ordering::Relaxed),
            delta_rebased: self.delta_rebased.load(Ordering::Relaxed),
            chunks: chunk.chunks,
            chunk_dedup_hits: chunk.dedup_hits,
            chunk_logical_bytes: chunk.logical_bytes,
            chunk_physical_bytes: chunk.physical_bytes,
            snapshot_publications: self.snapshot.swaps(),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            snapshot_retired: self.snapshot.retired_len() as u64,
            batch_envelopes: self.batch_envelopes.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            deliver: self.delivery.stats(),
            transfer_chunks_offered: self.transfer_chunks_offered.load(Ordering::Relaxed),
            transfer_chunks_sent: self.transfer_chunks_sent.load(Ordering::Relaxed),
            transfer_chunks_skipped: self.transfer_chunks_skipped.load(Ordering::Relaxed),
            transfer_deltas_shipped: self.transfer_deltas_shipped.load(Ordering::Relaxed),
            transfer_bytes_saved: self.transfer_bytes_saved.load(Ordering::Relaxed),
        }
    }

    /// This provider's observability registry snapshot, built on demand
    /// (the `OBS_SNAPSHOT` reply): catalog gauges, kv backend counters
    /// per store, index query counters, and flight-ring occupancy.
    pub fn obs_snapshot(&self) -> RegistrySnapshot {
        let stats = self.stats();
        let p = self.index;
        let mut metrics = vec![
            Metric::gauge("evostore_provider_models", stats.models as f64)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_provider_distinct_archs",
                stats.distinct_archs as f64,
            )
            .with_label("provider", p),
            Metric::gauge("evostore_provider_tensors", stats.tensors as f64)
                .with_label("provider", p),
            Metric::gauge("evostore_provider_tensor_bytes", stats.tensor_bytes as f64)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_provider_metadata_bytes",
                stats.metadata_bytes as f64,
            )
            .with_label("provider", p),
            Metric::counter("evostore_index_candidates", stats.query_stats.candidates)
                .with_label("provider", p),
            Metric::counter("evostore_index_scanned", stats.query_stats.scanned)
                .with_label("provider", p),
            Metric::counter("evostore_index_memo_hits", stats.query_stats.memo_hits)
                .with_label("provider", p),
            Metric::counter("evostore_index_deduped", stats.query_stats.deduped)
                .with_label("provider", p),
            Metric::counter("evostore_index_pruned", stats.query_stats.pruned)
                .with_label("provider", p),
            Metric::counter(
                "evostore_index_prefilter_rejected",
                stats.query_stats.prefiltered,
            )
            .with_label("provider", p),
            Metric::counter("evostore_index_answered", stats.query_stats.answered)
                .with_label("provider", p),
            Metric::counter(
                "evostore_index_snapshot_publications",
                stats.snapshot_publications,
            )
            .with_label("provider", p),
            Metric::counter("evostore_index_snapshot_reads", stats.snapshot_reads)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_index_snapshot_retired",
                stats.snapshot_retired as f64,
            )
            .with_label("provider", p),
            Metric::counter("evostore_index_batch_envelopes", stats.batch_envelopes)
                .with_label("provider", p),
            Metric::counter("evostore_index_batch_queries", stats.batch_queries)
                .with_label("provider", p),
            Metric::counter(
                "evostore_datapath_bulk_segments_exposed",
                stats.bulk_segments_exposed,
            )
            .with_label("provider", p),
            Metric::counter("evostore_datapath_zero_copy_reads", stats.zero_copy_reads)
                .with_label("provider", p),
            Metric::counter(
                "evostore_datapath_copy_fallback_reads",
                stats.copy_fallback_reads,
            )
            .with_label("provider", p),
            Metric::counter(
                "evostore_datapath_validate_par_batches",
                stats.validate_par_batches,
            )
            .with_label("provider", p),
            Metric::counter("evostore_delta_stored", stats.delta_stored).with_label("provider", p),
            Metric::counter("evostore_delta_reconstructs", stats.delta_reconstructs)
                .with_label("provider", p),
            Metric::counter("evostore_delta_rebased", stats.delta_rebased)
                .with_label("provider", p),
            Metric::gauge("evostore_chunk_count", stats.chunks as f64).with_label("provider", p),
            Metric::counter("evostore_chunk_dedup_hits", stats.chunk_dedup_hits)
                .with_label("provider", p),
            Metric::gauge(
                "evostore_chunk_logical_bytes",
                stats.chunk_logical_bytes as f64,
            )
            .with_label("provider", p),
            Metric::gauge(
                "evostore_chunk_physical_bytes",
                stats.chunk_physical_bytes as f64,
            )
            .with_label("provider", p),
            Metric::counter(
                "evostore_transfer_chunks_offered",
                stats.transfer_chunks_offered,
            )
            .with_label("provider", p),
            Metric::counter("evostore_transfer_chunks_sent", stats.transfer_chunks_sent)
                .with_label("provider", p),
            Metric::counter(
                "evostore_transfer_chunks_skipped",
                stats.transfer_chunks_skipped,
            )
            .with_label("provider", p),
            Metric::counter(
                "evostore_transfer_deltas_shipped",
                stats.transfer_deltas_shipped,
            )
            .with_label("provider", p),
            Metric::counter("evostore_transfer_bytes_saved", stats.transfer_bytes_saved)
                .with_label("provider", p),
        ];
        for (store, snap) in [("tensors", stats.tensor_kv), ("meta", stats.meta_kv)] {
            for (name, v) in [
                ("evostore_kv_puts", snap.puts),
                ("evostore_kv_gets", snap.gets),
                ("evostore_kv_misses", snap.misses),
                ("evostore_kv_deletes", snap.deletes),
                ("evostore_kv_bytes_written", snap.bytes_written),
                ("evostore_kv_bytes_read", snap.bytes_read),
            ] {
                metrics.push(
                    Metric::counter(name, v)
                        .with_label("provider", p)
                        .with_label("store", store),
                );
            }
        }
        metrics.extend(stats.deliver.metrics(p));
        metrics.extend(self.ledger.metrics(&format!("provider{p}")));
        // Under an ObsHub the hub's own source emits this ring's
        // counters; emitting them here too would double-count in the
        // merged snapshot.
        if !self.hub_attached {
            let rec = self.tracer.recorder();
            metrics.push(
                Metric::counter("evostore_obs_flight_events", rec.recorded())
                    .with_label("node", rec.node()),
            );
            metrics.push(
                Metric::counter("evostore_obs_flight_dropped", rec.dropped())
                    .with_label("node", rec.node()),
            );
        }
        RegistrySnapshot::from_metrics(metrics)
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
        self.store().record_refs(&key.encode())
    }

    /// Every cataloged record as `(model, timestamp, owner_map,
    /// optimizer_keys)` — the union-catalog input of replication-aware
    /// audits and recovery replays.
    pub fn catalog_entries(&self) -> Vec<(ModelId, u64, OwnerMap, Vec<TensorKey>)> {
        self.catalog_snapshot()
            .records()
            .map(|(m, r)| {
                (
                    m,
                    r.timestamp,
                    r.owner_map.clone(),
                    r.optimizer_keys.clone(),
                )
            })
            .collect()
    }

    /// Consistency check between the refcount wrapper and the backend.
    pub fn audit_tensors(&self) -> Result<(), String> {
        self.store().audit_records()
    }

    /// Insert a metadata-only catalog entry (no tensors) — the tensor-less
    /// catalog population path of the Fig 5 micro-benchmark, where "the
    /// actual DL model tensors are not stored" (§5.5).
    pub fn insert_meta_only(&self, model: ModelId, graph: CompactGraph, quality: f64) {
        assert!(
            self.places_here(model),
            "model {model} does not hash to provider {}",
            self.index
        );
        let owner_map = OwnerMap::fresh(model, &graph);
        let timestamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.mutate_catalog(|c| {
            c.insert(
                model,
                ModelRecord {
                    graph: Arc::new(graph),
                    owner_map,
                    parent: None,
                    quality,
                    timestamp,
                    optimizer_keys: Vec::new(),
                },
            )
        });
    }

    /// Keys of every tensor hosted here (GC audits). Iterates the
    /// backend in place ([`KvBackend::for_each_key`]) instead of
    /// materializing one `Vec<u8>` per stored key.
    pub fn hosted_tensor_keys(&self) -> Vec<TensorKey> {
        let mut keys = Vec::new();
        self.store().for_each_record_key(&mut |k| {
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
}

/// A running provider: shared state + its fabric endpoint.
pub struct Provider {
    /// Shared state (handlers hold clones of this Arc).
    pub state: Arc<ProviderState>,
    endpoint: Endpoint,
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
    /// backend and RPC service thread count. When an [`ObsHub`] is
    /// given, the provider's flight recorder registers with it (and
    /// stamps time from the hub clock — the simulator's virtual clock in
    /// simulated runs); otherwise the provider keeps a private
    /// wall-clock ring.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        fabric: Arc<Fabric>,
        index: usize,
        num_providers: usize,
        replication: ReplicationPolicy,
        clock: Arc<AtomicU64>,
        backend: Box<dyn KvBackend>,
        meta_store: Box<dyn KvBackend>,
        service_threads: usize,
        obs: Option<&ObsHub>,
        delta: DeltaPolicy,
        deliver_fanout: usize,
    ) -> Provider {
        let endpoint = fabric.create_endpoint(service_threads);
        let node = format!("provider{index}");
        let tracer = match obs {
            Some(hub) => Tracer::new(
                &node,
                Arc::clone(hub.clock()),
                hub.new_recorder(&node, PROVIDER_FLIGHT_EVENTS),
            ),
            None => {
                let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
                let ring = Arc::new(FlightRecorder::new(
                    &node,
                    PROVIDER_FLIGHT_EVENTS,
                    Arc::clone(&wall),
                ));
                Tracer::new(&node, wall, ring)
            }
        };
        // The pump pushes from its own thread, outside any handler
        // span, so it gets its own span factory (`deliver.push` roots
        // land in a dedicated flight ring under observation).
        let deliver_tracer = obs.map(|hub| {
            let dnode = format!("deliver{index}");
            Tracer::new(
                &dnode,
                Arc::clone(hub.clock()),
                hub.new_recorder(&dnode, PROVIDER_FLIGHT_EVENTS),
            )
        });
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
            tensors: RefCountedStore::new(backend),
            catalog: RwLock::new(Catalog::new()),
            snapshot: SnapshotCell::new(Arc::new(CatalogSnapshot::empty())),
            meta_store,
            clock,
            refs_ops: Mutex::new(RefsOpCache::default()),
            tombstones: Mutex::new(HashMap::new()),
            index_enabled: AtomicBool::new(true),
            query_stats: AtomicQueryStats::default(),
            snapshot_reads: AtomicU64::new(0),
            batch_envelopes: AtomicU64::new(0),
            batch_queries: AtomicU64::new(0),
            tracer,
            endpoint_id: endpoint.id().0,
            bulk_segments_exposed: AtomicU64::new(0),
            zero_copy_reads: AtomicU64::new(0),
            copy_fallback_reads: AtomicU64::new(0),
            validate_par_batches: AtomicU64::new(0),
            meta_replies: MetaReplyCache::new(),
            delta,
            delta_deps: Mutex::new(HashMap::new()),
            delta_stored: AtomicU64::new(0),
            delta_reconstructs: AtomicU64::new(0),
            delta_rebased: AtomicU64::new(0),
            transfer_chunks_offered: AtomicU64::new(0),
            transfer_chunks_sent: AtomicU64::new(0),
            transfer_chunks_skipped: AtomicU64::new(0),
            transfer_deltas_shipped: AtomicU64::new(0),
            transfer_bytes_saved: AtomicU64::new(0),
            delivery,
            ledger: Arc::new(OpLedger::new()),
            hub_attached: obs.is_some(),
        });

        // Every handler runs under `traced`: when the RPC envelope
        // carried a trace context, the hop becomes a child span in the
        // caller's trace, recorded in this provider's flight ring.
        let s = Arc::clone(&state);
        endpoint.register(
            methods::STORE,
            typed_handler(move |r| s.traced(methods::STORE, || s.handle_store(r))),
        );
        // GET_META bypasses `typed_handler` on the reply side: the
        // handler returns pre-encoded bytes cached per record
        // incarnation, so a hot model's compact graph is deep-cloned and
        // JSON-encoded once, not once per fetch.
        let s = Arc::clone(&state);
        endpoint.register(methods::GET_META, move |body: Bytes| {
            let req: GetMetaRequest =
                serde_json::from_slice(&body).map_err(|e| format!("decode: {e}"))?;
            s.traced(methods::GET_META, || s.get_meta_encoded(req))
        });
        let s = Arc::clone(&state);
        endpoint.register(
            methods::READ,
            typed_handler(move |r| s.traced(methods::READ, || s.handle_read(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::INCR_REFS,
            typed_handler(move |r| s.traced(methods::INCR_REFS, || s.handle_incr_refs(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::DECR_REFS,
            typed_handler(move |r| s.traced(methods::DECR_REFS, || s.handle_decr_refs(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::LCP,
            typed_handler(move |r| s.traced(methods::LCP, || s.handle_lcp(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::LCP_BATCH,
            typed_handler(move |r| s.traced(methods::LCP_BATCH, || s.handle_lcp_batch(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::MATCH_PATTERN_BATCH,
            typed_handler(move |r| {
                s.traced(methods::MATCH_PATTERN_BATCH, || {
                    s.handle_match_pattern_batch(r)
                })
            }),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::RETIRE_META,
            typed_handler(move |r| s.traced(methods::RETIRE_META, || s.handle_retire_meta(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::READ_RANGE,
            typed_handler(move |r| s.traced(methods::READ_RANGE, || s.handle_read_range(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::MATCH_PATTERN,
            typed_handler(move |r| s.traced(methods::MATCH_PATTERN, || s.handle_match_pattern(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::STORE_OPTIMIZER,
            typed_handler(move |r| {
                s.traced(methods::STORE_OPTIMIZER, || s.handle_store_optimizer(r))
            }),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::LOAD_OPTIMIZER,
            typed_handler(move |r| {
                s.traced(methods::LOAD_OPTIMIZER, || s.handle_load_optimizer(r))
            }),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::STATS,
            typed_handler(move |_: StatsRequest| s.traced(methods::STATS, || Ok(s.stats()))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::DIGEST,
            typed_handler(move |r| s.traced(methods::DIGEST, || s.handle_digest(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::SYNC_MODEL,
            typed_handler(move |r| s.traced(methods::SYNC_MODEL, || s.handle_sync_model(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::TRANSFER_MANIFEST,
            typed_handler(move |r| {
                s.traced(methods::TRANSFER_MANIFEST, || s.handle_transfer_manifest(r))
            }),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::HAVE_CHUNKS,
            typed_handler(move |r| s.traced(methods::HAVE_CHUNKS, || s.handle_have_chunks(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::READ_CHUNKS,
            typed_handler(move |r| s.traced(methods::READ_CHUNKS, || s.handle_read_chunks(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::SYNC_CHUNKS,
            typed_handler(move |r| s.traced(methods::SYNC_CHUNKS, || s.handle_sync_chunks(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::FETCH_CHUNKS,
            typed_handler(move |r| s.traced(methods::FETCH_CHUNKS, || s.handle_fetch_chunks(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::SYNC_RETIRE,
            typed_handler(move |r| s.traced(methods::SYNC_RETIRE, || s.handle_sync_retire(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::SYNC_REFS,
            typed_handler(move |r| s.traced(methods::SYNC_REFS, || s.handle_sync_refs(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            methods::OBS_SNAPSHOT,
            typed_handler(move |_: ObsSnapshotRequest| {
                s.traced(methods::OBS_SNAPSHOT, || Ok(s.obs_snapshot()))
            }),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            deliver_methods::SUBSCRIBE,
            typed_handler(move |r| s.traced(deliver_methods::SUBSCRIBE, || s.handle_subscribe(r))),
        );
        let s = Arc::clone(&state);
        endpoint.register(
            deliver_methods::UNSUBSCRIBE,
            typed_handler(move |r| {
                s.traced(deliver_methods::UNSUBSCRIBE, || s.handle_unsubscribe(r))
            }),
        );

        Provider { state, endpoint }
    }

    /// The provider's fabric address.
    pub fn endpoint_id(&self) -> EndpointId {
        self.endpoint.id()
    }
}
