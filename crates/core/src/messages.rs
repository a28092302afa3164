//! Wire messages between EvoStore clients and providers.
//!
//! Control messages travel as JSON over the RPC fabric; the tensor data
//! plane never does — store and read requests carry a *bulk handle* plus a
//! manifest, and the payload moves through one consolidated one-sided
//! transfer (the owner-based consolidation of §4.1).

use evostore_graph::{CompactGraph, IndexQueryStats, LcpResult};
use evostore_kv::MetricsSnapshot;
use evostore_obs::counter_set;
pub use evostore_tensor::ManifestEntry;
use evostore_tensor::{ModelId, TensorKey};
use serde::{Deserialize, Serialize};

use crate::owner_map::OwnerMap;

/// Store a new (or derived) model: metadata inline, new tensors in the
/// exposed bulk region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreModelRequest {
    /// Id of the model being stored (determines its provider placement).
    pub model: ModelId,
    /// The flattened architecture.
    pub graph: CompactGraph,
    /// Ownership of every vertex.
    pub owner_map: OwnerMap,
    /// Direct transfer-learning ancestor, if any.
    pub parent: Option<ModelId>,
    /// Quality metric (e.g. validation accuracy) used for LCP tie-breaks.
    pub quality: f64,
    /// Where each *self-owned* tensor lives in the bulk region.
    pub manifest: Vec<ManifestEntry>,
    /// Bulk region holding the consolidated new tensors.
    pub bulk: u64,
    /// Write-order stamp to store under. `None` on the first (primary)
    /// leg — the serving provider assigns one from the shared clock —
    /// and `Some` on mirror legs, so every replica of a model records
    /// the *same* timestamp. A request whose model already exists with
    /// a timestamp ≥ this one is answered idempotently (a retried
    /// mirror leg whose first delivery applied must not double-store).
    #[serde(default)]
    pub timestamp: Option<u64>,
}

/// Reply to a store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreModelReply {
    /// Global write ordering stamp (provenance ordering, §4.1).
    pub timestamp: u64,
    /// Bytes of tensor payload persisted by this request.
    pub bytes_stored: u64,
}

/// Fetch a model's metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GetMetaRequest {
    /// The model to look up.
    pub model: ModelId,
}

/// A model's metadata record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelMetaReply {
    /// The flattened architecture.
    pub graph: CompactGraph,
    /// Ownership of every vertex.
    pub owner_map: OwnerMap,
    /// Direct ancestor.
    pub parent: Option<ModelId>,
    /// Quality metric.
    pub quality: f64,
    /// Global write-order stamp.
    pub timestamp: u64,
}

/// Read a set of tensors hosted by the target provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadTensorsRequest {
    /// Keys to read; every key's owner must hash to the target provider.
    pub keys: Vec<TensorKey>,
}

/// Reply: a freshly exposed bulk region + manifest. The *client* releases
/// the region after pulling it (one-sided completion).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadTensorsReply {
    /// Offsets of each requested tensor in the region.
    pub manifest: Vec<ManifestEntry>,
    /// The exposed region.
    pub bulk: u64,
}

/// Read a contiguous element range of one hosted tensor (fine-grain
/// partial access, §1: "partial I/O to enable fine-grain access to
/// individual tensors").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadRangeRequest {
    /// The tensor.
    pub key: TensorKey,
    /// First element of the range.
    pub elem_offset: u64,
    /// Number of elements.
    pub elem_count: u64,
}

/// Reply: the requested slice as a freshly exposed bulk region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadRangeReply {
    /// Element type of the tensor.
    pub dtype_tag: u8,
    /// The exposed region holding exactly the requested bytes.
    pub bulk: u64,
}

/// Adjust reference counts of tensors hosted by the target provider.
///
/// Refcount mutation is *not* naturally idempotent, but its failure
/// handling retries legs whose outcome is indeterminate (a timeout or a
/// dropped reply may hide a handler that already ran). `op_id` makes the
/// retry safe: providers remember recently applied operation ids and
/// answer a duplicate from cache without re-applying, so a decrement can
/// never land twice and reclaim a tensor that live models still
/// reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefsRequest {
    /// Unique id of this logical adjustment; identical across retries of
    /// the same operation (including parked-decrement re-issues).
    pub op_id: u64,
    /// Tensor keys to increment/decrement.
    pub keys: Vec<TensorKey>,
}

impl RefsRequest {
    /// A refs adjustment over `keys` with a fresh operation id.
    pub fn new(keys: Vec<TensorKey>) -> RefsRequest {
        // Process-wide counter: the fabric is in-process, so this is
        // unique across every client handle that can reach a provider.
        static NEXT_OP_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        RefsRequest {
            op_id: NEXT_OP_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            keys,
        }
    }

    /// A refs adjustment with an explicit (deterministic) operation id.
    pub fn with_op_id(op_id: u64, keys: Vec<TensorKey>) -> RefsRequest {
        RefsRequest { op_id, keys }
    }

    /// The deterministic id of the decrement leg that retiring `model`
    /// (the incarnation stored at `timestamp`) sends to provider
    /// `provider_index`.
    ///
    /// Unlike the counter ids of [`RefsRequest::new`], this id is a pure
    /// function of the retirement, so it survives the client: a parked
    /// decrement re-issued after a fault window carries the same id as
    /// the fence the anti-entropy repair pass seeded on the recovered
    /// provider ([`crate::methods::SyncRetire`]), and the two can never both
    /// apply. The top bit is always set, keeping the hash namespace
    /// disjoint from the counter namespace (counters start at 1 and
    /// cannot plausibly reach 2^63).
    pub fn retirement_op_id(model: ModelId, timestamp: u64, provider_index: usize) -> u64 {
        // FNV-1a over the identifying triple.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [model.0, timestamp, provider_index as u64] {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h | (1 << 63)
    }
}

/// Reply to a refs adjustment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefsReply {
    /// Keys applied.
    pub applied: usize,
    /// Tensors physically reclaimed (decrement reached zero), including
    /// the bases reclaimed deltas released.
    pub reclaimed: usize,
}

/// One LCP query, carried by no method (a single query is an
/// [`LcpBatchRequest`] of one): its only remaining user is the benchmark's
/// replay probe, `benchmark/src/probe.rs`, and it goes with that probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpQueryRequest {
    /// The new candidate's flattened architecture.
    pub graph: CompactGraph,
}

/// One provider's best local match.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpQueryReply {
    /// Best local candidate, absent when nothing matches.
    pub best: Option<LcpCandidate>,
    /// How many LCP computations this provider actually ran: distinct
    /// architectures the cone bound could not rule out on the indexed
    /// path, every stored model on the unindexed one (diagnostics).
    pub scanned: usize,
    /// How the index served this query (dedup/pruning breakdown).
    pub stats: IndexQueryStats,
}

/// A candidate ancestor found by a provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpCandidate {
    /// The ancestor model.
    pub model: ModelId,
    /// Its quality metric (tie-break).
    pub quality: f64,
    /// The LCP of the queried graph against this ancestor.
    pub lcp: LcpResult,
}

/// Batched LCP queries: N candidate graphs in one envelope. The provider
/// answers every query against *one* pinned catalog snapshot, amortizing
/// dispatch, tracing, and snapshot acquisition across the batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpBatchRequest {
    /// The candidate architectures, answered in order.
    pub graphs: Vec<CompactGraph>,
}

/// Per-query replies, index-aligned with [`LcpBatchRequest::graphs`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpBatchReply {
    /// `replies[i]` answers `graphs[i]`.
    pub replies: Vec<LcpQueryReply>,
}

/// Pattern queries (§1's "queries that look for specific architectural
/// features and patterns"): N patterns in one envelope, answered against
/// one pinned catalog snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternBatchRequest {
    /// The patterns, answered in order.
    pub patterns: Vec<evostore_graph::ArchPattern>,
}

/// Per-query replies, index-aligned with [`PatternBatchRequest::patterns`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternBatchReply {
    /// `replies[i]` answers `patterns[i]`.
    pub replies: Vec<PatternQueryReply>,
}

/// Remove a model's metadata; the reply carries the owner map so the
/// client can decrement tensor references across providers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetireMetaRequest {
    /// The model to retire.
    pub model: ModelId,
}

/// Reply to metadata retirement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetireMetaReply {
    /// The retired model's owner map (drives the decrement fan-out).
    pub owner_map: OwnerMap,
    /// Write-order stamp of the retired record. Together with the model
    /// id it names *which* incarnation was retired: the decrement
    /// fan-out derives deterministic operation ids from it
    /// ([`RefsRequest::retirement_op_id`]), and the anti-entropy
    /// tombstone carries it so stale replicas can tell a missed
    /// retirement from a missed (newer) store.
    #[serde(default)]
    pub timestamp: u64,
}

/// Locally matching models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternQueryReply {
    /// `(model, quality)` of every local match.
    pub matches: Vec<(ModelId, f64)>,
    /// Pattern evaluations actually run (distinct architectures on the
    /// indexed path, every stored model otherwise).
    pub scanned: usize,
    /// How the index served this query.
    pub stats: IndexQueryStats,
}

/// Attach optimizer state to a stored model (the paper's stated future
/// work: checkpoints that can resume the original training). The state
/// is model-private — never shared or deduplicated — and is reclaimed
/// with the model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreOptimizerRequest {
    /// The (already stored) model.
    pub model: ModelId,
    /// Slots of the optimizer tensors in the bulk region.
    pub manifest: Vec<ManifestEntry>,
    /// Bulk region holding the serialized optimizer tensors.
    pub bulk: u64,
}

/// Fetch a model's optimizer state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadOptimizerRequest {
    /// The model.
    pub model: ModelId,
}

/// Empty request for parameterless methods (stats).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StatsRequest {}

// ---- anti-entropy repair -------------------------------------------------

/// One model's entry in a provider digest: enough to detect a stale or
/// missing replica (the timestamp) and to rebuild the global expected
/// reference count of every tensor (the key lists) without fetching any
/// catalog record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelDigest {
    /// The cataloged model.
    pub model: ModelId,
    /// Its write-order stamp; identical across consistent replicas.
    pub timestamp: u64,
    /// Every tensor key the model's owner map references (self-owned
    /// and inherited) — one global reference each.
    pub ref_keys: Vec<TensorKey>,
    /// Attached optimizer-state keys (model-private) — one reference
    /// each.
    pub optimizer_keys: Vec<TensorKey>,
}

impl ModelDigest {
    /// Which incarnation of the record this digest describes.
    pub(crate) fn incarnation(&self) -> (u64, usize) {
        crate::replication::incarnation(self.timestamp, &self.optimizer_keys)
    }
}

/// A recorded retirement: which model, which incarnation (its record
/// timestamp), and when. A tombstone kills any replica record with
/// `timestamp <= record_timestamp`; a re-store under the same id gets a
/// newer stamp and survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tombstone {
    /// The retired model.
    pub model: ModelId,
    /// Write-order stamp of the record that was retired.
    pub record_timestamp: u64,
    /// Write-order stamp of the retirement itself.
    pub retired_at: u64,
}

/// Ask a provider for its catalog digest (empty request).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DigestRequest {}

/// A provider's anti-entropy digest: every cataloged model plus every
/// retirement it has witnessed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DigestReply {
    /// The provider's index (sanity cross-check for the repair pass).
    pub provider_index: usize,
    /// Digest of every cataloged model.
    pub models: Vec<ModelDigest>,
    /// Every retirement recorded here.
    pub tombstones: Vec<Tombstone>,
}

/// Re-replicate one model onto the target: the full catalog record plus
/// the payloads of its self-owned (and optimizer) tensors, consolidated
/// in a bulk region exactly like a store. Applied only when the target
/// has no record for the model or a strictly older one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncModelRequest {
    /// The model being re-replicated.
    pub model: ModelId,
    /// The flattened architecture.
    pub graph: CompactGraph,
    /// Ownership of every vertex.
    pub owner_map: OwnerMap,
    /// Direct ancestor.
    pub parent: Option<ModelId>,
    /// Quality metric.
    pub quality: f64,
    /// The authoritative write-order stamp (from the source replica).
    pub timestamp: u64,
    /// Self-owned + optimizer tensor payload locations in the region.
    pub manifest: Vec<ManifestEntry>,
    /// Bulk region holding the payloads.
    pub bulk: u64,
}

/// Reply to a model sync.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncModelReply {
    /// Whether the record was installed (false: target already newer).
    pub applied: bool,
    /// Tensor payloads written.
    pub tensors_stored: usize,
}

// ---- derivative-aware transfer plane -------------------------------------

/// One record's *transfer manifest*: how the stored bytes decompose into
/// content-addressed chunks at the source, plus the record's delta
/// linkage. The delta fields describe the *stored* encoding (which a
/// chunk-verbatim transfer preserves).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Which record this is.
    pub key: TensorKey,
    /// Stored record length in bytes (the chunked logical total).
    pub total: u64,
    /// Content hashes of the record's chunks in order
    /// ([`evostore_tensor::ContentHash::to_bytes`] form).
    pub hashes: Vec<[u8; 16]>,
    /// When the stored record is an EVDL delta: the base record's key.
    pub delta_base: Option<TensorKey>,
    /// Delta chain depth of the stored record (0 = raw).
    pub delta_depth: u8,
}

/// Ask the *source* provider how a model's records decompose into chunks
/// and deltas — the opening move of chunk-negotiated re-replication.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferManifestRequest {
    /// The records (self-owned + optimizer keys) to describe.
    pub keys: Vec<TensorKey>,
}

/// The source's transfer manifests. Only a chunked store answers; every
/// chunked store chunks at the same granularity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferManifestReply {
    /// One entry per requested key, in request order.
    pub records: Vec<TransferRecord>,
}

/// Possession probe on the *receiver*: which of these chunks (by content
/// hash) and records (by key — delta bases) it already holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HaveChunksRequest {
    /// Chunk content hashes to probe.
    pub hashes: Vec<[u8; 16]>,
    /// Record keys whose presence the sender needs (delta bases).
    pub keys: Vec<TensorKey>,
}

/// The receiver's possession set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HaveChunksReply {
    /// `have_chunks[i]` answers `hashes[i]`.
    pub have_chunks: Vec<bool>,
    /// `have_records[i]` answers `keys[i]`.
    pub have_records: Vec<bool>,
}

/// Read chunk payloads by content hash from the source, as a freshly
/// exposed bulk region (the caller releases it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadChunksRequest {
    /// The chunks to read.
    pub hashes: Vec<[u8; 16]>,
}

/// Reply: chunk payloads concatenated in request order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadChunksReply {
    /// Byte length of each requested chunk inside the region.
    pub lens: Vec<u64>,
    /// The exposed region.
    pub bulk: u64,
}

/// Chunk-negotiated re-replication: install a model from transfer
/// manifests plus only the chunks the receiver reported missing — the
/// tensor is never materialized on either side, and delta-encoded
/// records transfer verbatim (each takes its reference on its base on
/// arrival). Staleness rules are identical to [`SyncModelRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncChunksRequest {
    /// The model being re-replicated.
    pub model: ModelId,
    /// The flattened architecture.
    pub graph: CompactGraph,
    /// Ownership of every vertex.
    pub owner_map: OwnerMap,
    /// Direct ancestor.
    pub parent: Option<ModelId>,
    /// Quality metric.
    pub quality: f64,
    /// The authoritative write-order stamp (from the source replica).
    pub timestamp: u64,
    /// Transfer manifest of every self-owned + optimizer record.
    pub records: Vec<TransferRecord>,
    /// Hashes of the pushed (receiver-missing) chunks, in bulk order.
    pub pushed: Vec<[u8; 16]>,
    /// Byte length of each pushed chunk (framing of the bulk region).
    pub lens: Vec<u64>,
    /// Bulk region holding the pushed chunk payloads.
    pub bulk: u64,
}

/// Reply to a chunk-negotiated sync.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncChunksReply {
    /// Whether the record was installed (false: target already newer).
    pub applied: bool,
    /// Records written (manifest-level inserts).
    pub records_stored: usize,
    /// Chunk payload bytes the negotiation avoided shipping.
    pub bytes_saved: u64,
}

/// Spread retirements to a replica: record each tombstone, drop any
/// record it covers, and seed the deterministic decrement fence
/// ([`RefsRequest::retirement_op_id`]) so a parked client decrement for
/// the same retirement can never re-apply after repair has already
/// settled the counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncRetireRequest {
    /// The retirements to apply.
    pub tombstones: Vec<Tombstone>,
}

/// Reply to a retirement sync.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncRetireReply {
    /// Stale records removed by these tombstones.
    pub removed: usize,
}

/// Set the target's hosted reference counts to the authoritative values
/// of the deployment's reference census, plus the references the
/// target's own delta records hold on their bases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncRefsRequest {
    /// `(key, models referencing it)` for every tensor this provider
    /// should host.
    pub entries: Vec<(TensorKey, u64)>,
    /// Delete hosted tensors absent from `entries` that no local delta
    /// is encoded against. `reopen` always sets it; repair only when the
    /// digest broadcast reached *every* provider: with a provider
    /// unreachable, a key absent from the census may simply belong to a
    /// model whose replicas are all down, and must not be dropped.
    pub prune_unlisted: bool,
}

/// Reply to a refs sync.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncRefsReply {
    /// Hosted keys whose count was changed.
    pub adjusted: usize,
    /// Hosted tensors deleted: unlisted ones (`prune_unlisted`) and the
    /// bases they released.
    pub removed: usize,
    /// Expected keys with no stored payload here (under-replication the
    /// model-sync step should have fixed; non-zero means repair could
    /// not fully converge this pass).
    pub missing: usize,
}

counter_set! {
    /// The counters a provider's handlers bump: the `atomic` lines of the
    /// table. Everything else in [`ProviderStats`] is worked out from
    /// the provider's state when `STATS` is served.
    pub struct ProviderCounters;
    /// Provider statistics: the `STATS` reply, the reduce step of a stats
    /// broadcast ([`ProviderStats::merge`]) and, through
    /// [`ProviderStats::rows`], the provider's exported series.
    #[derive(Copy)]
    pub struct ProviderStats {
        /// Models whose metadata lives here.
        models: computed sum gauge "evostore_provider_models",
        /// Distinct architecture signatures in the local catalog (the
        /// ancestor-query index's dedup denominator).
        distinct_archs: computed sum gauge "evostore_provider_distinct_archs" | "evostore_index_distinct_architectures",
        /// Distinct cone hashes the ancestor-query index holds a posting
        /// list for.
        index_cone_keys: computed sum gauge "evostore_index_cone_keys",
        /// Posting entries over all of them (one per distinct cone of each
        /// distinct architecture): what the index costs in memory.
        index_postings: computed sum gauge "evostore_index_postings",
        /// Live tensors hosted here.
        tensors: computed sum gauge "evostore_provider_tensors",
        /// Bytes of live tensor payload.
        tensor_bytes: computed sum gauge "evostore_provider_tensor_bytes",
        /// Approximate metadata bytes (owner maps).
        metadata_bytes: computed sum gauge "evostore_provider_metadata_bytes",
        /// Cumulative ancestor/pattern query counters (scanned, deduped,
        /// pruned) since this provider started.
        query_stats: nested(IndexQueryStats),
        /// Tensor-store backend counters (ops + bytes moved).
        tensor_kv: nested(MetricsSnapshot),
        /// Metadata-store backend counters.
        meta_kv: nested(MetricsSnapshot),
        /// Segments handed to vectored bulk exposure by read-side handlers
        /// (zero-copy scatter-gather data plane).
        bulk_segments_exposed: atomic sum counter "evostore_datapath_bulk_segments_exposed",
        /// Tensor reads served without copying the payload (shared-buffer
        /// clone of a memory-resident value).
        zero_copy_reads: atomic sum counter "evostore_datapath_zero_copy_reads",
        /// Tensor reads that fell back to a copying `get` (disk-resident
        /// record or a delta that had to be reconstructed).
        copy_fallback_reads: atomic sum counter "evostore_datapath_copy_fallback_reads",
        /// Store requests whose manifest validation was shared out over
        /// the fork-join pool ([`crate::par`]); a store under the inline
        /// threshold, or on a host with one core, does not count.
        validate_par_batches: atomic sum counter "evostore_datapath_validate_par_batches",
        /// [`crate::par::map`] calls shared out over the pool. The pool is
        /// process-wide (exported once, by the deployment), so the three
        /// `par_*` values merge by maximum.
        par_forked_total: computed max hidden,
        /// [`crate::par::map`] calls run inline on the caller.
        par_inline_total: computed max hidden,
        /// Helper threads in the pool (`available_parallelism() − 1`).
        par_helpers: computed max hidden,
        /// Records stored as parent deltas rather than raw bytes.
        delta_stored: atomic sum counter "evostore_delta_stored",
        /// Delta decodes performed to serve reads (one per chain link).
        delta_reconstructs: atomic sum counter "evostore_delta_reconstructs",
        /// Live content-addressed chunks (zero on unchunked backends).
        chunks: computed sum gauge "evostore_chunk_count",
        /// Chunk writes absorbed by deduplication.
        chunk_dedup_hits: computed sum counter "evostore_chunk_dedup_hits",
        /// Bytes the chunked records claim to hold (pre-dedup).
        chunk_logical_bytes: computed sum gauge "evostore_chunk_logical_bytes",
        /// Bytes actually occupied by deduplicated chunk payloads.
        chunk_physical_bytes: computed sum gauge "evostore_chunk_physical_bytes",
        /// Catalog snapshots published (one per store/retire/sync mutation).
        snapshot_publications: computed sum counter "evostore_index_snapshot_publications",
        /// Snapshot pins taken by read handlers.
        snapshot_reads: atomic sum counter "evostore_index_snapshot_reads",
        /// Retired with the hazard-slot cell (a swapped-out snapshot is
        /// dropped by its last reader): always 0. Kept while the benchmark
        /// reads it.
        snapshot_retired: computed sum hidden,
        /// Batched query envelopes served (`LCP_BATCH` + `MATCH_PATTERN_BATCH`).
        batch_envelopes: atomic sum counter "evostore_index_batch_envelopes",
        /// Individual queries delivered inside batched envelopes.
        batch_queries: atomic sum counter "evostore_index_batch_queries",
        /// Delivery-plane counters (subscriptions, event pushes, broadcast
        /// trees).
        deliver: nested(evostore_deliver::DeliverStats),
        /// Chunk hashes this provider was asked to probe for possession
        /// (negotiated-transfer offers it received as a sync target, plus
        /// chunk-aware watcher fetches it served).
        transfer_chunks_offered: atomic sum counter "evostore_transfer_chunks_offered",
        /// Chunk payloads this provider shipped for negotiated transfers.
        transfer_chunks_sent: atomic sum counter "evostore_transfer_chunks_sent",
        /// Offered chunks the negotiation elided (already held by the
        /// receiving side).
        transfer_chunks_skipped: atomic sum counter "evostore_transfer_chunks_skipped",
        /// Delta-encoded records that crossed the wire verbatim (never
        /// materialized) during sync.
        transfer_deltas_shipped: atomic sum counter "evostore_transfer_deltas_shipped",
        /// Payload bytes negotiation kept off the wire.
        transfer_bytes_saved: atomic sum counter "evostore_transfer_bytes_saved",
    }
}

/// Ask a provider for its observability registry snapshot (empty
/// request). The reply is an [`evostore_obs::RegistrySnapshot`] built on
/// demand: provider stats gauges, kv backend counters, index query
/// counters, and flight-recorder occupancy.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ObsSnapshotRequest {}

#[cfg(test)]
mod tests {
    use super::*;

    /// `STATS` as commit `afe1fe9` (the parent of the table form) encoded
    /// [`sample_stats`]: every field it had, in its order.
    const PARENT_STATS_JSON: &str = r#"{"models":1,"distinct_archs":1,"index_cone_keys":5,"index_postings":7,"tensors":2,"tensor_bytes":100,"metadata_bytes":16,"query_stats":{"candidates":10,"scanned":2,"memo_hits":3,"deduped":4,"pruned":1,"prefiltered":1,"answered":2},"tensor_kv":{"puts":2,"gets":0,"misses":0,"deletes":0,"bytes_written":100,"bytes_read":0},"meta_kv":{"puts":0,"gets":0,"misses":0,"deletes":0,"bytes_written":0,"bytes_read":0},"bulk_segments_exposed":5,"zero_copy_reads":4,"copy_fallback_reads":1,"validate_par_batches":2,"par_forked_total":7,"par_inline_total":40,"par_helpers":1,"delta_stored":3,"delta_reconstructs":6,"delta_rebased":1,"chunks":10,"chunk_dedup_hits":7,"chunk_logical_bytes":2048,"chunk_physical_bytes":1024,"snapshot_publications":4,"snapshot_reads":20,"snapshot_retired":1,"batch_envelopes":2,"batch_queries":9,"deliver":{"subscriptions":0,"events_published":5,"events_delivered":0,"events_dropped":0,"event_pushes":0,"push_failures":0,"releases":0,"tree_depth":2,"tree_width":0},"transfer_chunks_offered":10,"transfer_chunks_sent":3,"transfer_chunks_skipped":7,"transfer_deltas_shipped":2,"transfer_bytes_saved":4096}"#;

    fn sample_stats() -> ProviderStats {
        ProviderStats {
            models: 1,
            distinct_archs: 1,
            index_cone_keys: 5,
            index_postings: 7,
            tensors: 2,
            tensor_bytes: 100,
            metadata_bytes: 16,
            query_stats: IndexQueryStats {
                candidates: 10,
                scanned: 2,
                memo_hits: 3,
                deduped: 4,
                pruned: 1,
                prefiltered: 1,
                answered: 2,
            },
            tensor_kv: MetricsSnapshot {
                puts: 2,
                bytes_written: 100,
                ..MetricsSnapshot::default()
            },
            meta_kv: MetricsSnapshot::default(),
            bulk_segments_exposed: 5,
            zero_copy_reads: 4,
            copy_fallback_reads: 1,
            validate_par_batches: 2,
            par_forked_total: 7,
            par_inline_total: 40,
            par_helpers: 1,
            delta_stored: 3,
            delta_reconstructs: 6,
            chunks: 10,
            chunk_dedup_hits: 7,
            chunk_logical_bytes: 2048,
            chunk_physical_bytes: 1024,
            snapshot_publications: 4,
            snapshot_reads: 20,
            snapshot_retired: 1,
            batch_envelopes: 2,
            batch_queries: 9,
            deliver: evostore_deliver::DeliverStats {
                events_published: 5,
                tree_depth: 2,
                ..Default::default()
            },
            transfer_chunks_offered: 10,
            transfer_chunks_sent: 3,
            transfer_chunks_skipped: 7,
            transfer_deltas_shipped: 2,
            transfer_bytes_saved: 4096,
        }
    }

    #[test]
    fn stats_wire_shape_is_the_hand_written_one() {
        // The fixture still carries a counter since dropped: an older
        // build's reply decodes (the derive skips the unknown field), and
        // every other field keeps its place.
        let decoded: ProviderStats = serde_json::from_str(PARENT_STATS_JSON).unwrap();
        assert_eq!(decoded, sample_stats());
        assert_eq!(
            serde_json::to_string(&sample_stats()).unwrap(),
            PARENT_STATS_JSON.replace(r#""delta_rebased":1,"#, "")
        );
    }

    #[test]
    fn stats_merge_sums() {
        let a = sample_stats();
        let b = ProviderStats {
            models: 3,
            distinct_archs: 2,
            index_cone_keys: 6,
            index_postings: 9,
            tensors: 4,
            tensor_bytes: 900,
            metadata_bytes: 32,
            query_stats: IndexQueryStats::default(),
            tensor_kv: MetricsSnapshot {
                puts: 1,
                bytes_written: 900,
                ..MetricsSnapshot::default()
            },
            meta_kv: MetricsSnapshot::default(),
            bulk_segments_exposed: 3,
            zero_copy_reads: 1,
            copy_fallback_reads: 2,
            validate_par_batches: 1,
            par_forked_total: 9,
            par_inline_total: 38,
            par_helpers: 1,
            delta_stored: 1,
            delta_reconstructs: 2,
            chunks: 5,
            chunk_dedup_hits: 3,
            chunk_logical_bytes: 512,
            chunk_physical_bytes: 256,
            snapshot_publications: 1,
            snapshot_reads: 5,
            snapshot_retired: 0,
            batch_envelopes: 1,
            batch_queries: 3,
            deliver: evostore_deliver::DeliverStats {
                events_published: 2,
                tree_depth: 3,
                ..Default::default()
            },
            transfer_chunks_offered: 5,
            transfer_chunks_sent: 1,
            transfer_chunks_skipped: 4,
            transfer_deltas_shipped: 1,
            transfer_bytes_saved: 1024,
        };
        let m = a.merge(b);
        assert_eq!(m.models, 4);
        assert_eq!(m.distinct_archs, 3);
        assert_eq!((m.index_cone_keys, m.index_postings), (11, 16));
        assert_eq!(m.tensors, 6);
        assert_eq!(m.tensor_bytes, 1000);
        assert_eq!(m.metadata_bytes, 48);
        assert_eq!(m.query_stats.candidates, 10);
        assert_eq!(m.query_stats.scanned, 2);
        assert_eq!(m.query_stats.memo_hits, 3);
        assert_eq!(m.tensor_kv.puts, 3);
        assert_eq!(m.tensor_kv.bytes_written, 1000);
        assert_eq!(m.bulk_segments_exposed, 8);
        assert_eq!(m.zero_copy_reads, 5);
        assert_eq!(m.copy_fallback_reads, 3);
        assert_eq!(m.validate_par_batches, 3);
        assert_eq!(
            (m.par_forked_total, m.par_inline_total, m.par_helpers),
            (9, 40, 1),
            "process-wide values are not added"
        );
        assert_eq!(m.delta_stored, 4);
        assert_eq!(m.delta_reconstructs, 8);
        assert_eq!(m.chunks, 15);
        assert_eq!(m.chunk_dedup_hits, 10);
        assert_eq!(m.chunk_logical_bytes, 2560);
        assert_eq!(m.chunk_physical_bytes, 1280);
        assert_eq!(m.query_stats.prefiltered, 1);
        assert_eq!(m.query_stats.answered, 2);
        assert_eq!(m.snapshot_publications, 5);
        assert_eq!(m.snapshot_reads, 25);
        assert_eq!(m.snapshot_retired, 1);
        assert_eq!(m.batch_envelopes, 3);
        assert_eq!(m.batch_queries, 12);
        assert_eq!(m.deliver.events_published, 7);
        assert_eq!(m.deliver.tree_depth, 3, "gauges merge by max");
        assert_eq!(m.transfer_chunks_offered, 15);
        assert_eq!(m.transfer_chunks_sent, 4);
        assert_eq!(m.transfer_chunks_skipped, 11);
        assert_eq!(m.transfer_deltas_shipped, 3);
        assert_eq!(m.transfer_bytes_saved, 5120);
    }

    #[test]
    fn transfer_messages_roundtrip_json() {
        use evostore_graph::{flatten, Architecture, LayerConfig, LayerKind};
        let mut arch = Architecture::new("t");
        arch.add_layer(LayerConfig::new("in", LayerKind::Input { shape: vec![4] }));
        let graph = flatten(&arch).unwrap();
        let owner_map = OwnerMap::fresh(ModelId(3), &graph);
        let key = TensorKey::new(ModelId(3), evostore_tensor::VertexId(1), 0);
        let base = TensorKey::new(ModelId(2), evostore_tensor::VertexId(1), 0);
        let req = SyncChunksRequest {
            model: ModelId(3),
            graph,
            owner_map,
            parent: Some(ModelId(2)),
            quality: 0.9,
            timestamp: 7,
            records: vec![TransferRecord {
                key,
                total: 128,
                hashes: vec![[1u8; 16], [2u8; 16]],
                delta_base: Some(base),
                delta_depth: 1,
            }],
            pushed: vec![[2u8; 16]],
            lens: vec![64],
            bulk: 9,
        };
        let bytes = serde_json::to_vec(&req).unwrap();
        let back: SyncChunksRequest = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].hashes, req.records[0].hashes);
        assert_eq!(back.records[0].delta_base, Some(base));
        assert_eq!(back.pushed, vec![[2u8; 16]]);

        let probe = HaveChunksRequest {
            hashes: vec![[5u8; 16]],
            keys: vec![key],
        };
        let back: HaveChunksRequest =
            serde_json::from_slice(&serde_json::to_vec(&probe).unwrap()).unwrap();
        assert_eq!(back.hashes, probe.hashes);
        assert_eq!(back.keys, probe.keys);
    }

    #[test]
    fn messages_roundtrip_json() {
        let req = RefsRequest::new(vec![TensorKey::new(
            ModelId(3),
            evostore_tensor::VertexId(1),
            0,
        )]);
        let bytes = serde_json::to_vec(&req).unwrap();
        let back: RefsRequest = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.keys, req.keys);
        assert_eq!(back.op_id, req.op_id);
    }

    #[test]
    fn refs_op_ids_are_unique() {
        let a = RefsRequest::new(Vec::new());
        let b = RefsRequest::new(Vec::new());
        assert_ne!(a.op_id, b.op_id);
    }

    #[test]
    fn retirement_op_ids_are_deterministic_and_distinct() {
        let a = RefsRequest::retirement_op_id(ModelId(7), 42, 1);
        assert_eq!(a, RefsRequest::retirement_op_id(ModelId(7), 42, 1));
        assert_ne!(a, RefsRequest::retirement_op_id(ModelId(7), 42, 2));
        assert_ne!(a, RefsRequest::retirement_op_id(ModelId(7), 43, 1));
        assert_ne!(a, RefsRequest::retirement_op_id(ModelId(8), 42, 1));
    }

    #[test]
    fn retirement_op_ids_avoid_the_counter_namespace() {
        for m in 0..50u64 {
            for p in 0..4usize {
                let id = RefsRequest::retirement_op_id(ModelId(m), m * 3 + 1, p);
                assert!(id >= 1 << 63, "hash ids live above the counter range");
            }
        }
    }

    #[test]
    fn store_request_timestamp_defaults_to_none() {
        // Wire compatibility: a pre-replication store body (no timestamp
        // field) still decodes, as a primary-leg request.
        let json = r#"{"model":1,"graph":{"vertices":[],"out_edges":[],"in_degree":[]},"owner_map":{"model":1,"vertices":[]},"parent":null,"quality":0.5,"manifest":[],"bulk":0}"#;
        let req: StoreModelRequest = serde_json::from_str(json).expect("an old store body decodes");
        assert_eq!(req.timestamp, None);
    }
}
