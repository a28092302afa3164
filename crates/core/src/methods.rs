//! The RPC surface, declared once.
//!
//! Every method EvoStore speaks is one line here: a marker type binding
//! the wire name to its request and reply ([`evostore_rpc::Method`]).
//! Providers register handlers by marker (`ProviderState::serve`,
//! [`evostore_rpc::Endpoint::serve`]) and callers pass the marker to the
//! resilient call shapes, so the method string and the reply type are
//! never spelled a second time. This is the only module allowed to hold
//! a wire name as a string literal (`tools/check.sh` enforces it).
//!
//! A line ending in `, lane = Caller` puts its method on the caller lane
//! ([`evostore_rpc::Lane::Caller`]): the handler runs on the calling
//! thread, not on the provider's service queue — except in a broadcast
//! over more than two providers, whose legs are queued so they run in
//! parallel. Exactly the three catalog reads are there — they only pin a
//! published snapshot — and `tools/check.sh` fails on any other.
//!
//! All `evostore.*` methods plus `deliver.subscribe` / `deliver.unsubscribe`
//! are served by providers; `deliver.event` and `deliver.fetch` are served
//! by subscribers ([`crate::watch::ModelWatcher`]).

use evostore_deliver::{
    EventAck, EventPush, PeerFetchReply, PeerFetchRequest, SubscribeReply, SubscribeRequest,
    UnsubscribeReply, UnsubscribeRequest,
};
use evostore_obs::RegistrySnapshot;

use crate::messages::*;

evostore_rpc::rpc_methods! {
    /// Store a model (metadata + consolidated tensors).
    Store = "evostore.store": StoreModelRequest => StoreModelReply;
    /// Fetch model metadata. The one handler that bypasses reply
    /// encoding: the provider answers with cached pre-encoded bytes.
    GetMeta = "evostore.get_meta": GetMetaRequest => ModelMetaReply, lane = Caller;
    /// Read hosted tensors (returns a bulk region).
    Read = "evostore.read": ReadTensorsRequest => ReadTensorsReply;
    /// Increment tensor refcounts.
    IncrRefs = "evostore.incr_refs": RefsRequest => RefsReply;
    /// Decrement tensor refcounts (GC at zero).
    DecrRefs = "evostore.decr_refs": RefsRequest => RefsReply;
    /// Provider-side LCP scan: N graphs (a single query is a batch of
    /// one), one envelope, one pinned snapshot.
    LcpBatch = "evostore.lcp_batch": LcpBatchRequest => LcpBatchReply, lane = Caller;
    /// Architecture pattern scan, batched the same way.
    MatchPatternBatch = "evostore.match_pattern_batch": PatternBatchRequest => PatternBatchReply, lane = Caller;
    /// Partial (element-range) tensor read.
    ReadRange = "evostore.read_range": ReadRangeRequest => ReadRangeReply;
    /// Retire model metadata.
    RetireMeta = "evostore.retire_meta": RetireMetaRequest => RetireMetaReply;
    /// Attach optimizer state.
    StoreOptimizer = "evostore.store_optimizer": StoreOptimizerRequest => StoreModelReply;
    /// Fetch optimizer state.
    LoadOptimizer = "evostore.load_optimizer": LoadOptimizerRequest => ReadTensorsReply;
    /// Provider statistics.
    Stats = "evostore.stats": StatsRequest => ProviderStats;
    /// Anti-entropy catalog digest.
    Digest = "evostore.digest": DigestRequest => DigestReply;
    /// Re-replicate one model (record + payloads) onto the target.
    SyncModel = "evostore.sync_model": SyncModelRequest => SyncModelReply;
    /// Spread retirement tombstones onto the target.
    SyncRetire = "evostore.sync_retire": SyncRetireRequest => SyncRetireReply;
    /// Set hosted reference counts to authoritative values.
    SyncRefs = "evostore.sync_refs": SyncRefsRequest => SyncRefsReply;
    /// Observability registry snapshot (metrics exposition fan-in).
    ObsSnapshot = "evostore.obs_snapshot": ObsSnapshotRequest => RegistrySnapshot;
    /// Transfer manifests (chunk + delta decomposition) of stored
    /// records, from the sync source.
    TransferManifest = "evostore.transfer_manifest": TransferManifestRequest => TransferManifestReply;
    /// Chunk/record possession probe on the sync target.
    HaveChunks = "evostore.have_chunks": HaveChunksRequest => HaveChunksReply;
    /// Read chunk payloads by content hash from the sync source.
    ReadChunks = "evostore.read_chunks": ReadChunksRequest => ReadChunksReply;
    /// Chunk-negotiated, delta-preserving model re-replication.
    SyncChunks = "evostore.sync_chunks": SyncChunksRequest => SyncChunksReply;
    /// Register a subscription (client -> provider).
    Subscribe = "deliver.subscribe": SubscribeRequest => SubscribeReply;
    /// Drop a subscription (client -> provider).
    Unsubscribe = "deliver.unsubscribe": UnsubscribeRequest => UnsubscribeReply;
    /// Push queued events (provider -> subscriber).
    Event = "deliver.event": EventPush => EventAck;
    /// Fetch a model's serialized weights from a peer subscriber
    /// (subscriber -> subscriber).
    PeerFetch = "deliver.fetch": PeerFetchRequest => PeerFetchReply;
}
