//! The model catalog: the one module that changes it, and its handlers —
//! store, metadata fetch and retirement, LCP and pattern queries over the
//! published snapshot — with the durable record form it recovers from.
//!
//! A record enters through [`ProviderState::install_record`] and leaves
//! through [`ProviderState::retire_record`]; an optimizer attach changes
//! one in place ([`ProviderState::attach_optimizer`]). Each writes the
//! meta store before it publishes: a failed durable write leaves the
//! published catalog as it was and returns `Err`.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use evostore_graph::{scan_lcp, scan_pattern, ArchPattern, CompactGraph, IndexQueryStats};
use evostore_tensor::{rope, ModelId, TensorKey};
use rayon::prelude::*;

use super::write_set::Payload;
use super::{CatalogEdit, CatalogSnapshot, ModelRecord, ProviderState};
use crate::messages::*;
use crate::owner_map::OwnerMap;
use crate::par;
use crate::records::validate_entry;

/// On-disk form of a [`ModelRecord`] (catalog persistence), as read back.
#[derive(serde::Deserialize)]
struct PersistedRecord {
    graph: CompactGraph,
    owner_map: OwnerMap,
    parent: Option<ModelId>,
    quality: f64,
    timestamp: u64,
    optimizer_keys: Vec<TensorKey>,
}

/// [`PersistedRecord`] as written: the same fields in the same order,
/// borrowed from the record rather than copied.
#[derive(serde::Serialize)]
struct PersistedRecordRef<'r> {
    graph: &'r CompactGraph,
    owner_map: &'r OwnerMap,
    parent: Option<ModelId>,
    quality: f64,
    timestamp: u64,
    optimizer_keys: &'r [TensorKey],
}

/// Where a record entering the catalog comes from.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum Origin {
    /// A first replica's store or a metadata-only insert: the clock
    /// assigns the stamp.
    Fresh,
    /// A mirror leg or a sync: the first replica's stamp is kept.
    Replica,
    /// The meta store's own entry, at restart: not written back.
    Recovered,
}

/// Gate for a graph decoded from a request: `lcp()` and the index's cone
/// pass trust `CompactGraph`'s invariants and panic on a graph that
/// lies, which on a service thread hangs the provider.
pub(super) fn wire_graph(g: &CompactGraph) -> Result<(), String> {
    g.validate().map_err(|e| format!("malformed graph: {e}"))
}

impl ModelRecord {
    /// A record with no optimizer state and an empty reply cache.
    pub(super) fn new(
        graph: CompactGraph,
        owner_map: OwnerMap,
        parent: Option<ModelId>,
        quality: f64,
        timestamp: u64,
    ) -> ModelRecord {
        ModelRecord {
            graph: Arc::new(graph),
            owner_map,
            parent,
            quality,
            timestamp,
            optimizer_keys: Vec::new(),
            meta_reply: Default::default(),
        }
    }

    fn from_persisted(p: PersistedRecord) -> ModelRecord {
        ModelRecord {
            optimizer_keys: p.optimizer_keys,
            ..ModelRecord::new(p.graph, p.owner_map, p.parent, p.quality, p.timestamp)
        }
    }
}

impl ProviderState {
    fn meta_key(model: ModelId) -> Vec<u8> {
        let mut k = b"meta/".to_vec();
        k.extend_from_slice(&model.0.to_le_bytes());
        k
    }

    fn persist_record(&self, model: ModelId, rec: &ModelRecord) -> Result<(), String> {
        let persisted = PersistedRecordRef {
            graph: &rec.graph,
            owner_map: &rec.owner_map,
            parent: rec.parent,
            quality: rec.quality,
            timestamp: rec.timestamp,
            optimizer_keys: &rec.optimizer_keys,
        };
        let blob = serde_json::to_vec(&persisted)
            .map_err(|e| format!("encode catalog record {model}: {e}"))?;
        let key = Self::meta_key(model);
        let written = self.meta_store.put(&key, Bytes::from(blob));
        written.map_err(|e| format!("persist catalog record {model}: {e}"))
    }

    fn unpersist_record(&self, model: ModelId) -> Result<(), String> {
        self.meta_store
            .delete(&Self::meta_key(model))
            .map(drop)
            .map_err(|e| format!("delete catalog record {model}: {e}"))
    }

    /// Run a catalog mutation and, when it succeeds, publish the resulting
    /// snapshot ([`super::CatalogBuffers::mutate`]); a failed one publishes
    /// nothing. The swap happens under the write lock, so snapshots
    /// publish in exactly the mutation order.
    fn mutate_catalog<T>(
        &self,
        f: impl FnOnce(&mut CatalogEdit) -> Result<T, String>,
    ) -> Result<T, String> {
        // Subscribers see events in publication order: the change log goes
        // to the delivery hub under the lock (one atomic load if none).
        self.catalog.mutate(f, |snap, changes| {
            if !changes.is_empty() {
                self.delivery.on_publication(snap, changes);
            }
        })
    }

    /// The one way into the catalog: stamp `rec` as `origin` says, write
    /// it to the meta store, and only then publish it as `model`'s record
    /// (replacing any record there). Returns the stamp.
    pub(super) fn install_record(
        &self,
        model: ModelId,
        rec: ModelRecord,
        origin: Origin,
    ) -> Result<u64, String> {
        self.mutate_catalog(|c| self.install_into(c, model, rec, origin))
    }

    fn install_into(
        &self,
        c: &mut CatalogEdit,
        model: ModelId,
        mut rec: ModelRecord,
        origin: Origin,
    ) -> Result<u64, String> {
        if origin == Origin::Fresh {
            rec.timestamp = self.clock.fetch_add(1, Ordering::Relaxed);
        } else {
            // Every replica of the model records the same write order.
            self.clock.fetch_max(rec.timestamp + 1, Ordering::Relaxed);
        }
        if origin != Origin::Recovered {
            self.persist_record(model, &rec)?;
        }
        let timestamp = rec.timestamp;
        c.insert(model, rec);
        Ok(timestamp)
    }

    /// The one way out of the catalog: take out the record `t` covers, if
    /// one is here, then witness the retirement (newest incarnation per
    /// model), so anti-entropy can tell a replica that missed it from one
    /// that missed a newer store of the same id.
    pub(super) fn retire_record(&self, t: Tombstone) -> Result<Option<Arc<ModelRecord>>, String> {
        let rec = self.take_record(t.model, |r| r.timestamp <= t.record_timestamp)?;
        let mut tombs = self.tombstones.lock();
        let entry = tombs.entry(t.model).or_insert(t);
        *entry = entry.newer(t);
        Ok(rec)
    }

    /// Take `model`'s record out when `stale` holds for it: delete it from
    /// the meta store, unpublish it, then drop its optimizer copies
    /// (model-private and replica-local: each replica its own).
    pub(super) fn take_record(
        &self,
        model: ModelId,
        stale: impl Fn(&ModelRecord) -> bool,
    ) -> Result<Option<Arc<ModelRecord>>, String> {
        let held = |rec: Option<&Arc<ModelRecord>>| rec.is_some_and(|r| stale(r));
        // Nothing to take publishes nothing.
        if !held(self.local_record(model).as_ref()) {
            return Ok(None);
        }
        let rec = self.mutate_catalog(|c| {
            if !held(c.get(model)) {
                return Ok(None);
            }
            self.unpersist_record(model)?;
            Ok(c.remove(model))
        })?;
        if let Some(rec) = &rec {
            self.release_all(&rec.optimizer_keys)?;
        }
        Ok(rec)
    }

    /// Attach optimizer state to `model`'s record: put the records, write
    /// the attached record to the meta store, then publish it in place of
    /// the old `Arc` — all under the write lock, so a concurrent attach
    /// cannot interleave — as one write set. Returns the record's stamp and
    /// the bytes put.
    pub(super) fn attach_optimizer(
        &self,
        model: ModelId,
        validated: Vec<(TensorKey, Vec<Bytes>)>,
    ) -> Result<(u64, u64), String> {
        self.land(|set| {
            self.mutate_catalog(|c| {
                let rec = c
                    .get(model)
                    .ok_or_else(|| format!("model {model} not found"))?;
                if !rec.optimizer_keys.is_empty() {
                    return Err(format!("model {model} already has optimizer state"));
                }
                let optimizer_keys = validated.iter().map(|(key, _)| *key).collect();
                let mut bytes_stored = 0u64;
                for (key, record) in validated {
                    bytes_stored += rope::len(&record) as u64;
                    set.write(key, Payload::Rope(record), None)?;
                }
                let attached = ModelRecord {
                    optimizer_keys,
                    ..ModelRecord::clone(rec)
                };
                self.persist_record(model, &attached)?;
                let timestamp = attached.timestamp;
                c.replace(model, attached);
                Ok((timestamp, bytes_stored))
            })
        })
    }

    /// Drop one reference on each of `keys` through the release path.
    pub(super) fn release_all(&self, keys: &[TensorKey]) -> Result<(), String> {
        keys.iter().try_for_each(|key| self.release(*key).map(drop))
    }

    /// Restore the catalog from the durable meta store and register every
    /// hosted tensor with a zero reference count. The deployment then
    /// replays reference counts from *all* providers' owner maps and each
    /// provider's local delta links
    /// ([`crate::deployment::Deployment::reopen`]); counts are correct
    /// only after that pass completes. An unreadable record is refused by
    /// its key: skipped, its tensors would be pruned by that pass.
    pub fn recover_catalog(&self) -> Result<usize, String> {
        let mut recovered = Vec::new();
        for key in self.meta_store.keys() {
            let named = |e: String| format!("catalog record {}: {e}", key.escape_ascii());
            let blob = self
                .meta_store
                .get(&key)
                .map_err(|e| named(e.to_string()))?;
            let p = serde_json::from_slice::<PersistedRecord>(&blob)
                .map_err(|e| named(e.to_string()))?;
            wire_graph(&p.graph).map_err(named)?;
            recovered.push((p.owner_map.model, ModelRecord::from_persisted(p)));
        }
        let restored = recovered.len();
        // One batched mutation: the whole recovered catalog becomes one
        // snapshot publication instead of one per record.
        self.mutate_catalog(|c| {
            recovered.into_iter().try_for_each(|(model, rec)| {
                self.install_into(c, model, rec, Origin::Recovered)
                    .map(drop)
            })
        })?;
        // Adopt hosted tensors with zero counts; the deployment replay
        // brings them up to their true values.
        for key in self.hosted_tensor_keys() {
            self.tensors.adopt(&key.encode());
        }
        Ok(restored)
    }

    /// Handle a store request.
    pub fn handle_store(&self, req: StoreModelRequest) -> Result<StoreModelReply, String> {
        wire_graph(&req.graph)?;
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
        self.refuse_unplaced(req.model)?;
        if let Some(existing_ts) = self.local_record(req.model).map(|r| r.timestamp) {
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
        let expected: HashSet<TensorKey> = req
            .owner_map
            .self_owned()
            .flat_map(|v| req.owner_map.vertex(v).tensor_keys().collect::<Vec<_>>())
            .collect();
        let got: HashSet<TensorKey> = req.manifest.iter().map(|m| m.key).collect();
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
        let region = self.pull(req.bulk)?;
        evostore_obs::ledger::add_chunks_touched(req.manifest.len() as u64);

        // Every entry is checked before anything is put, shared out per
        // tensor ([`par::map`]): `validate_entry` verifies framing, dims and
        // checksum without materializing a `TensorData` — and without
        // gathering: a record pushed as a rope around the caller's payload
        // is sliced, checked and stored as that rope.
        if par::forks(req.manifest.len(), region.len()) {
            self.counters.validate_par_batches.add(1);
        }
        let validated = par::map(&req.manifest, region.len(), |entry| {
            let (record, shape, dtype) = validate_entry(entry, &region)?;
            let specs = req.graph.param_specs(entry.key.vertex);
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
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;

        // On the chunked substrate, when the parent is cataloged locally,
        // each self-owned tensor may be stored as a delta against the
        // parent's tensor at the same vertex/slot (only when the base is
        // co-located and the delta actually saves space).
        let parent = match self.tensors.backend().chunked() {
            Some(_) => req.parent.and_then(|p| self.local_record(p)),
            None => None,
        };
        // A mirror leg adopts the stamp the first replica assigned.
        let (origin, stamp) = match req.timestamp {
            Some(stamp) => (Origin::Replica, stamp),
            None => (Origin::Fresh, 0),
        };
        let record = ModelRecord::new(req.graph, req.owner_map, req.parent, req.quality, stamp);
        let bytes_stored = validated.iter().map(|(_, r)| rope::len(r) as u64).sum();
        // A derived store keeps its raw records in the raw-record cache,
        // the one place that fills it: its child will delta-encode against
        // them and its loads will read them.
        let cache = self.raw_cache.as_ref().filter(|_| parent.is_some());
        let raws = match cache {
            Some(_) => validated.clone(),
            None => Vec::new(),
        };
        self.land(|set| {
            let kv = self.kv_span("kv.put_tensors");
            let parent_map = parent.as_ref().map(|r| &r.owner_map);
            let writes = self.encode_records(set, validated, parent_map)?;
            let mut depths = Vec::with_capacity(writes.len());
            for (key, payload, link) in writes {
                set.write(key, payload, link.map(|(base, _)| base))?;
                depths.push(link.map_or(0, |(_, depth)| depth));
            }
            drop(kv);
            // After every write and before publication: no retire can
            // reach these keys yet, and a failed install releases them,
            // entries and all.
            if let Some(cache) = cache {
                for ((key, rope), depth) in raws.into_iter().zip(depths) {
                    cache.admit(key, rope, depth);
                }
            }
            let timestamp = self.install_record(req.model, record, origin)?;
            Ok(StoreModelReply {
                timestamp,
                bytes_stored,
            })
        })
    }

    /// The encoded-bytes fast path behind the `GET_META` handler: the
    /// reply is built (and the compact graph deep-cloned) at most once per
    /// record incarnation and kept on the record, whose later fetches
    /// serve those bytes.
    pub(super) fn get_meta_encoded(&self, req: GetMetaRequest) -> Result<Bytes, String> {
        let snap = self.catalog_snapshot();
        let rec = snap
            .get(req.model)
            .ok_or_else(|| format!("model {} not found", req.model))?;
        if let Some(blob) = rec.meta_reply.get() {
            return Ok(blob.clone());
        }
        let reply = ModelMetaReply {
            graph: (*rec.graph).clone(),
            owner_map: rec.owner_map.clone(),
            parent: rec.parent,
            quality: rec.quality,
            timestamp: rec.timestamp,
        };
        let blob = Bytes::from(serde_json::to_vec(&reply).map_err(|e| format!("encode: {e}"))?);
        Ok(rec.meta_reply.get_or_init(|| blob).clone())
    }

    /// Answer one LCP query against a pinned snapshot with the best match
    /// under the one order of [`evostore_graph::ancestor`]; the caller
    /// accumulates stats.
    ///
    /// The default path consults the [`evostore_graph::ArchIndex`]: one `lcp()` per
    /// distinct architecture whose cone bound can still reach the best
    /// length so far. The unindexed path (Fig 5's baseline,
    /// [`ProviderState::set_index_enabled`]) is the full scan over every
    /// stored model; both return identical candidates.
    fn lcp_reply_on(&self, snap: &CatalogSnapshot, g: &CompactGraph) -> LcpQueryReply {
        let (best, stats) = if self.index_enabled.load(Ordering::Relaxed) {
            snap.index.best_ancestor(g)
        } else {
            (scan_lcp(g, members(snap)), full_scan(snap))
        };
        LcpQueryReply {
            best,
            scanned: stats.scanned as usize,
            stats,
        }
    }

    /// Handle an LCP scan: every query in the envelope (one, for a single
    /// query) is answered against *one* pinned snapshot (coherent across
    /// the batch), one after another on the thread the fabric runs it on
    /// — the caller's, since `LCP_BATCH` is on the caller lane, or a
    /// service thread for a wide broadcast's leg (the vendored `rayon`
    /// stand-in's `par_iter()` is `iter()`). Dispatch, tracing, and
    /// snapshot acquisition are paid once per envelope instead of once per
    /// query.
    pub fn handle_lcp_batch(&self, req: LcpBatchRequest) -> Result<LcpBatchReply, String> {
        req.graphs.iter().try_for_each(wire_graph)?;
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
        self.counters.batch_envelopes.add(1);
        self.counters.batch_queries.add(req.graphs.len() as u64);
        Ok(LcpBatchReply { replies })
    }

    /// Handle metadata retirement: take the record out, apply its
    /// decrements on this provider and queue the others on this
    /// provider's pump ([`decrements`](super::decrements)), then reply with
    /// the owner map and the record's stamp.
    pub fn handle_retire_meta(&self, req: RetireMetaRequest) -> Result<RetireMetaReply, String> {
        self.pump.ready()?;
        let not_found = || format!("model {} not found", req.model);
        let local = self.local_record(req.model).ok_or_else(not_found)?;
        let rec = self
            .retire_record(Tombstone {
                model: req.model,
                record_timestamp: local.timestamp,
                retired_at: self.clock.fetch_add(1, Ordering::Relaxed),
            })?
            .ok_or_else(not_found)?;
        let keys = rec.owner_map.all_tensor_keys();
        if let Some(own) = self.pump.retire(req.model, rec.timestamp, keys, self.index) {
            // The record is gone whatever this leg does: a failure here is
            // one no retry clears (a key not stored), as for a sent leg.
            let (op_id, keys) = (own.op_id, own.keys.len());
            if let Err(e) = self.handle_decr_refs(own) {
                self.pump.drop_leg(self.index, op_id, keys, &e);
            }
        }
        Ok(RetireMetaReply {
            owner_map: rec.owner_map.clone(),
            timestamp: rec.timestamp,
        })
    }

    /// Answer one pattern query against a pinned snapshot; the caller
    /// accumulates stats. Patterns are architecture-only predicates, so
    /// the indexed path evaluates each *distinct* architecture once and
    /// fans the verdict out to every model in its bucket; the unindexed
    /// path is the full scan over every record.
    fn pattern_reply_on(&self, snap: &CatalogSnapshot, pattern: &ArchPattern) -> PatternQueryReply {
        let (matches, stats) = if self.index_enabled.load(Ordering::Relaxed) {
            snap.index.match_pattern(pattern)
        } else {
            (scan_pattern(pattern, members(snap)), full_scan(snap))
        };
        PatternQueryReply {
            matches,
            scanned: stats.scanned as usize,
            stats,
        }
    }

    /// Handle a pattern scan, one envelope against one pinned snapshot
    /// (see [`ProviderState::handle_lcp_batch`]).
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
        self.counters.batch_envelopes.add(1);
        self.counters.batch_queries.add(req.patterns.len() as u64);
        Ok(PatternBatchReply { replies })
    }

    /// Insert a metadata-only catalog entry (no tensors) — the tensor-less
    /// catalog population path of the Fig 5 micro-benchmark, where "the
    /// actual DL model tensors are not stored" (§5.5).
    pub fn insert_meta_only(
        &self,
        model: ModelId,
        graph: CompactGraph,
        quality: f64,
    ) -> Result<(), String> {
        self.refuse_unplaced(model)?;
        let owner_map = OwnerMap::fresh(model, &graph);
        let record = ModelRecord::new(graph, owner_map, None, quality, 0);
        self.install_record(model, record, Origin::Fresh).map(drop)
    }
}

/// Every `(model, graph, quality)` of a snapshot: what the full scans walk.
fn members(snap: &CatalogSnapshot) -> impl Iterator<Item = (ModelId, &CompactGraph, f64)> {
    snap.records()
        .map(|(id, rec)| (id, &*rec.graph, rec.quality))
}

/// A full scan's counters: every record is a candidate and is scanned.
fn full_scan(snap: &CatalogSnapshot) -> IndexQueryStats {
    let n = snap.len() as u64;
    IndexQueryStats {
        candidates: n,
        scanned: n,
        ..IndexQueryStats::default()
    }
}

#[cfg(test)]
mod tests {
    //! The durable record format: a log directory written by an earlier
    //! build must still reopen, so its key and bytes are pinned.

    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    use bytes::Bytes;
    use evostore_kv::{
        ChunkedStore, KvBackend, KvError, LogStore, MemPoolStore, DEFAULT_CHUNK_SIZE,
    };
    use evostore_obs::{MonotonicClock, ObsHub};
    use evostore_rpc::{BulkHandle, Fabric};
    use evostore_tensor::{DType, ModelId, TensorData, TensorKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::super::refs::tests::seq;
    use super::super::{Provider, Substrate};
    use crate::messages::{
        DigestRequest, ReadChunksRequest, ReadTensorsRequest, StoreModelRequest, SyncChunksRequest,
        SyncModelRequest, TransferManifestRequest,
    };
    use crate::owner_map::OwnerMap;
    use crate::replication::ReplicationPolicy;
    use crate::{random_tensors, BackendKind, Deployment, DeploymentConfig, EvoStoreClient};
    use crate::{ProviderState, StorePolicy};

    /// A stored model's catalog record lands under `meta/` + its
    /// little-endian id as exactly these JSON bytes, before and after its
    /// optimizer state is attached.
    #[test]
    fn the_persisted_record_format_is_pinned() {
        let dep = Deployment::in_memory(1);
        let client = dep.client();
        let state = dep.provider_states().remove(0);
        let graph = seq(&[2, 3]);
        let model = ModelId(0x0102);
        let tensors = random_tensors(model, &graph, &mut ChaCha8Rng::seed_from_u64(1));
        client
            .store_model(
                graph.clone(),
                OwnerMap::fresh(model, &graph),
                Some(ModelId(7)),
                0.25,
                &tensors,
            )
            .unwrap();
        const GRAPH: &str = concat!(
            r#"{"graph":{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[2]}}},"#,
            r#""sig":223208007565277173989569156681883921148},"#,
            r#"{"config":{"name":"d1","kind":{"Dense":{"in_features":2,"units":3,"#,
            r#""activation":"ReLU"}}},"sig":117769766442636019892637234961880655063}],"#,
            r#""out_edges":[[1],[]],"in_degree":[0,1]},"#,
            r#""owner_map":{"model":258,"vertices":[{"owner":258,"owner_vertex":0,"slots":0},"#,
            r#"{"owner":258,"owner_vertex":1,"slots":2}]},"#,
            r#""parent":7,"quality":0.25,"timestamp":1,"#,
        );
        let key = b"meta/\x02\x01\x00\x00\x00\x00\x00\x00";
        let read = || String::from_utf8(state.meta_store.get(key).unwrap().to_vec()).unwrap();
        assert_eq!(read(), format!(r#"{GRAPH}"optimizer_keys":[]}}"#));
        let moment = TensorData::zeros(DType::F32, vec![2]);
        client.store_optimizer_state(model, &[moment]).unwrap();
        let optimizer = r#""optimizer_keys":[{"owner":258,"vertex":4294967295,"slot":0}]}"#;
        assert_eq!(read(), format!("{GRAPH}{optimizer}"));
    }

    /// A store that refuses while told to: every `put`, the `k`-th put
    /// from now, or every `delete`.
    #[derive(Default)]
    struct Flaky {
        kv: MemPoolStore,
        fail_puts: AtomicBool,
        /// `n > 0`: the `n`-th put from now fails, once; `0`: disarmed.
        fail_put_in: AtomicUsize,
        fail_deletes: AtomicBool,
    }

    impl Flaky {
        /// Arm the `k`-th put from now (counting from 0) to fail.
        fn fail_put(&self, k: usize) {
            self.fail_put_in.store(k + 1, Ordering::Relaxed);
        }

        /// Disarm; whether the armed put failed.
        fn disarm(&self) -> bool {
            self.fail_put_in.swap(0, Ordering::Relaxed) == 0
        }

        fn put_refused(&self) -> Result<(), KvError> {
            let countdown =
                self.fail_put_in
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
            if self.fail_puts.load(Ordering::Relaxed) || countdown == Ok(1) {
                return Err(refused("put"));
            }
            Ok(())
        }
    }

    struct FlakyKv(Arc<Flaky>);

    fn refused(what: &str) -> KvError {
        KvError::Io(std::io::Error::other(format!("{what} refused")))
    }

    impl KvBackend for FlakyKv {
        fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
            self.0.put_refused()?;
            self.0.kv.put(key, value)
        }
        fn put_segments(&self, key: &[u8], segments: Vec<Bytes>) -> Result<(), KvError> {
            self.0.put_refused()?;
            self.0.kv.put_segments(key, segments)
        }
        fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
            self.0.kv.get(key)
        }
        fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
            if self.0.fail_deletes.load(Ordering::Relaxed) {
                return Err(refused("delete"));
            }
            self.0.kv.delete(key)
        }
        fn len(&self) -> usize {
            self.0.kv.len()
        }
        fn bytes_used(&self) -> usize {
            self.0.kv.bytes_used()
        }
        fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
            self.0.kv.for_each_key(f)
        }
    }

    /// One provider over a [`Flaky`] meta store and a [`Flaky`] tensor
    /// store under the policy's substrate, and a client of it.
    struct Rig {
        provider: Provider,
        client: EvoStoreClient,
        meta: Arc<Flaky>,
        tensors: Arc<Flaky>,
        fabric: Arc<Fabric>,
        graph: evostore_graph::CompactGraph,
    }

    /// A provider `0` of `1` on `fabric`.
    fn spawn(fabric: &Arc<Fabric>, tensors: Substrate, meta: Box<dyn KvBackend>) -> Provider {
        let obs = ObsHub::new(Arc::new(MonotonicClock::default()));
        let provider = Provider::spawn(
            Arc::clone(fabric),
            0,
            1,
            ReplicationPolicy::default(),
            Arc::new(AtomicU64::new(1)),
            tensors,
            meta,
            2,
            &obs,
            4,
        );
        provider.set_peers(vec![provider.endpoint_id()]);
        provider
    }

    impl Rig {
        fn new(policy: StorePolicy) -> Rig {
            let fabric = Fabric::new();
            let (meta, tensors) = (Arc::new(Flaky::default()), Arc::new(Flaky::default()));
            let physical: Box<dyn KvBackend> = Box::new(FlakyKv(Arc::clone(&tensors)));
            let substrate = match policy {
                StorePolicy::Whole => Substrate::Whole(physical),
                StorePolicy::ChunkedWithDelta => {
                    Substrate::Chunked(ChunkedStore::open(physical, DEFAULT_CHUNK_SIZE).unwrap())
                }
            };
            let provider = spawn(&fabric, substrate, Box::new(FlakyKv(Arc::clone(&meta))));
            let client = EvoStoreClient::builder(Arc::clone(&fabric))
                .providers(vec![provider.endpoint_id()])
                .build();
            Rig {
                provider,
                client,
                meta,
                tensors,
                fabric,
                graph: seq(&[8, 32, 32, 8]),
            }
        }

        fn state(&self) -> &ProviderState {
            &self.provider.state
        }

        fn store(&self, model: ModelId, parent: Option<ModelId>, tensors: &Tensors) {
            self.try_store(model, parent, tensors).unwrap();
        }

        fn try_store(
            &self,
            model: ModelId,
            parent: Option<ModelId>,
            tensors: &Tensors,
        ) -> crate::client::Result<()> {
            let owner_map = OwnerMap::fresh(model, &self.graph);
            self.client
                .store_model(self.graph.clone(), owner_map, parent, 0.5, tensors)
                .map(drop)
        }

        fn durable(&self, model: ModelId) -> Option<Bytes> {
            self.meta.kv.get(&ProviderState::meta_key(model)).ok()
        }

        fn hosted(&self) -> Vec<TensorKey> {
            let mut keys = self.state().hosted_tensor_keys();
            keys.sort();
            keys
        }

        /// What a failed write must leave as it found it: the published
        /// catalog, the meta store, every hosted record's count and, on the
        /// chunk substrate, the chunk store's occupancy and the raw-record
        /// cache's.
        fn books(&self) -> Books {
            let state = self.state();
            let mut catalog: Vec<(ModelId, u64, Vec<TensorKey>)> = state
                .catalog_snapshot()
                .records()
                .map(|(m, r)| (m, r.timestamp, r.optimizer_keys.clone()))
                .collect();
            catalog.sort_by_key(|(m, _, _)| *m);
            let mut durable: Vec<(Vec<u8>, Bytes)> = Vec::new();
            self.meta.kv.for_each_key(&mut |k| {
                durable.push((k.to_vec(), self.meta.kv.get(k).unwrap()));
            });
            durable.sort_by(|a, b| a.0.cmp(&b.0));
            let refs = self
                .hosted()
                .into_iter()
                .map(|k| (k, state.tensor_refs(k)))
                .collect();
            let chunks = state.tensors.backend().chunked().map(|c| {
                let s = c.stats();
                (s.chunks, s.manifests, s.logical_bytes, s.physical_bytes)
            });
            Books {
                catalog,
                durable,
                refs,
                chunks,
                raw_cache: state.raw_cache.as_ref().map(|c| c.bytes()),
            }
        }

        /// `audit_refs` against the census of the provider's own digest.
        fn audit(&self) {
            let digest = self.state().handle_digest(DigestRequest {}).unwrap();
            let mut census: HashMap<TensorKey, u64> = HashMap::new();
            for m in &digest.models {
                for key in m.ref_keys.iter().chain(&m.optimizer_keys) {
                    *census.entry(*key).or_default() += 1;
                }
            }
            self.state()
                .audit_refs(census.into_iter().collect())
                .unwrap();
        }
    }

    #[derive(Debug, PartialEq)]
    struct Books {
        catalog: Vec<(ModelId, u64, Vec<TensorKey>)>,
        durable: Vec<(Vec<u8>, Bytes)>,
        refs: Vec<(TensorKey, u64)>,
        chunks: Option<(u64, u64, u64, u64)>,
        raw_cache: Option<usize>,
    }

    type Tensors = HashMap<TensorKey, TensorData>;

    fn sorted_keys(tensors: &Tensors) -> Vec<TensorKey> {
        let mut keys: Vec<TensorKey> = tensors.keys().copied().collect();
        keys.sort();
        keys
    }

    /// A store whose catalog record cannot be written fails cleanly: the
    /// records it put — deltas on the parent's tensors among them — go
    /// back through the release path, the parent's counts are as before,
    /// and nothing is cataloged, so the same store succeeds afterwards.
    #[test]
    fn a_failed_store_releases_what_it_put_and_catalogs_nothing() {
        let rig = Rig::new(StorePolicy::chunked_with_delta());
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let (parent, child) = (ModelId(1), ModelId(2));
        let parent_tensors = random_tensors(parent, &rig.graph, &mut rng);
        rig.store(parent, None, &parent_tensors);
        let child_tensors: Tensors = parent_tensors
            .iter()
            .map(|(k, t)| {
                let key = TensorKey::new(child, k.vertex, k.slot);
                (key, t.perturbed_sparse(&mut rng, 0.05))
            })
            .collect();

        rig.meta.fail_puts.store(true, Ordering::Relaxed);
        let err = rig
            .try_store(child, Some(parent), &child_tensors)
            .unwrap_err();
        assert!(err.to_string().contains("put refused"), "{err}");
        assert!(rig.state().stats().delta_stored > 0, "the child encoded");
        assert!(rig.state().catalog_snapshot().get(child).is_none());
        assert!(rig.durable(child).is_none());
        assert_eq!(rig.hosted(), sorted_keys(&parent_tensors));
        for key in parent_tensors.keys() {
            assert_eq!(rig.state().tensor_refs(*key), 1, "{key}");
        }

        rig.meta.fail_puts.store(false, Ordering::Relaxed);
        rig.store(child, Some(parent), &child_tensors);
        assert_eq!(rig.client.load_model(child).unwrap().tensors, child_tensors);
    }

    /// A retire whose catalog record cannot be deleted fails cleanly: the
    /// model stays published and durable, no retirement is witnessed and no
    /// count moves; once the meta store works the retire goes through.
    #[test]
    fn a_failed_retire_leaves_the_model_published_and_durable() {
        let rig = Rig::new(StorePolicy::whole());
        let model = ModelId(3);
        let tensors = random_tensors(model, &rig.graph, &mut ChaCha8Rng::seed_from_u64(72));
        rig.store(model, None, &tensors);

        rig.meta.fail_deletes.store(true, Ordering::Relaxed);
        let err = rig.client.retire_model(model).unwrap_err();
        assert!(err.to_string().contains("delete refused"), "{err}");
        assert!(rig.state().catalog_snapshot().get(model).is_some());
        assert!(rig.durable(model).is_some());
        assert!(rig.state().tombstones.lock().is_empty());
        assert_eq!(rig.client.get_meta(model).unwrap().timestamp, 1);
        for key in tensors.keys() {
            assert_eq!(rig.state().tensor_refs(*key), 1, "{key}");
        }

        rig.meta.fail_deletes.store(false, Ordering::Relaxed);
        rig.client.retire_model(model).unwrap();
        assert!(rig.durable(model).is_none());
        assert!(rig.hosted().is_empty());
    }

    /// An optimizer attach whose record cannot be written fails cleanly:
    /// the record, published and durable, is as it was, and the optimizer
    /// tensors it put are released.
    #[test]
    fn a_failed_attach_leaves_the_record_unchanged() {
        let rig = Rig::new(StorePolicy::whole());
        let model = ModelId(4);
        let tensors = random_tensors(model, &rig.graph, &mut ChaCha8Rng::seed_from_u64(73));
        rig.store(model, None, &tensors);
        let before = rig.durable(model).unwrap();
        let moments = vec![TensorData::zeros(DType::F32, vec![4]); 2];

        rig.meta.fail_puts.store(true, Ordering::Relaxed);
        let err = rig
            .client
            .store_optimizer_state(model, &moments)
            .unwrap_err();
        assert!(err.to_string().contains("put refused"), "{err}");
        let snap = rig.state().catalog_snapshot();
        assert!(snap.get(model).unwrap().optimizer_keys.is_empty());
        assert_eq!(rig.durable(model).unwrap(), before);
        assert_eq!(rig.hosted(), sorted_keys(&tensors));
        assert!(rig.client.load_optimizer_state(model).unwrap().is_empty());

        rig.meta.fail_puts.store(false, Ordering::Relaxed);
        rig.client.store_optimizer_state(model, &moments).unwrap();
        assert_eq!(rig.client.load_optimizer_state(model).unwrap().len(), 2);
    }

    /// A write path the failure sweep drives onto a [`Rig`]'s provider.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Write {
        Store,
        Mirror,
        SyncModel,
        SyncChunks,
        Attach,
    }

    const PARENT: ModelId = ModelId(1);
    const CHILD: ModelId = ModelId(2);

    /// A rig whose provider holds `PARENT`, and a healthy source provider
    /// on its fabric holding `PARENT` and `CHILD`, every tensor of which is
    /// a sparse perturbation of the parent's: on the chunk substrate the
    /// child is a delta lineage wherever its parent is local.
    struct Sweep {
        rig: Rig,
        source: Provider,
        child_tensors: Tensors,
    }

    impl Sweep {
        fn new(policy: StorePolicy) -> Sweep {
            let rig = Rig::new(policy);
            let substrate = Substrate::open(policy, &BackendKind::Memory, 0).unwrap();
            let source = spawn(&rig.fabric, substrate, Box::new(MemPoolStore::new()));
            let client = EvoStoreClient::builder(Arc::clone(&rig.fabric))
                .providers(vec![source.endpoint_id()])
                .build();
            let mut rng = ChaCha8Rng::seed_from_u64(75);
            let parent_tensors = random_tensors(PARENT, &rig.graph, &mut rng);
            let child_tensors: Tensors = parent_tensors
                .iter()
                .map(|(k, t)| {
                    let key = TensorKey::new(CHILD, k.vertex, k.slot);
                    (key, t.perturbed_sparse(&mut rng, 0.05))
                })
                .collect();
            for (model, parent, tensors) in [
                (PARENT, None, &parent_tensors),
                (CHILD, Some(PARENT), &child_tensors),
            ] {
                let owner_map = OwnerMap::fresh(model, &rig.graph);
                client
                    .store_model(rig.graph.clone(), owner_map, parent, 0.5, tensors)
                    .unwrap();
            }
            rig.store(PARENT, None, &parent_tensors);
            Sweep {
                rig,
                source,
                child_tensors,
            }
        }

        /// Run `write` once: the child's store, mirror leg or sync from the
        /// source, or an optimizer attach to the parent.
        fn write(&self, write: Write) -> Result<(), String> {
            let (target, source) = (self.rig.state(), &self.source.state);
            if write == Write::Attach {
                let moments = [
                    TensorData::zeros(DType::F32, vec![4]),
                    TensorData::zeros(DType::F32, vec![6]),
                ];
                let attached = self.rig.client.store_optimizer_state(PARENT, &moments);
                return attached.map(drop).map_err(|e| e.to_string());
            }
            let meta = Arc::clone(source.catalog_snapshot().get(CHILD).unwrap());
            let keys = sorted_keys(&self.child_tensors);
            let (graph, owner_map) = ((*meta.graph).clone(), meta.owner_map.clone());
            let (parent, quality, timestamp) = (meta.parent, meta.quality, meta.timestamp);
            let (out, bulk) = if write == Write::SyncChunks {
                let request = TransferManifestRequest { keys };
                let records = source.handle_transfer_manifest(request)?.records;
                let mut pushed: Vec<[u8; 16]> =
                    records.iter().flat_map(|r| r.hashes.clone()).collect();
                pushed.sort_unstable();
                pushed.dedup();
                let hashes = pushed.clone();
                let read = source.handle_read_chunks(ReadChunksRequest { hashes })?;
                let req = SyncChunksRequest {
                    model: CHILD,
                    graph,
                    owner_map,
                    parent,
                    quality,
                    timestamp,
                    records,
                    pushed,
                    lens: read.lens,
                    bulk: read.bulk,
                };
                (target.handle_sync_chunks(req).map(drop), read.bulk)
            } else {
                let read = source.handle_read(ReadTensorsRequest { keys })?;
                let (manifest, bulk) = (read.manifest, read.bulk);
                let out = match write {
                    Write::SyncModel => target
                        .handle_sync_model(SyncModelRequest {
                            model: CHILD,
                            graph,
                            owner_map,
                            parent,
                            quality,
                            timestamp,
                            manifest,
                            bulk,
                        })
                        .map(|reply| assert!(reply.applied)),
                    _ => target
                        .handle_store(StoreModelRequest {
                            model: CHILD,
                            graph,
                            owner_map,
                            parent,
                            quality,
                            manifest,
                            bulk,
                            timestamp: (write == Write::Mirror).then_some(timestamp),
                        })
                        .map(drop),
                };
                (out, bulk)
            };
            assert!(self.rig.fabric.bulk_release(BulkHandle(bulk)));
            out
        }
    }

    /// Fail `write`'s meta write, then each of its tensor-store puts in
    /// turn (chunk and manifest puts on the chunk substrate): each failure
    /// answers `Err`, leaves the books as they were and audits. Then the
    /// write lands, and audits.
    fn sweep(policy: StorePolicy, write: Write) {
        let s = Sweep::new(policy);
        let rig = &s.rig;
        let before = rig.books();
        rig.audit();
        rig.meta.fail_puts.store(true, Ordering::Relaxed);
        let err = s.write(write).unwrap_err();
        rig.meta.fail_puts.store(false, Ordering::Relaxed);
        assert!(
            err.contains("put refused"),
            "{policy:?} {write:?}, meta: {err}"
        );
        assert_eq!(
            rig.books(),
            before,
            "{policy:?} {write:?}, meta write failed"
        );
        rig.audit();
        let mut failed = 0;
        loop {
            rig.tensors.fail_put(failed);
            let out = s.write(write);
            if !rig.tensors.disarm() {
                out.unwrap();
                break;
            }
            let err = out.unwrap_err();
            assert!(
                err.contains("put refused"),
                "{policy:?} {write:?}, put {failed}: {err}"
            );
            assert_eq!(
                rig.books(),
                before,
                "{policy:?} {write:?}, put {failed} failed"
            );
            rig.audit();
            failed += 1;
        }
        assert!(failed >= 2, "{policy:?} {write:?}: {failed} puts");
        rig.audit();
        if write == Write::Attach {
            let moments = rig.client.load_optimizer_state(PARENT).unwrap();
            assert_eq!(moments.len(), 2);
            return;
        }
        let loaded = rig.client.load_model(CHILD).unwrap();
        assert_eq!(loaded.tensors, s.child_tensors);
        // A landed store of a derived model is kept raw; a sync is not.
        let kept = rig.state().stats().raw_cache_bytes > 0;
        let landed = matches!(write, Write::Store | Write::Mirror);
        assert_eq!(
            kept,
            landed && policy == StorePolicy::chunked_with_delta(),
            "{policy:?} {write:?}"
        );
        // A materialized sync ships raw records.
        if policy == StorePolicy::chunked_with_delta() && write != Write::SyncModel {
            let links = rig.state().delta_links().unwrap();
            assert!(!links.is_empty(), "{write:?}: the child lands as deltas");
        }
    }

    /// A store that fails at any put or at its meta write gives back every
    /// record it put and every base pin it took.
    #[test]
    fn a_store_that_fails_anywhere_gives_back_every_reference() {
        for policy in [StorePolicy::whole(), StorePolicy::chunked_with_delta()] {
            sweep(policy, Write::Store);
        }
    }

    /// A mirror leg, likewise.
    #[test]
    fn a_mirror_leg_that_fails_anywhere_gives_back_every_reference() {
        for policy in [StorePolicy::whole(), StorePolicy::chunked_with_delta()] {
            sweep(policy, Write::Mirror);
        }
    }

    /// A materialized sync that fails at any put or at its meta write
    /// gives back every record it put.
    #[test]
    fn a_model_sync_that_fails_anywhere_gives_back_every_reference() {
        for policy in [StorePolicy::whole(), StorePolicy::chunked_with_delta()] {
            sweep(policy, Write::SyncModel);
        }
    }

    /// A chunk sync, likewise, with the base reference each shipped delta
    /// took.
    #[test]
    fn a_chunk_sync_that_fails_anywhere_gives_back_every_reference() {
        sweep(StorePolicy::chunked_with_delta(), Write::SyncChunks);
    }

    /// An optimizer attach, likewise.
    #[test]
    fn an_attach_that_fails_anywhere_gives_back_every_reference() {
        for policy in [StorePolicy::whole(), StorePolicy::chunked_with_delta()] {
            sweep(policy, Write::Attach);
        }
    }

    /// `reopen` refuses a catalog record it cannot read — bytes that are
    /// not a record, or a record whose graph lies — and names its key,
    /// rather than skip it and prune the tensors only it references.
    #[test]
    fn reopen_refuses_an_unreadable_catalog_record_by_its_key() {
        let dir = std::env::temp_dir().join(format!("evostore-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DeploymentConfig {
            providers: 1,
            backend: BackendKind::Log { dir: dir.clone() },
            ..Default::default()
        };
        let graph = seq(&[2, 3]);
        let model = ModelId(5);
        {
            let dep = Deployment::new(cfg.clone());
            let tensors = random_tensors(model, &graph, &mut ChaCha8Rng::seed_from_u64(74));
            let owner_map = OwnerMap::fresh(model, &graph);
            dep.client()
                .store_model(graph, owner_map, None, 0.5, &tensors)
                .unwrap();
        }
        let key = ProviderState::meta_key(model);
        let stored = {
            let meta = LogStore::open(dir.join("provider-0/meta")).unwrap();
            String::from_utf8(meta.get(&key).unwrap().to_vec()).unwrap()
        };
        assert!(stored.contains(r#""in_degree":[0,1]"#), "{stored}");
        let lying = stored.replace(r#""in_degree":[0,1]"#, r#""in_degree":[0,2]"#);
        for bad in [b"not a record".to_vec(), lying.into_bytes()] {
            LogStore::open(dir.join("provider-0/meta"))
                .unwrap()
                .put(&key, Bytes::from(bad))
                .unwrap();
            let err = Deployment::reopen(cfg.clone())
                .err()
                .expect("reopen refuses");
            assert!(err.contains(&key.escape_ascii().to_string()), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
