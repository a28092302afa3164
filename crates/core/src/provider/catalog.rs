//! The model catalog: the one module that changes it, and its handlers —
//! store, metadata fetch and retirement, LCP and pattern queries over the
//! published snapshot — with the durable record form it recovers from.
//!
//! A record enters through [`ProviderState::install_record`] and leaves
//! through [`ProviderState::retire_record`]; an optimizer attach changes
//! one in place ([`ProviderState::attach_optimizer`]). Each writes the
//! meta store before it publishes: a failed durable write leaves the
//! published catalog as it was and returns `Err`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use evostore_graph::{lcp, ArchPattern, CompactGraph, IndexQueryStats};
use evostore_tensor::{rope, ModelId, TensorKey};
use rayon::prelude::*;

use super::{Catalog, CatalogSnapshot, ModelRecord, ProviderState};
use crate::messages::*;
use crate::owner_map::OwnerMap;
use crate::par;
use crate::records::validate_entry;

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
        let blob = serde_json::to_vec(&rec.to_persisted())
            .map_err(|e| format!("encode catalog record {model}: {e}"))?;
        self.meta_store
            .put(&Self::meta_key(model), Bytes::from(blob))
            .map_err(|e| format!("persist catalog record {model}: {e}"))
    }

    fn unpersist_record(&self, model: ModelId) -> Result<(), String> {
        self.meta_store
            .delete(&Self::meta_key(model))
            .map(drop)
            .map_err(|e| format!("delete catalog record {model}: {e}"))
    }

    /// Run a catalog mutation and, when it succeeds, publish the resulting
    /// snapshot (a failed one must leave the catalog as it found it). The
    /// swap happens under the write lock, so snapshots publish in exactly
    /// the mutation order.
    fn mutate_catalog<T>(
        &self,
        f: impl FnOnce(&mut Catalog) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut catalog = self.catalog.write();
        let out = f(&mut catalog)?;
        catalog.version += 1;
        let snap = catalog.snapshot();
        self.snapshot.store(Arc::clone(&snap));
        // Subscribers see events in publication order: the change log goes
        // to the delivery hub under the lock (one atomic load if none).
        let changes = std::mem::take(&mut catalog.changes);
        if !changes.is_empty() {
            self.delivery.on_publication(&snap, &changes);
        }
        Ok(out)
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
        c: &mut Catalog,
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
    /// one is here; then witness the retirement (newest incarnation per
    /// model), so anti-entropy can tell a replica that missed it from one
    /// that missed a newer store of the same id; then drop its optimizer
    /// copies (model-private and replica-local: each replica its own).
    pub(super) fn retire_record(&self, t: Tombstone) -> Result<Option<Arc<ModelRecord>>, String> {
        let rec = self.take_record(t.model, |r| r.timestamp <= t.record_timestamp)?;
        let mut tombs = self.tombstones.lock();
        let entry = tombs.entry(t.model).or_insert(t);
        *entry = std::cmp::max_by_key(*entry, t, |x| (x.record_timestamp, x.retired_at));
        drop(tombs);
        if let Some(rec) = &rec {
            self.release_all(&rec.optimizer_keys)?;
        }
        Ok(rec)
    }

    /// Take `model`'s record out when `stale` holds for it: delete it from
    /// the meta store, then unpublish it.
    pub(super) fn take_record(
        &self,
        model: ModelId,
        stale: impl Fn(&ModelRecord) -> bool,
    ) -> Result<Option<Arc<ModelRecord>>, String> {
        let held = |c: &Catalog| c.records.get(&model).is_some_and(|r| stale(r));
        // Nothing to take publishes nothing.
        if !held(&self.catalog.read()) {
            return Ok(None);
        }
        self.mutate_catalog(|c| {
            if !held(c) {
                return Ok(None);
            }
            self.unpersist_record(model)?;
            Ok(c.remove(model))
        })
    }

    /// Attach optimizer state to `model`'s record: put the records, write
    /// the attached record to the meta store, then publish it in place of
    /// the old `Arc` — all under the write lock, so a concurrent attach
    /// cannot interleave. A failure releases what was put. Returns the
    /// record's stamp and the bytes put.
    pub(super) fn attach_optimizer(
        &self,
        model: ModelId,
        validated: Vec<(TensorKey, Vec<Bytes>)>,
    ) -> Result<(u64, u64), String> {
        let mut put = Vec::with_capacity(validated.len());
        let attached = self.mutate_catalog(|c| {
            let rec = c
                .records
                .get_mut(&model)
                .ok_or_else(|| format!("model {model} not found"))?;
            if !rec.optimizer_keys.is_empty() {
                return Err(format!("model {model} already has optimizer state"));
            }
            let mut bytes_stored = 0u64;
            for (key, record) in validated {
                bytes_stored += rope::len(&record) as u64;
                self.tensors
                    .put_segments(&key.encode(), record, 1)
                    .map_err(|e| format!("store optimizer tensor {key}: {e}"))?;
                put.push(key);
            }
            let attached = ModelRecord {
                optimizer_keys: put.clone(),
                ..ModelRecord::clone(rec)
            };
            self.persist_record(model, &attached)?;
            *rec = Arc::new(attached);
            Ok((rec.timestamp, bytes_stored))
        });
        if attached.is_err() {
            self.release_all(&put)?;
        }
        attached
    }

    /// Drop one reference on each of `keys` through the release path.
    pub(super) fn release_all(&self, keys: &[TensorKey]) -> Result<(), String> {
        for key in keys {
            self.release(*key)?;
        }
        Ok(())
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
        // the integrity + spec checks are shared out per tensor
        // ([`par::map`]); `validate_entry` verifies framing, dims and
        // checksum without materializing a `TensorData` — and without
        // gathering: a record pushed as a rope around the caller's payload
        // is sliced, checked and stored as that rope.
        if par::forks(req.manifest.len(), region.len()) {
            self.counters.validate_par_batches.add(1);
        }
        let validated = par::map(&req.manifest, region.len(), |entry| {
            // Integrity + spec check before persisting.
            let (record, shape, dtype) = validate_entry(entry, &region)?;
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
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;

        // On the chunked substrate, when the parent is cataloged locally,
        // each self-owned tensor may be stored as a delta against the
        // parent's tensor at the same vertex/slot (only when the base is
        // co-located and the delta actually saves space).
        let parent_map = if self.tensors.backend().chunked().is_some() {
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
        let deltas = match &parent_map {
            Some(map) => self.encode_records(&validated, map)?,
            None => Vec::new(),
        };
        let bytes_stored = self.put_records(validated, deltas)?;
        drop(kv);

        // A mirror leg adopts the stamp the first replica assigned.
        let origin = match req.timestamp {
            Some(_) => Origin::Replica,
            None => Origin::Fresh,
        };
        let stamp = req.timestamp.unwrap_or(0);
        let record = ModelRecord::new(req.graph, req.owner_map, req.parent, req.quality, stamp);
        let installed = self.install_record(req.model, record, origin);
        if installed.is_err() {
            // No record references what this store put: give it back.
            let put: Vec<TensorKey> = req.manifest.iter().map(|m| m.key).collect();
            self.release_all(&put)?;
        }
        let timestamp = installed?;
        Ok(StoreModelReply {
            timestamp,
            bytes_stored,
        })
    }

    /// Delta-encode a store's records against the parent's tensors, one
    /// entry per record (`None`: stored raw; each `Some` holds a reference
    /// on its base). Encoding only reads the store, so it is shared out.
    pub(super) fn encode_records(
        &self,
        validated: &[(TensorKey, Vec<Bytes>)],
        parent_map: &OwnerMap,
    ) -> Result<Vec<Option<(Bytes, TensorKey)>>, String> {
        let bytes = validated.iter().map(|(_, record)| rope::len(record)).sum();
        par::map(validated, bytes, |(key, record)| {
            self.try_delta_encode(*key, record, parent_map)
        })
        .into_iter()
        .collect()
    }

    /// Put a store's records serially, in manifest order, each as its
    /// delta where it has one. Returns the bytes the caller sent.
    pub(super) fn put_records(
        &self,
        validated: Vec<(TensorKey, Vec<Bytes>)>,
        deltas: Vec<Option<(Bytes, TensorKey)>>,
    ) -> Result<u64, String> {
        let mut deltas = deltas.into_iter();
        let mut bytes_stored = 0u64;
        for (key, record) in validated {
            bytes_stored += rope::len(&record) as u64;
            match deltas.next().flatten() {
                Some((blob, _)) => {
                    self.tensors
                        .put(&key.encode(), blob, 1)
                        .map_err(|e| format!("store tensor {key}: {e}"))?;
                    self.counters.delta_stored.add(1);
                }
                None => {
                    self.tensors
                        .put_segments(&key.encode(), record, 1)
                        .map_err(|e| format!("store tensor {key}: {e}"))?;
                }
            }
        }
        Ok(bytes_stored)
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
    /// (longest prefix; quality breaks ties; lower model id breaks exact
    /// ties deterministically); the caller accumulates stats.
    ///
    /// The default path consults the [`evostore_graph::ArchIndex`]: one `lcp()` per
    /// distinct architecture whose cone bound can still reach the best
    /// length so far. The unindexed path (Fig 5's baseline,
    /// [`ProviderState::set_index_enabled`]) scans every stored model in
    /// parallel; both return identical candidates.
    fn lcp_reply_on(&self, snap: &CatalogSnapshot, g: &CompactGraph) -> LcpQueryReply {
        if self.index_enabled.load(Ordering::Relaxed) {
            let (best, stats) = snap.index.best_ancestor(g);
            return LcpQueryReply {
                best: best.map(|c| LcpCandidate {
                    model: c.model,
                    quality: c.quality,
                    lcp: c.lcp,
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

    /// Handle metadata retirement. The caller receives the owner map and
    /// is responsible for the decrement fan-out.
    pub fn handle_retire_meta(&self, req: RetireMetaRequest) -> Result<RetireMetaReply, String> {
        let not_found = || format!("model {} not found", req.model);
        let record_timestamp = self
            .catalog
            .read()
            .records
            .get(&req.model)
            .map(|r| r.timestamp)
            .ok_or_else(not_found)?;
        let rec = self
            .retire_record(Tombstone {
                model: req.model,
                record_timestamp,
                retired_at: self.clock.fetch_add(1, Ordering::Relaxed),
            })?
            .ok_or_else(not_found)?;
        Ok(RetireMetaReply {
            owner_map: rec.owner_map.clone(),
            timestamp: rec.timestamp,
        })
    }

    /// Answer one pattern query against a pinned snapshot; the caller
    /// accumulates stats. Patterns are architecture-only predicates, so
    /// the indexed path evaluates each *distinct* architecture once and
    /// fans the verdict out to every model in its bucket; the unindexed
    /// path tests every record in parallel.
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
        if !self.places_here(model) {
            return Err(format!(
                "model {model} does not place on provider {}",
                self.index
            ));
        }
        let owner_map = OwnerMap::fresh(model, &graph);
        let record = ModelRecord::new(graph, owner_map, None, quality, 0);
        self.install_record(model, record, Origin::Fresh).map(drop)
    }
}

#[cfg(test)]
mod tests {
    //! The durable record format: a log directory written by an earlier
    //! build must still reopen, so its key and bytes are pinned.

    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use bytes::Bytes;
    use evostore_kv::{KvBackend, KvError, LogStore, MemPoolStore};
    use evostore_obs::{MonotonicClock, ObsHub};
    use evostore_rpc::Fabric;
    use evostore_tensor::{DType, ModelId, TensorData, TensorKey};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use super::super::refs::tests::seq;
    use super::super::{Provider, Substrate};
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

    /// A meta store that fails `put` or `delete` while told to.
    #[derive(Default)]
    struct Flaky {
        kv: MemPoolStore,
        fail_puts: AtomicBool,
        fail_deletes: AtomicBool,
    }

    struct FlakyMeta(Arc<Flaky>);

    fn refused(what: &str) -> KvError {
        KvError::Io(std::io::Error::other(format!("{what} refused")))
    }

    impl KvBackend for FlakyMeta {
        fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
            if self.0.fail_puts.load(Ordering::Relaxed) {
                return Err(refused("put"));
            }
            self.0.kv.put(key, value)
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

    /// One provider over a [`Flaky`] meta store, and a client of it.
    struct Rig {
        provider: Provider,
        client: EvoStoreClient,
        meta: Arc<Flaky>,
        graph: evostore_graph::CompactGraph,
    }

    impl Rig {
        fn new(policy: StorePolicy) -> Rig {
            let fabric = Fabric::new();
            let obs = ObsHub::new(Arc::new(MonotonicClock::default()));
            let meta = Arc::new(Flaky::default());
            let provider = Provider::spawn(
                Arc::clone(&fabric),
                0,
                1,
                ReplicationPolicy::default(),
                Arc::new(AtomicU64::new(1)),
                Substrate::open(policy, &BackendKind::Memory, 0).unwrap(),
                Box::new(FlakyMeta(Arc::clone(&meta))),
                2,
                &obs,
                4,
            );
            let client = EvoStoreClient::builder(fabric)
                .providers(vec![provider.endpoint_id()])
                .build();
            Rig {
                provider,
                client,
                meta,
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
