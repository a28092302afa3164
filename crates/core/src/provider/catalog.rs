//! The model catalog's handlers: store, metadata fetch and retirement,
//! LCP and pattern queries over the published snapshot, and the durable
//! record form the catalog recovers from.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use evostore_graph::{lcp, ArchPattern, CompactGraph, IndexQueryStats};
use evostore_tensor::{rope, ModelId, TensorKey};
use rayon::prelude::*;

use super::{CatalogSnapshot, ModelRecord, ProviderState};
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

/// Gate for a graph decoded from a request: `lcp()` and the index's cone
/// pass trust `CompactGraph`'s invariants and panic on a graph that
/// lies, which on a service thread hangs the provider.
pub(super) fn wire_graph(g: &CompactGraph) -> Result<(), String> {
    g.validate().map_err(|e| format!("malformed graph: {e}"))
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

impl ProviderState {
    fn meta_key(model: ModelId) -> Vec<u8> {
        let mut k = b"meta/".to_vec();
        k.extend_from_slice(&model.0.to_le_bytes());
        k
    }

    pub(super) fn persist_record(&self, model: ModelId, rec: &ModelRecord) {
        let blob = serde_json::to_vec(&rec.to_persisted()).expect("record serializes");
        self.meta_store
            .put(&Self::meta_key(model), bytes::Bytes::from(blob))
            .expect("persist catalog record");
    }

    pub(super) fn unpersist_record(&self, model: ModelId) {
        let _ = self.meta_store.delete(&Self::meta_key(model));
    }

    /// Restore the catalog from the durable meta store and register every
    /// hosted tensor with a zero reference count. The deployment then
    /// replays reference counts from *all* providers' owner maps and each
    /// provider's local delta links
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
            if p.graph.validate().is_err() {
                continue;
            }
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
        for key in self.hosted_tensor_keys() {
            self.tensors.adopt(&key.encode());
        }
        restored
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

    /// The encoded-bytes fast path behind the `GET_META` handler: build
    /// (and deep-clone the compact graph) at most once per stored record
    /// incarnation, then serve the cached JSON encoding. The cache entry
    /// is keyed by record timestamp, so a re-store or anti-entropy sync
    /// that installs a newer record invalidates it implicitly.
    pub(super) fn get_meta_encoded(&self, req: GetMetaRequest) -> Result<Bytes, String> {
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
        self.drop_optimizer_copies(&rec)?;
        Ok(RetireMetaReply {
            owner_map: rec.owner_map.clone(),
            timestamp: rec.timestamp,
        })
    }

    /// Drop a record's optimizer state as the record leaves the catalog:
    /// it is model-private and replica-local, so each replica reclaims its
    /// own copy through the release path.
    pub(super) fn drop_optimizer_copies(&self, rec: &ModelRecord) -> Result<(), String> {
        for key in &rec.optimizer_keys {
            self.release(*key)
                .map_err(|e| format!("drop optimizer state: {e}"))?;
        }
        Ok(())
    }

    /// Record a retirement, keeping the newest incarnation per model.
    pub(super) fn record_tombstone(&self, t: Tombstone) {
        let mut tombs = self.tombstones.lock();
        let entry = tombs.entry(t.model).or_insert(t);
        if (t.record_timestamp, t.retired_at) > (entry.record_timestamp, entry.retired_at) {
            *entry = t;
        }
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
}
