//! Anti-entropy repair and the derivative-aware transfer plane: catalog
//! digests, materialized and chunk-negotiated model syncs (on the chunked
//! substrate delta records ship as stored, land only where their header
//! depth is their chain's, and take their base reference on arrival),
//! chunk possession probes and reads, and retirement syncs.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use evostore_graph::CompactGraph;
use evostore_kv::{ChunkedStore, KvBackend};
use evostore_tensor::{
    delta_probe_segments, validate_segments, ContentHash, DeltaHeader, ModelId, TensorKey,
    DELTA_PROBE_LEN,
};

use super::delta::chain_step;
use super::{ModelRecord, ProviderState};
use crate::messages::*;
use crate::owner_map::OwnerMap;
use crate::par;
use crate::records::{pushed_chunks, record_in};
use crate::replication::incarnation;

/// What a whole-record provider answers every chunk-negotiation method.
const NOT_CHUNKED: &str = "store is not content-addressed";

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

/// The catalog record a sync request carries, whichever plane its
/// payloads ride.
struct SyncedModel {
    model: ModelId,
    graph: CompactGraph,
    owner_map: OwnerMap,
    parent: Option<ModelId>,
    quality: f64,
    timestamp: u64,
}

impl ProviderState {
    /// The chunk store, or the typed refusal every chunk-negotiation
    /// method answers on a whole-record provider (its request bodies are
    /// outside input, so a misdirected one is refused, not trusted).
    fn chunk_store(&self) -> Result<&ChunkedStore<Box<dyn KvBackend>>, String> {
        self.tensors
            .backend()
            .chunked()
            .ok_or_else(|| NOT_CHUNKED.to_string())
    }

    /// Handle a digest request: summarize every cataloged model (id,
    /// timestamp, referenced tensor keys) and every witnessed
    /// retirement — the input of the deployment's reference census
    /// (`repair` over the fabric, `reopen` and `gc_audit` in process).
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

    /// What `SYNC_MODEL` and `SYNC_CHUNKS` share: install `m` unless the
    /// local copy is already at least as new. `check` pulls and validates
    /// the shipment without touching any state — a malformed sync can never
    /// leave partially-stored records — and only then is a stale local
    /// incarnation dropped (its private optimizer copies with it) and the
    /// checked payloads handed to `store`. `keys` names every record of
    /// the shipment. `Ok(None)`: not applied, the local copy stands.
    fn install_synced<V, T>(
        &self,
        m: SyncedModel,
        keys: impl Iterator<Item = TensorKey>,
        check: impl FnOnce() -> Result<V, String>,
        store: impl FnOnce(V) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        super::catalog::wire_graph(&m.graph)?;
        if !self.places_here(m.model) {
            return Err(format!(
                "model {} does not place on provider {}",
                m.model, self.index
            ));
        }
        let mut optimizer_keys: Vec<TensorKey> = keys.filter(|k| k.vertex.0 == u32::MAX).collect();
        optimizer_keys.sort_by_key(|k| k.slot);
        let incoming = incarnation(m.timestamp, &optimizer_keys);
        let local = self
            .catalog
            .read()
            .records
            .get(&m.model)
            .map(|r| incarnation(r.timestamp, &r.optimizer_keys));
        if local >= Some(incoming) {
            return Ok(None);
        }
        let checked = check()?;
        if let Some(old) = self.mutate_catalog(|c| c.remove(m.model)) {
            self.drop_optimizer_copies(&old)?;
        }
        let stored = store(checked)?;
        self.clock.fetch_max(m.timestamp + 1, Ordering::Relaxed);
        let record = ModelRecord {
            graph: Arc::new(m.graph),
            owner_map: m.owner_map,
            parent: m.parent,
            quality: m.quality,
            timestamp: m.timestamp,
            optimizer_keys,
        };
        self.persist_record(m.model, &record);
        self.mutate_catalog(|c| c.insert(m.model, record));
        Ok(Some(stored))
    }

    /// Handle a materialized model sync: install the record and its
    /// tensor payloads unless the local copy is already at least as new.
    /// The records ride the same plane as a store's: pulled as a rope,
    /// each taken out with `record_in`, checked where it lies and put as
    /// the rope it arrived as.
    pub fn handle_sync_model(&self, req: SyncModelRequest) -> Result<SyncModelReply, String> {
        let SyncModelRequest {
            model,
            graph,
            owner_map,
            parent,
            quality,
            timestamp,
            manifest,
            bulk,
        } = req;
        let synced = SyncedModel {
            model,
            graph,
            owner_map,
            parent,
            quality,
            timestamp,
        };
        let manifest = &manifest;
        let check = || {
            let region = self
                .fabric
                .bulk_get_vec(evostore_rpc::BulkHandle(bulk))
                .map_err(|e| format!("bulk pull failed: {e}"))?;
            evostore_obs::ledger::add_bytes_in(region.len() as u64);
            par::map(manifest, region.len(), |entry| {
                let record = record_in(entry, &region).map_err(|e| e.to_string())?;
                validate_segments(&record).map_err(|e| format!("tensor {}: {e}", entry.key))?;
                Ok((entry.key, record))
            })
            .into_iter()
            .collect::<Result<Vec<_>, String>>()
        };
        let store = |validated: Vec<(TensorKey, Vec<Bytes>)>| {
            let mut tensors_stored = 0usize;
            for (key, record) in validated {
                // Already-present payloads keep their count: the refs sync
                // that follows installs the authoritative values.
                let enc = key.encode();
                if self.tensors.contains(&enc) {
                    continue;
                }
                self.tensors
                    .put_segments(&enc, record, 1)
                    .map_err(|e| format!("sync tensor {key}: {e}"))?;
                tensors_stored += 1;
            }
            Ok(tensors_stored)
        };
        let keys = manifest.iter().map(|e| e.key);
        let installed = self.install_synced(synced, keys, check, store)?;
        Ok(SyncModelReply {
            applied: installed.is_some(),
            tensors_stored: installed.unwrap_or(0),
        })
    }

    /// Collect the leading chunks of a chunked record that hold its first
    /// [`DELTA_PROBE_LEN`] bytes — `provided` payloads first, the local
    /// chunk store second — and return the record's delta header (`None`
    /// for raw records). Framing is validated without ever assembling the
    /// record.
    fn probe_chunked_framing(
        &self,
        key: TensorKey,
        total: u64,
        hashes: &[[u8; 16]],
        provided: &HashMap<u128, Bytes>,
    ) -> Result<Option<DeltaHeader>, String> {
        let mut head: Vec<Bytes> = Vec::new();
        let mut have = 0usize;
        for hb in hashes {
            if have >= DELTA_PROBE_LEN || have as u64 >= total {
                break;
            }
            let h = wire_hash(hb);
            let chunk = match provided.get(&h.0) {
                Some(c) => c.clone(),
                None => self.chunk_store()?.chunk_payload(h).map_err(|_| {
                    format!(
                        "record {key}: head chunk {:032x} unavailable for framing validation",
                        h.0
                    )
                })?,
            };
            have += chunk.len();
            head.push(chunk);
        }
        delta_probe_segments(&head, total as usize).map_err(|e| format!("record {key}: {e}"))
    }

    /// Handle a transfer-manifest request (sync source side): describe
    /// how each record's *stored* bytes decompose into content-addressed
    /// chunks and delta linkage, without materializing anything — the
    /// opening move of a chunk-negotiated sync. A whole-record store has
    /// no chunks to describe and refuses.
    pub fn handle_transfer_manifest(
        &self,
        req: TransferManifestRequest,
    ) -> Result<TransferManifestReply, String> {
        let records = req
            .keys
            .iter()
            .map(|key| self.transfer_record(*key))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TransferManifestReply { records })
    }

    /// One chunked record's transfer manifest: its stored length, its
    /// chunk hashes and its delta linkage, described from its listing and
    /// head chunks alone.
    pub(super) fn transfer_record(&self, key: TensorKey) -> Result<TransferRecord, String> {
        let (total, hashes) = self
            .chunk_store()?
            .chunk_manifest(&key.encode())
            .map_err(|_| format!("tensor {key} not stored"))?;
        let hashes: Vec<[u8; 16]> = hashes.iter().map(|h| h.to_bytes()).collect();
        let head = self.probe_chunked_framing(key, total as u64, &hashes, &HashMap::new())?;
        let (delta_base, delta_depth) = delta_linkage(key, head)?;
        Ok(TransferRecord {
            key,
            total: total as u64,
            hashes,
            delta_base,
            delta_depth,
        })
    }

    /// Handle a possession probe (sync target side): which of the
    /// offered chunks — and record keys, for delta bases — are already
    /// held here.
    pub fn handle_have_chunks(&self, req: HaveChunksRequest) -> Result<HaveChunksReply, String> {
        let hashes: Vec<ContentHash> = req.hashes.iter().map(wire_hash).collect();
        let have_chunks = self.chunk_store()?.probe_chunks(&hashes);
        let have_records = req
            .keys
            .iter()
            .map(|k| self.tensors.contains(&k.encode()))
            .collect();
        self.counters
            .transfer_chunks_offered
            .add(req.hashes.len() as u64);
        self.counters
            .transfer_chunks_skipped
            .add(have_chunks.iter().filter(|b| **b).count() as u64);
        Ok(HaveChunksReply {
            have_chunks,
            have_records,
        })
    }

    /// Handle a chunk read (sync source side): the requested chunk
    /// payloads, by content hash, as one vectored bulk region of shared
    /// buffers (the caller releases it).
    pub fn handle_read_chunks(&self, req: ReadChunksRequest) -> Result<ReadChunksReply, String> {
        let chunks = self.chunk_store()?;
        let mut lens = Vec::with_capacity(req.hashes.len());
        let mut segments = Vec::with_capacity(req.hashes.len());
        for hb in &req.hashes {
            let h = wire_hash(hb);
            let chunk = chunks
                .chunk_payload(h)
                .map_err(|e| format!("chunk {:032x}: {e}", h.0))?;
            lens.push(chunk.len() as u64);
            segments.push(chunk);
        }
        evostore_obs::ledger::add_bytes_out(lens.iter().sum());
        evostore_obs::ledger::add_chunks_touched(segments.len() as u64);
        self.counters
            .transfer_chunks_sent
            .add(segments.len() as u64);
        self.counters
            .bulk_segments_exposed
            .add(segments.len() as u64);
        let bulk = self.fabric.bulk_expose_vec(segments);
        Ok(ReadChunksReply { lens, bulk: bulk.0 })
    }

    /// Handle a chunk-negotiated, delta-preserving model sync: install
    /// the record from transfer manifests plus only the pushed
    /// (receiver-missing) chunks. Tensors are never materialized on
    /// either side; delta-encoded records arrive verbatim and take their
    /// reference on their base. A delta whose header depth is not its
    /// base's depth here plus one is refused, so no chain lands deeper
    /// than its headers say or than [`crate::policy::MAX_CHAIN_DEPTH`].
    /// Staleness rules match [`ProviderState::handle_sync_model`]; on any
    /// validation failure repair falls back to a materialized sync.
    pub fn handle_sync_chunks(&self, req: SyncChunksRequest) -> Result<SyncChunksReply, String> {
        let chunks = self.chunk_store()?;
        let SyncChunksRequest {
            model,
            graph,
            owner_map,
            parent,
            quality,
            timestamp,
            records,
            pushed,
            lens,
            bulk,
        } = req;
        let synced = SyncedModel {
            model,
            graph,
            owner_map,
            parent,
            quality,
            timestamp,
        };
        let records = &records;
        let check = || {
            let region = self
                .fabric
                .bulk_get_vec(evostore_rpc::BulkHandle(bulk))
                .map_err(|e| format!("bulk pull failed: {e}"))?;
            evostore_obs::ledger::add_bytes_in(region.len() as u64);
            evostore_obs::ledger::add_chunks_touched(pushed.len() as u64);
            let provided: HashMap<u128, Bytes> = pushed
                .iter()
                .map(|hb| wire_hash(hb).0)
                .zip(pushed_chunks(&pushed, &lens, &region)?)
                .collect();
            // Validate every record's claimed delta linkage from its head
            // chunk — available pre-insert from the push or the local chunk
            // store — so a lying manifest can never install a delta record
            // without the reference on its base.
            let mut heads: HashMap<TensorKey, Option<DeltaHeader>> = HashMap::new();
            for r in records {
                let head = self.probe_chunked_framing(r.key, r.total, &r.hashes, &provided)?;
                heads.insert(r.key, head);
            }
            let mut delta_raw_len: HashMap<TensorKey, u64> = HashMap::new();
            for rec in records {
                match (heads[&rec.key], rec.delta_base) {
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
                        if h.base_key != base.encode() || h.depth != rec.delta_depth {
                            return Err(format!(
                                "record {}: manifest disagrees with the stored delta header",
                                rec.key
                            ));
                        }
                        // The base's depth here: a stored base keeps its
                        // own record, else it rides in this shipment.
                        let base_depth = if self.tensors.contains(&h.base_key) {
                            self.transfer_record(base)?.delta_depth
                        } else if let Some(head) = heads.get(&base) {
                            head.map_or(0, |b| b.depth)
                        } else {
                            return Err(format!(
                                "record {}: delta base {base} not present on the target",
                                rec.key
                            ));
                        };
                        // A chain the source built on another base layout
                        // would sit here at a depth its header does not
                        // state: refused, the record ships materialized.
                        if !chain_step(h.depth, base_depth) {
                            return Err(format!(
                                "record {}: header depth {} on a base at depth {base_depth} \
                                 here",
                                rec.key, h.depth
                            ));
                        }
                        delta_raw_len.insert(rec.key, h.raw_len as u64);
                    }
                }
            }
            Ok((provided, delta_raw_len, region.len() as u64))
        };
        let store =
            |(provided, delta_raw_len, moved): (HashMap<u128, Bytes>, HashMap<_, u64>, u64)| {
                let kv = self.kv_span("kv.sync_chunks");
                let mut records_stored = 0usize;
                let mut bytes_needed = 0u64;
                let mut bases = Vec::new();
                for rec in records {
                    let enc = rec.key.encode();
                    // Already-present records keep their count: the refs sync
                    // that follows installs the authoritative values.
                    if self.tensors.contains(&enc) {
                        continue;
                    }
                    let hashes: Vec<ContentHash> = rec.hashes.iter().map(wire_hash).collect();
                    self.tensors
                        .put_with(&enc, 1, |_| {
                            chunks.put_manifest(&enc, rec.total as usize, &hashes, &provided)
                        })
                        .map_err(|e| format!("sync record {}: {e}", rec.key))?;
                    if let Some(base) = rec.delta_base {
                        bases.push(base);
                    }
                    // What a materialized sync would have moved for this record:
                    // the reconstructed length for deltas, the record itself
                    // otherwise. The pushed region is what actually moved.
                    bytes_needed += delta_raw_len.get(&rec.key).copied().unwrap_or(rec.total);
                    records_stored += 1;
                }
                // Each delta takes its reference on its base after the
                // shipment's puts, since the base may ride in the same
                // shipment.
                for base in bases {
                    self.tensors
                        .incr(&base.encode())
                        .map_err(|e| format!("pin a shipped delta's base: {e}"))?;
                    self.counters.delta_stored.add(1);
                    self.counters.transfer_deltas_shipped.add(1);
                }
                drop(kv);
                let bytes_saved = bytes_needed.saturating_sub(moved);
                self.counters.transfer_bytes_saved.add(bytes_saved);
                Ok((records_stored, bytes_saved))
            };
        let keys = records.iter().map(|r| r.key);
        let installed = self.install_synced(synced, keys, check, store)?;
        let (records_stored, bytes_saved) = installed.unwrap_or((0, 0));
        Ok(SyncChunksReply {
            applied: installed.is_some(),
            records_stored,
            bytes_saved,
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
                    self.drop_optimizer_copies(&rec)?;
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
}
