//! Anti-entropy repair and the derivative-aware transfer plane: catalog
//! digests, materialized and chunk-negotiated model syncs (on the chunked
//! substrate delta records ship as stored, land only where their header
//! depth is their chain's, and take their base reference on arrival),
//! chunk possession probes and reads, and retirement syncs.

use std::collections::HashMap;

use bytes::Bytes;
use evostore_kv::{ChunkedStore, KvBackend};
use evostore_tensor::{
    delta_probe_segments, validate_segments, ContentHash, DeltaHeader, ModelId, TensorKey,
    DELTA_PROBE_LEN,
};

use super::catalog::Origin;
use super::delta::chain_step;
use super::write_set::{Payload, WriteSet};
use super::{ModelRecord, ProviderState};
use crate::messages::*;
use crate::par;
use crate::records::{pushed_chunks, record_in};
use crate::replication::incarnation;

/// What a whole-record provider answers every chunk-negotiation method.
const NOT_CHUNKED: &str = "store is not content-addressed";

/// A `SYNC_CHUNKS` shipment as its check hands it on: the pushed chunks by
/// content hash, what a materialized sync would move for each record in
/// store order (a delta's reconstructed length), and the bytes pulled.
type Shipment = (HashMap<u128, Bytes>, Vec<u64>, u64);

/// Decode a wire-form content hash (always 16 bytes).
pub(super) fn wire_hash(b: &[u8; 16]) -> ContentHash {
    ContentHash::from_bytes(b).expect("16-byte content hash")
}

impl ProviderState {
    /// The chunk store, or the typed refusal every chunk-negotiation
    /// method answers on a whole-record provider (its request bodies are
    /// outside input, so a misdirected one is refused, not trusted).
    pub(super) fn chunk_store(&self) -> Result<&ChunkedStore<Box<dyn KvBackend>>, String> {
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

    /// What `SYNC_MODEL` and `SYNC_CHUNKS` share: install `rec` as
    /// `model`'s record unless the local copy is already at least as new.
    /// `check` pulls and validates the shipment without touching any state;
    /// only then is a stale local incarnation taken out (before `store` may
    /// put records under its optimizer keys) and the checked payloads put
    /// by `store` into the write the record lands with. `keys` names every
    /// record of the shipment. `Ok(None)`: the local copy stands.
    fn install_synced<V, T>(
        &self,
        model: ModelId,
        mut rec: ModelRecord,
        keys: impl Iterator<Item = TensorKey>,
        check: impl FnOnce() -> Result<V, String>,
        store: impl FnOnce(&mut WriteSet<'_>, V) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        super::catalog::wire_graph(&rec.graph)?;
        self.refuse_unplaced(model)?;
        rec.optimizer_keys = keys.filter(|k| k.vertex.0 == u32::MAX).collect();
        rec.optimizer_keys.sort_by_key(|k| k.slot);
        let incoming = incarnation(rec.timestamp, &rec.optimizer_keys);
        let local = self
            .local_record(model)
            .map(|r| incarnation(r.timestamp, &r.optimizer_keys));
        if local >= Some(incoming) {
            return Ok(None);
        }
        let checked = check()?;
        let stale = |r: &ModelRecord| incarnation(r.timestamp, &r.optimizer_keys) < incoming;
        self.take_record(model, stale)?;
        self.land(|set| {
            let stored = store(set, checked)?;
            self.install_record(model, rec, Origin::Replica)?;
            Ok(Some(stored))
        })
    }

    /// Handle a materialized model sync: install the record and its
    /// tensor payloads unless the local copy is already at least as new.
    /// The records ride the same plane as a store's: pulled as a rope,
    /// each taken out with `record_in`, checked where it lies and put as
    /// the rope it arrived as.
    pub fn handle_sync_model(&self, req: SyncModelRequest) -> Result<SyncModelReply, String> {
        let (model, manifest, bulk) = (req.model, &req.manifest, req.bulk);
        let record = ModelRecord::new(
            req.graph,
            req.owner_map,
            req.parent,
            req.quality,
            req.timestamp,
        );
        let check = || {
            let region = self.pull(bulk)?;
            par::map(manifest, region.len(), |entry| {
                let record = record_in(entry, &region).map_err(|e| e.to_string())?;
                validate_segments(&record).map_err(|e| format!("tensor {}: {e}", entry.key))?;
                Ok((entry.key, record))
            })
            .into_iter()
            .collect::<Result<Vec<_>, String>>()
        };
        let store = |set: &mut WriteSet<'_>, validated: Vec<(TensorKey, Vec<Bytes>)>| {
            let mut tensors_stored = 0usize;
            for (key, record) in validated {
                if set.write_absent(key, None, Payload::Rope(record))? {
                    tensors_stored += 1;
                }
            }
            Ok(tensors_stored)
        };
        let keys = manifest.iter().map(|e| e.key);
        let installed = self.install_synced(model, record, keys, check, store)?;
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
        let undecodable = || format!("record {key}: undecodable delta base key");
        let delta_base = head.map(|h| TensorKey::decode(&h.base_key).ok_or_else(undecodable));
        Ok(TransferRecord {
            key,
            total: total as u64,
            hashes,
            delta_base: delta_base.transpose()?,
            // Raw records carry `(None, 0)`.
            delta_depth: head.map_or(0, |h| h.depth),
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
        self.chunk_store()?;
        let (model, records, bulk) = (req.model, &req.records, req.bulk);
        let (pushed, lens) = (&req.pushed, &req.lens);
        let record = ModelRecord::new(
            req.graph,
            req.owner_map,
            req.parent,
            req.quality,
            req.timestamp,
        );
        // Shallowest first, as they are checked and stored: a base riding in
        // the shipment is probed and stored before the deltas against it.
        let mut shallowest_first: Vec<&TransferRecord> = records.iter().collect();
        shallowest_first.sort_by_key(|r| r.delta_depth);
        let check = || {
            let region = self.pull(bulk)?;
            evostore_obs::ledger::add_chunks_touched(pushed.len() as u64);
            let provided: HashMap<u128, Bytes> = pushed
                .iter()
                .map(|hb| wire_hash(hb).0)
                .zip(pushed_chunks(pushed, lens, &region)?)
                .collect();
            // Validate every record's claimed delta linkage from its head
            // chunk — available pre-insert from the push or the local chunk
            // store — so a lying manifest can never install a delta record
            // without the reference on its base.
            let mut heads: HashMap<TensorKey, Option<DeltaHeader>> = HashMap::new();
            let mut needed = Vec::with_capacity(records.len());
            for rec in &shallowest_first {
                let head =
                    self.probe_chunked_framing(rec.key, rec.total, &rec.hashes, &provided)?;
                heads.insert(rec.key, head);
                needed.push(head.map_or(rec.total, |h| h.raw_len as u64));
                let (h, base) = match (head, rec.delta_base) {
                    (None, None) => continue,
                    (Some(h), Some(base))
                        if h.base_key == base.encode() && h.depth == rec.delta_depth =>
                    {
                        (h, base)
                    }
                    _ => {
                        return Err(format!(
                            "record {}: manifest disagrees with the stored delta header",
                            rec.key
                        ))
                    }
                };
                // The base's depth here: a stored base keeps its own
                // record, else it rides (shallower) in this shipment.
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
                // A chain the source built on another base layout would
                // sit here at a depth its header does not state: refused,
                // the record ships materialized.
                if !chain_step(h.depth, base_depth) {
                    return Err(format!(
                        "record {}: header depth {} on a base at depth {base_depth} here",
                        rec.key, h.depth
                    ));
                }
            }
            Ok((provided, needed, region.len() as u64))
        };
        let store = |set: &mut WriteSet<'_>, (provided, needed, moved): Shipment| {
            let kv = self.kv_span("kv.sync_chunks");
            let mut records_stored = 0usize;
            let mut bytes_needed = 0u64;
            for (rec, needed) in shallowest_first.iter().zip(needed) {
                let payload = Payload::Chunks(rec, &provided);
                if !set.write_absent(rec.key, rec.delta_base, payload)? {
                    continue;
                }
                if rec.delta_base.is_some() {
                    self.counters.transfer_deltas_shipped.add(1);
                }
                // The pushed region is what actually moved.
                bytes_needed += needed;
                records_stored += 1;
            }
            drop(kv);
            let bytes_saved = bytes_needed.saturating_sub(moved);
            self.counters.transfer_bytes_saved.add(bytes_saved);
            Ok((records_stored, bytes_saved))
        };
        let keys = records.iter().map(|r| r.key);
        let installed = self.install_synced(model, record, keys, check, store)?;
        let (records_stored, bytes_saved) = installed.unwrap_or((0, 0));
        Ok(SyncChunksReply {
            applied: installed.is_some(),
            records_stored,
            bytes_saved,
        })
    }

    /// Handle a retirement sync: retire each tombstone's covered record,
    /// if one is here, witness the tombstone either way, and fence the
    /// retirement's decrement leg, so a leg a decrement pump delivers
    /// later no-ops against the absolute counts the refs sync installs.
    /// The record leaves without queuing legs: the refs sync that follows
    /// sets every count.
    pub fn handle_sync_retire(&self, req: SyncRetireRequest) -> Result<SyncRetireReply, String> {
        let mut removed = 0usize;
        for t in &req.tombstones {
            if self.retire_record(*t)?.is_some() {
                removed += 1;
            }
            let fence = RefsRequest::retirement_op_id(t.model, t.record_timestamp, self.index);
            self.refs_ops.fence(fence);
        }
        Ok(SyncRetireReply { removed })
    }
}
