//! The tensor data plane: whole and partial reads exposed as vectored
//! bulk regions (zero-copy for memory-resident records), and the
//! model-private optimizer state attached to a stored model.

use std::sync::Arc;

use bytes::Bytes;
use evostore_tensor::{is_delta_segments, rope, TensorKey};

use super::ProviderState;
use crate::messages::*;
use crate::par;
use crate::records::{pack, validate_entry};

impl ProviderState {
    /// Handle a tensor read: gather the requested tensors into one
    /// freshly exposed bulk region ([`ProviderState::gather`]).
    pub fn handle_read(&self, req: ReadTensorsRequest) -> Result<ReadTensorsReply, String> {
        let kv = self.kv_span("kv.read_tensors");
        if let Some(key) = req.keys.iter().find(|key| !self.places_here(key.owner)) {
            return Err(format!(
                "tensor {key} is not hosted by provider {}",
                self.index
            ));
        }
        let records = self.gather(&req.keys, "tensor")?;
        drop(kv);
        let reply = self.expose_records(&req.keys, &records);
        evostore_obs::ledger::add_chunks_touched(reply.manifest.len() as u64);
        evostore_obs::ledger::add_bytes_out(reply.manifest.iter().map(|e| e.len).sum());
        Ok(reply)
    }

    /// Fetch the records under `keys`, each as a rope flagged with
    /// whether it left the store as shared-buffer clones. Memory-resident
    /// records are taken on this thread (`get_resident`, zero copy —
    /// whether the store holds them whole, as the rope they were pushed
    /// as, or in chunks). Whatever is left — a record that needs a
    /// copying `get` and a delta that must be reconstructed before it
    /// leaves the provider (the reply buffer is freshly built, so it
    /// counts as a fallback) — is shared out per tensor
    /// ([`par::map`]). The store cannot size a record without fetching it,
    /// so that call is weighed by the mean stored record.
    fn gather(&self, keys: &[TensorKey], what: &str) -> Result<Vec<(Vec<Bytes>, bool)>, String> {
        let mut records = Vec::with_capacity(keys.len());
        let mut slow: Vec<(usize, Option<Vec<Bytes>>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match self.tensors.get_resident(&key.encode()) {
                // The delta sniff reads the record's first *logical*
                // bytes: a delta held in pieces is still a delta.
                Some(record) if !is_delta_segments(&record) => records.push((record, true)),
                // `None`, or a delta already in hand to reconstruct.
                in_hand => {
                    records.push((Vec::new(), false));
                    slow.push((i, in_hand));
                }
            }
        }
        if slow.is_empty() {
            return Ok(records);
        }
        let mean_record = self.tensors.bytes_used() / self.tensors.len().max(1);
        let fetched = par::map(&slow, slow.len() * mean_record, |(i, in_hand)| {
            let key = keys[*i];
            let record = match in_hand {
                Some(record) => rope::flatten(record),
                None => self
                    .tensors
                    .get(&key.encode())
                    .map_err(|_| format!("{what} {key} not stored"))?,
            };
            self.materialize(record)
                .map_err(|e| format!("{what} {key}: {e}"))
        });
        for ((i, _), record) in slow.iter().zip(fetched) {
            records[*i].0 = vec![record?];
        }
        Ok(records)
    }

    /// Pack fetched records into a read reply: one vectored bulk region
    /// of the records' own segments (no buffer is built) plus the manifest
    /// over it, tallying the zero-copy/fallback read counters. The reader
    /// withdraws the region.
    fn expose_records(
        &self,
        keys: &[TensorKey],
        records: &[(Vec<Bytes>, bool)],
    ) -> ReadTensorsReply {
        let zero_copy = records.iter().filter(|(_, shared)| *shared).count();
        self.counters.zero_copy_reads.add(zero_copy as u64);
        self.counters
            .copy_fallback_reads
            .add((records.len() - zero_copy) as u64);
        let (manifest, segments) = pack(
            keys.iter()
                .zip(records)
                .map(|(key, (record, _))| (*key, record.as_slice())),
        );
        self.counters
            .bulk_segments_exposed
            .add(segments.len() as u64);
        ReadTensorsReply {
            manifest,
            bulk: self.fabric.bulk_expose_vec(segments).0,
        }
    }

    /// Handle a partial (element-range) tensor read. A memory-resident
    /// raw record is sliced where it lies — an in-segment range of a
    /// borrowed record is a view into the buffer the writer handed over,
    /// and nothing else of the record is touched; a delta, or a record
    /// that is not resident, is materialized first.
    pub fn handle_read_range(&self, req: ReadRangeRequest) -> Result<ReadRangeReply, String> {
        if !self.places_here(req.key.owner) {
            return Err(format!(
                "tensor {} is not hosted by provider {}",
                req.key, self.index
            ));
        }
        let enc = req.key.encode();
        let named = |e: String| format!("tensor {}: {e}", req.key);
        let record = match self.tensors.get_resident(&enc) {
            Some(record) if !is_delta_segments(&record) => record,
            Some(delta) => vec![self.materialize(rope::flatten(&delta)).map_err(named)?],
            None => vec![self.resolve_record(&enc).map_err(named)?],
        };
        let (payload, dtype) =
            evostore_tensor::payload_range_segments(&record).map_err(|e| named(e.to_string()))?;
        // Element counts come off the wire: checked, so an absurd range
        // is the out-of-bounds error, never an arithmetic wrap.
        let esz = dtype.size_of() as u64;
        let range = (|| {
            let start = (payload.start as u64).checked_add(req.elem_offset.checked_mul(esz)?)?;
            let end = start.checked_add(req.elem_count.checked_mul(esz)?)?;
            (end <= payload.end as u64).then_some(start as usize..end as usize)
        })()
        .ok_or_else(|| {
            format!(
                "range {}+{} elements out of bounds for tensor {}",
                req.elem_offset, req.elem_count, req.key
            )
        })?;
        // The range is exposed where it lies; the reader, who needs one
        // flat buffer, gathers a range that spans segments.
        let bulk = self.fabric.bulk_expose_vec(rope::slice(&record, range));
        Ok(ReadRangeReply {
            dtype_tag: dtype.tag(),
            bulk: bulk.0,
        })
    }

    /// Handle attaching optimizer state to a stored model.
    pub fn handle_store_optimizer(
        &self,
        req: StoreOptimizerRequest,
    ) -> Result<StoreModelReply, String> {
        if let Some(stray) = req
            .manifest
            .iter()
            .find(|e| e.key.owner != req.model || e.key.vertex.0 != u32::MAX)
        {
            return Err(format!(
                "optimizer tensor {} must use the owner's optimizer namespace",
                stray.key
            ));
        }
        let region = self
            .fabric
            .bulk_get_vec(evostore_rpc::BulkHandle(req.bulk))
            .map_err(|e| format!("bulk pull failed: {e}"))?;
        // Validate everything first (see handle_store): no partial state
        // on malformed requests.
        let validated = par::map(&req.manifest, region.len(), |entry| {
            validate_entry(entry, &region).map(|(record, ..)| (entry.key, record))
        })
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
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
                bytes_stored += rope::len(&record) as u64;
                self.tensors
                    .put_segments(&key.encode(), record, 1)
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
        let records = self.gather(&keys, "optimizer tensor")?;
        Ok(self.expose_records(&keys, &records))
    }
}
