//! The tensor data plane: whole and partial reads exposed as vectored
//! bulk regions (zero-copy for memory-resident records), and the
//! model-private optimizer state attached to a stored model.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use evostore_tensor::{is_delta, TensorKey};
use rayon::prelude::*;

use super::ProviderState;
use crate::messages::*;

impl ProviderState {
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
                    if let Some(record) = self.tensors.get_ref(&enc) {
                        return Ok((record, true));
                    }
                    return self
                        .tensors
                        .get(&enc)
                        .map(|record| (record, false))
                        .map_err(|_| format!("tensor {key} not stored"));
                }
                if let Some(record) = self.tensors.get_ref(&enc) {
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
                    .tensors
                    .get(&enc)
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
                self.tensors
                    .put(&key.encode(), record, 1)
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
                if let Some(record) = self.tensors.get_ref(&enc) {
                    return Ok((record, true));
                }
                self.tensors
                    .get(&enc)
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
}
