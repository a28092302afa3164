//! Parent-delta encoding: records of a derived model stored as EVDL
//! deltas against the co-located parent tensor, reconstructed on read,
//! and re-based to raw bytes before anything they depend on is
//! reclaimed (no reference counts are taken on bases).

use bytes::Bytes;
use evostore_tensor::{decode_delta, delta_header, encode_delta_segments, is_delta, TensorKey};

use super::ProviderState;
use crate::owner_map::OwnerMap;
use crate::par;

impl ProviderState {
    /// Materialize the raw (EVST) bytes of a fetched record, decoding
    /// the delta chain under it when the record is delta-encoded.
    pub(super) fn materialize(&self, record: Bytes) -> Result<Bytes, String> {
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
                .tensors
                .get(&head.base_key)
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
            self.counters.delta_reconstructs.add(1);
        }
        Ok(raw)
    }

    /// Fetch a record and materialize it to raw bytes.
    pub(super) fn resolve_record(&self, enc: &[u8]) -> Result<Bytes, String> {
        let record = self
            .tensors
            .get(enc)
            .map_err(|_| "record not stored".to_string())?;
        self.materialize(record)
    }

    /// Try to delta-encode a self-owned tensor of a derived model
    /// against the parent's tensor at the same vertex/slot. Returns the
    /// delta blob and the base's record key, or `None` when the base is
    /// unavailable (not co-located here), the chain bound is reached, or
    /// the delta would not actually save space.
    pub(super) fn try_delta_encode(
        &self,
        key: TensorKey,
        record: &[Bytes],
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
        let base_rec = self.tensors.get(&base_enc).ok()?;
        let depth = if is_delta(&base_rec) {
            delta_header(&base_rec).ok()?.depth
        } else {
            0
        };
        if depth >= self.delta.max_chain_depth {
            return None;
        }
        let base_raw = self.materialize(base_rec).ok()?;
        // Transposed from the segments where they lie: the incoming
        // record is not gathered to be compared with its base.
        let blob = encode_delta_segments(record, &base_raw, base_enc, depth + 1)?;
        Some((blob, base_enc.to_vec()))
    }

    /// Fence a record's physical removal: rewrite every delta directly
    /// based on it back to raw bytes (so their payloads survive the
    /// base's death), and unlink the record itself from its base's
    /// dependent list. Must run before any decrement/refs-install that
    /// can drop the record.
    pub(super) fn before_reclaim(&self, enc: &[u8]) -> Result<(), String> {
        if !self.delta.enabled {
            return Ok(());
        }
        let deps = self.delta_deps.lock().remove(enc);
        // A dependent may have been reclaimed (or already re-based)
        // since it was registered; skip it silently.
        let deltas: Vec<(Vec<u8>, Bytes)> = deps
            .into_iter()
            .flatten()
            .filter_map(|dep| {
                let rec = self.tensors.get(&dep).ok()?;
                is_delta(&rec).then_some((dep, rec))
            })
            .collect();
        // Reconstruction only reads the store, so it is shared out per
        // dependent ([`par::map`]); the rewrites stay serial.
        let raw_bytes = deltas
            .iter()
            .map(|(_, rec)| delta_header(rec).map_or(0, |head| head.raw_len))
            .sum();
        let raws = par::map(&deltas, raw_bytes, |(_, rec)| self.materialize(rec.clone()));
        for ((dep, _), raw) in deltas.iter().zip(raws) {
            self.tensors
                .replace(dep, raw?)
                .map_err(|e| format!("re-base dependent record: {e}"))?;
            self.counters.delta_rebased.add(1);
        }
        // If the dying record is itself a delta, drop it from its base's
        // dependent list so the base never re-bases a reclaimed key.
        if let Ok(rec) = self.tensors.get(enc) {
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
        self.tensors
            .backend()
            .for_each_key(&mut |k| keys.push(k.to_vec()));
        let mut rewritten = 0;
        for enc in keys {
            let Ok(rec) = self.tensors.get(&enc) else {
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
            self.tensors
                .replace(&enc, raw)
                .map_err(|e| format!("re-base record: {e}"))?;
            let mut deps = self.delta_deps.lock();
            if let Some(v) = deps.get_mut(&base_enc) {
                v.retain(|k| k != &enc);
                if v.is_empty() {
                    deps.remove(&base_enc);
                }
            }
            drop(deps);
            self.counters.delta_rebased.add(1);
            rewritten += 1;
        }
        Ok(rewritten)
    }
}
