//! Parent-delta encoding: records of a derived model stored as EVDL
//! deltas against the co-located parent tensor and reconstructed on read.
//! A delta holds an ordinary reference on its base, released when the
//! delta is reclaimed; a live delta at depth *d* keeps at most *d*
//! ancestors alive, and *d* never exceeds [`MAX_CHAIN_DEPTH`].

use bytes::Bytes;
use evostore_tensor::{apply_delta, delta_header, encode_delta_segments, is_delta, TensorKey};

use super::ProviderState;
use crate::owner_map::OwnerMap;
use crate::policy::MAX_CHAIN_DEPTH;

/// The chain rule every stored delta keeps, checked where a delta is
/// written and by `gc_audit`: its header depth is its base's (0 for a raw
/// base) plus one, and at most [`MAX_CHAIN_DEPTH`]. A header's depth is
/// therefore the length of its chain on this provider.
pub(super) fn chain_step(depth: u8, base_depth: u8) -> bool {
    depth == base_depth.saturating_add(1) && depth <= MAX_CHAIN_DEPTH
}

impl ProviderState {
    /// Materialize the raw (EVST) bytes of a fetched record, decoding
    /// the delta chain under it when the record is delta-encoded: the raw
    /// base is read into one buffer (a chunked record's chunks each land
    /// in their place, and a buffer the store handed over is taken, not
    /// copied) and every delta of the chain is applied to it in place,
    /// deepest first.
    pub(super) fn materialize(&self, record: Bytes) -> Result<Bytes, String> {
        if !is_delta(&record) {
            return Ok(record);
        }
        // Walk down to the raw base (chains are written at most
        // MAX_CHAIN_DEPTH deep; the u8 depth field caps the walk
        // regardless).
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
                break Vec::from(base);
            }
        };
        evostore_obs::ledger::note_delta_chain_depth(chain.len() as u64);
        for delta in chain.iter().rev() {
            apply_delta(delta, &mut raw).map_err(|e| format!("delta decode: {e}"))?;
            self.counters.delta_reconstructs.add(1);
        }
        Ok(Bytes::from(raw))
    }

    /// Fetch a record and materialize it to raw bytes.
    pub(super) fn resolve_record(&self, enc: &[u8]) -> Result<Bytes, String> {
        let record = self
            .tensors
            .get(enc)
            .map_err(|_| "record not stored".to_string())?;
        self.materialize(record)
    }

    /// Try to delta-encode a self-owned tensor of a derived model against
    /// the parent's tensor at the same vertex/slot, pinning the base before
    /// reading it (a concurrent retire cannot reclaim it under the encoder;
    /// the pin becomes the delta's reference). `None`, pin given back: the
    /// base is not here, the chain bound is reached, or no space is saved.
    pub(super) fn try_delta_encode(
        &self,
        key: TensorKey,
        record: &[Bytes],
        parent_map: &OwnerMap,
    ) -> Result<Option<(Bytes, TensorKey)>, String> {
        if (key.vertex.0 as usize) >= parent_map.vertices.len() {
            return Ok(None);
        }
        let owner = parent_map.vertex(key.vertex);
        if key.slot >= owner.slots {
            return Ok(None);
        }
        let base = TensorKey::new(owner.owner, owner.owner_vertex, key.slot);
        // Only a co-located base (a remote one would turn every read into
        // a fetch) that is still stored: a failed pin stores the raw record.
        let base_enc = base.encode();
        if base == key || self.tensors.incr(&base_enc).is_err() {
            return Ok(None);
        }
        let blob = self.tensors.get(&base_enc).ok().and_then(|base_rec| {
            let depth = match is_delta(&base_rec) {
                true => delta_header(&base_rec).ok()?.depth,
                false => 0,
            };
            if depth >= MAX_CHAIN_DEPTH {
                return None;
            }
            let base_raw = self.materialize(base_rec).ok()?;
            // Transposed from the segments where they lie: the incoming
            // record is not gathered to be compared with its base.
            encode_delta_segments(record, &base_raw, base_enc, depth + 1)
        });
        match blob {
            Some(blob) => Ok(Some((blob, base))),
            None => self.release(base).map(|_| None),
        }
    }

    /// The base a stored record is a delta against: `None` for a raw
    /// record, and always under whole records.
    pub(super) fn delta_base(&self, key: TensorKey) -> Result<Option<TensorKey>, String> {
        if self.tensors.backend().chunked().is_none() {
            return Ok(None);
        }
        Ok(self.transfer_record(key)?.delta_base)
    }

    /// Every local delta as `(delta, base, header depth)`, from the
    /// record headers.
    pub(super) fn deltas(&self) -> Result<Vec<(TensorKey, TensorKey, u8)>, String> {
        if self.tensors.backend().chunked().is_none() {
            return Ok(Vec::new());
        }
        let mut deltas = Vec::new();
        for key in self.hosted_tensor_keys() {
            let record = self.transfer_record(key)?;
            if let Some(base) = record.delta_base {
                deltas.push((key, base, record.delta_depth));
            }
        }
        Ok(deltas)
    }

    /// Every local (delta → base) link: what the recount adds to the
    /// owner-map counts.
    pub fn delta_links(&self) -> Result<Vec<(TensorKey, TensorKey)>, String> {
        Ok(self.deltas()?.into_iter().map(|(d, b, _)| (d, b)).collect())
    }
}
