//! Parent-delta encoding: records of a derived model stored as EVDL
//! deltas against the co-located parent tensor and reconstructed on read.
//! A delta holds an ordinary reference on its base, released when the
//! delta is reclaimed; a live delta at depth *d* keeps at most *d*
//! ancestors alive, and *d* never exceeds [`MAX_CHAIN_DEPTH`].

use bytes::Bytes;
use evostore_kv::pool;
use evostore_tensor::rope;
use evostore_tensor::{apply_delta, delta_header, encode_delta_segments, is_delta, TensorKey};

use super::raw_cache::RawRecord;
use super::write_set::{Payload, WriteSet};
use super::ProviderState;
use crate::owner_map::OwnerMap;
use crate::par;
use crate::policy::MAX_CHAIN_DEPTH;

/// A delta's base and the depth the delta is written at.
pub(super) type DeltaLink = (TensorKey, u8);

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
    /// base is read straight into a buffer from [`evostore_kv::pool`] (a
    /// chunked record's chunks each land in their place) and every delta
    /// of the chain is applied to it in place, deepest first. The result
    /// views that buffer, which returns to the pool with its last view.
    ///
    /// The base's buffer is sized from the depth-1 delta's `raw_len`,
    /// which is read off disk unchecked: [`pool::take`] treats it as a
    /// hint, so a corrupt one ends in `apply_delta`'s length check.
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
            if chain.len() > u8::MAX as usize {
                return Err("delta chain exceeds the depth bound".into());
            }
            let missing = |_| "delta base record missing".to_string();
            if head.depth > 1 {
                // The base is itself a delta (the chain rule), read whole.
                chain.push(self.tensors.get(&head.base_key).map_err(missing)?);
                continue;
            }
            // A depth-1 delta's base is raw and as long as the delta's
            // target.
            let mut base = pool::take(head.raw_len);
            self.tensors
                .get_into(&head.base_key, &mut base)
                .map_err(missing)?;
            if is_delta(&base) {
                chain.push(base.freeze());
            } else {
                break base;
            }
        };
        evostore_obs::ledger::note_delta_chain_depth(chain.len() as u64);
        for delta in chain.iter().rev() {
            apply_delta(delta, &mut raw).map_err(|e| format!("delta decode: {e}"))?;
            self.counters.delta_reconstructs.add(1);
        }
        Ok(raw.freeze())
    }

    /// Fetch a record and materialize it to raw bytes.
    pub(super) fn resolve_record(&self, enc: &[u8]) -> Result<Bytes, String> {
        let record = self
            .tensors
            .get(enc)
            .map_err(|_| "record not stored".to_string())?;
        self.materialize(record)
    }

    /// A store's writes, one per record in manifest order: against a local
    /// parent's owner map, a record's delta on the parent's tensor where
    /// that saves space (its base pin joins `set`), with the base and the
    /// delta's depth, else the record as it arrived. Encoding only reads
    /// the store, so it is shared out.
    pub(super) fn encode_records(
        &self,
        set: &mut WriteSet<'_>,
        validated: Vec<(TensorKey, Vec<Bytes>)>,
        parent_map: Option<&OwnerMap>,
    ) -> Result<Vec<(TensorKey, Payload<'static>, Option<DeltaLink>)>, String> {
        let bytes = validated.iter().map(|(_, record)| rope::len(record)).sum();
        let deltas = match parent_map {
            Some(map) => par::map(&validated, bytes, |(key, record)| {
                self.try_delta_encode(*key, record, map)
            }),
            None => Vec::new(),
        };
        for (_, base, _) in deltas.iter().flatten().flatten() {
            set.pinned(*base);
        }
        let mut deltas = deltas.into_iter();
        let write = |(key, record)| match deltas.next().transpose()?.flatten() {
            Some((blob, base, depth)) => Ok((key, Payload::Rope(vec![blob]), Some((base, depth)))),
            None => Ok((key, Payload::Rope(record), None)),
        };
        validated.into_iter().map(write).collect()
    }

    /// Try to delta-encode a self-owned tensor of a derived model against
    /// the parent's tensor at the same vertex/slot, pinning the base before
    /// reading it (a concurrent retire cannot reclaim it under the encoder;
    /// the pin becomes the delta's reference). The base comes from the
    /// raw-record cache when it holds it — taken, since the child is now
    /// its lineage's newest record — and is otherwise read and decoded.
    /// `None`, pin given back: the base is not here, the chain bound is
    /// reached, or no space is saved. `Some` carries the delta's depth.
    pub(super) fn try_delta_encode(
        &self,
        key: TensorKey,
        record: &[Bytes],
        parent_map: &OwnerMap,
    ) -> Result<Option<(Bytes, TensorKey, u8)>, String> {
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
        let base_raw = match self.raw_cache.as_ref().map(|cache| cache.take(&base)) {
            Some(Some(RawRecord { rope, depth })) => {
                self.counters.raw_cache_base_hits.add(1);
                (depth < MAX_CHAIN_DEPTH).then_some((rope, depth + 1))
            }
            Some(None) => {
                self.counters.raw_cache_base_misses.add(1);
                self.read_base(&base_enc)
            }
            None => self.read_base(&base_enc),
        };
        // Transposed from the segments where they lie: neither the
        // incoming record nor its base is gathered to be compared.
        let blob = base_raw.and_then(|(base_raw, depth)| {
            encode_delta_segments(record, &base_raw, base_enc, depth).map(|blob| (blob, depth))
        });
        match blob {
            Some((blob, depth)) => Ok(Some((blob, base, depth))),
            None => self.release(base).map(|_| None),
        }
    }

    /// A delta base read from the store and decoded, with the depth a
    /// delta on it is written at: `None` when it cannot be read or is
    /// already at the chain bound.
    fn read_base(&self, base_enc: &[u8]) -> Option<(Vec<Bytes>, u8)> {
        let base_rec = self.tensors.get(base_enc).ok()?;
        let depth = match is_delta(&base_rec) {
            true => delta_header(&base_rec).ok()?.depth,
            false => 0,
        };
        if depth >= MAX_CHAIN_DEPTH {
            return None;
        }
        let base_raw = self.materialize(base_rec).ok()?;
        Some((vec![base_raw], depth + 1))
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
