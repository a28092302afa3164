//! The record plane: how tensor records cross the fabric, in one place.
//!
//! Every mover of records — `STORE`, `STORE_OPTIMIZER`, `SYNC_MODEL`, the
//! `READ` / `LOAD_OPTIMIZER` replies, a watcher's `deliver.fetch` — ships
//! one vectored bulk region plus a manifest over its logical
//! concatenation, and every one of them runs the same code:
//!
//! * **The producer packs.** [`pack`] lays ropes end to end (manifest +
//!   segment list, no byte copied) and the producer exposes the list with
//!   `bulk_expose_vec[_owned]`.
//! * **The consumer pulls, then takes each record out with
//!   [`record_in`]** — a rope of shared sub-slices, bounds-checked, never
//!   a gather — inside its own `par::map` loop.
//! * **Whoever the region was exposed for withdraws it.** A reply region
//!   (`READ`, `READ_RANGE`, `LOAD_OPTIMIZER`, `READ_CHUNKS`) is pulled
//!   with `Fabric::bulk_take`, which releases on every exit. A request region (`STORE`, `STORE_OPTIMIZER`,
//!   `SYNC_MODEL`, `SYNC_CHUNKS`) is released by the caller that exposed
//!   it once every leg has settled; a watcher's served region lives as
//!   long as its cached copy.
//! * **The check runs where bytes change hands.** A provider accepting
//!   records runs [`validate_entry`] (framing, dims, payload check — no
//!   tensor built) over the *whole* manifest before it persists anything;
//!   a reader runs [`read_entry`], which decodes and hands the payload
//!   segment to the tensor. A record that fails either is named:
//!   `tensor <key>: <why>` provider-side, [`EvoError::Corrupt`]
//!   reader-side. Chunk framing (`SYNC_CHUNKS` and `READ_CHUNKS` bodies)
//!   is content-checked by [`pushed_chunks`].
//!
//! ## Allow-list
//!
//! Outside this module, non-test code under `crates/core/src` names none
//! of the contiguous codec (`write_tensor(`, `read_tensor(`), `BytesMut`
//! consolidation, a gathering `region.slice(` / `rope::flatten(`, a
//! hand-cut `slice_rope(` or a hand-built `ManifestEntry {` — except the
//! lines below, which `tools/check.sh` reads (`allow: file pattern
//! reason`):
//!
//! allow: crates/core/src/provider/data.rs rope::flatten( a delta in hand is gathered to be reconstructed by `materialize`

use bytes::Bytes;
use evostore_rpc::SegmentedRegion;
use evostore_tensor::{
    read_tensor_segments, validate_segments, ContentHash, DType, ManifestEntry, TensorData,
};

pub use evostore_tensor::pack;

use crate::client::EvoError;

/// A manifest entry that does not lie within its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRegion {
    /// The entry.
    pub entry: ManifestEntry,
    /// Logical length of the region it was resolved against.
    pub region_len: usize,
}

impl std::fmt::Display for OutOfRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ManifestEntry { key, offset, len } = self.entry;
        write!(
            f,
            "manifest entry {key} out of bulk bounds ({offset} + {len} > {})",
            self.region_len
        )
    }
}

impl std::error::Error for OutOfRegion {}

impl From<OutOfRegion> for EvoError {
    fn from(e: OutOfRegion) -> Self {
        EvoError::Protocol(e.to_string())
    }
}

/// `entry`'s record as a rope of shared sub-slices of `region`. Offsets
/// come off the wire: one that wraps, or reaches a byte past the region,
/// is the typed error.
pub fn record_in(
    entry: &ManifestEntry,
    region: &SegmentedRegion,
) -> Result<Vec<Bytes>, OutOfRegion> {
    usize::try_from(entry.offset)
        .ok()
        .zip(usize::try_from(entry.len).ok())
        .and_then(|(offset, len)| region.slice_rope(offset, len))
        .ok_or(OutOfRegion {
            entry: *entry,
            region_len: region.len(),
        })
}

/// The accepting side's check: `entry`'s record plus the shape and dtype
/// its frame declares, integrity-checked where the bytes lie.
pub fn validate_entry(
    entry: &ManifestEntry,
    region: &SegmentedRegion,
) -> Result<(Vec<Bytes>, Vec<usize>, DType), String> {
    let record = record_in(entry, region).map_err(|e| e.to_string())?;
    let (shape, dtype) =
        validate_segments(&record).map_err(|e| format!("tensor {}: {e}", entry.key))?;
    Ok((record, shape, dtype))
}

/// The reading side's check: `entry`'s record and the tensor it decodes
/// to. A record written as a rope hands its payload segment to the tensor.
pub fn read_entry(
    entry: &ManifestEntry,
    region: &SegmentedRegion,
) -> Result<(Vec<Bytes>, TensorData), EvoError> {
    let record = record_in(entry, region)?;
    let tensor = read_tensor_segments(&record).map_err(|_| EvoError::Corrupt {
        key: entry.key.to_string(),
    })?;
    Ok((record, tensor))
}

/// The chunks a `(pushed hashes, lens, region)` body frames, in pushed
/// order: chunk `i` is the next `lens[i]` bytes of `region` and must hash
/// to `pushed[i]`. A chunk is one flat buffer (it is hashed and stored
/// whole), shared when it lies within a segment — as every chunk a
/// provider exposes does.
pub fn pushed_chunks(
    pushed: &[[u8; 16]],
    lens: &[u64],
    region: &SegmentedRegion,
) -> Result<Vec<Bytes>, String> {
    if pushed.len() != lens.len() {
        return Err("pushed/lens length mismatch".into());
    }
    let mut off = 0usize;
    pushed
        .iter()
        .zip(lens)
        .map(|(hash, &len)| {
            let chunk = usize::try_from(len)
                .ok()
                .and_then(|len| region.slice(off, len))
                .ok_or_else(|| {
                    format!(
                        "pushed chunk out of bulk bounds ({off} + {len} > {})",
                        region.len()
                    )
                })?;
            off += chunk.len();
            if ContentHash::of_bytes(&chunk).to_bytes() != *hash {
                return Err(format!(
                    "pushed chunk {:032x} fails its content hash",
                    u128::from_le_bytes(*hash)
                ));
            }
            Ok(chunk)
        })
        .collect()
}
