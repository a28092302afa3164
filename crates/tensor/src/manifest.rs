//! Manifests: where each tensor record lies in a consolidated bulk region.
//!
//! Every mover of records — a store, a read reply, optimizer state, a
//! repair relay, a watcher serving its tree children — ships the same
//! pair: one vectored region whose logical bytes are the records laid end
//! to end, and one [`ManifestEntry`] per record addressing that
//! concatenation. [`pack`] is the one place the pair is built.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::id::TensorKey;
use crate::rope;

/// Location of one tensor record inside a consolidated bulk region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Which tensor this is.
    pub key: TensorKey,
    /// Byte offset of its serialized record in the region's logical
    /// concatenation.
    pub offset: u64,
    /// Record length in bytes.
    pub len: u64,
}

/// Lay `records` (ropes) end to end: the manifest over their logical
/// concatenation plus the segment list to expose as one vectored region.
/// Segments are shared (refcount bumps); no record byte is copied.
pub fn pack<'a>(
    records: impl IntoIterator<Item = (TensorKey, &'a [Bytes])>,
) -> (Vec<ManifestEntry>, Vec<Bytes>) {
    let records = records.into_iter();
    let at_least = records.size_hint().0;
    let mut manifest = Vec::with_capacity(at_least);
    let mut segments = Vec::with_capacity(at_least);
    let mut offset = 0u64;
    for (key, record) in records {
        let len = rope::len(record) as u64;
        manifest.push(ManifestEntry { key, offset, len });
        offset += len;
        segments.extend_from_slice(record);
    }
    (manifest, segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ModelId, VertexId};

    #[test]
    fn offsets_address_the_logical_concatenation() {
        let key = |slot| TensorKey::new(ModelId(1), VertexId(0), slot);
        let a = [Bytes::from_static(b"ab"), Bytes::from_static(b"cde")];
        let b: [Bytes; 0] = [];
        let c = [Bytes::from_static(b"f")];
        let (manifest, segments) = pack([(key(0), &a[..]), (key(1), &b[..]), (key(2), &c[..])]);
        let spans: Vec<(u64, u64)> = manifest.iter().map(|e| (e.offset, e.len)).collect();
        assert_eq!(spans, [(0, 5), (5, 0), (5, 1)]);
        assert_eq!(rope::flatten(&segments)[..], *b"abcdef");
        // Shared, not copied.
        assert_eq!(segments[1].as_ptr(), a[1].as_ptr());
        for e in &manifest {
            let (lo, hi) = (e.offset as usize, (e.offset + e.len) as usize);
            assert_eq!(rope::len(&rope::slice(&segments, lo..hi)), e.len as usize);
        }
    }
}
