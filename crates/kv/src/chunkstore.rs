//! Content-addressed chunked storage layer.
//!
//! [`ChunkedStore`] presents the ordinary [`KvBackend`] record API while
//! physically storing every value as fixed-size *chunks* keyed by their
//! 128-bit content hash, plus one small per-record *manifest* listing the
//! chunk hashes. Byte-identical chunks — whether from two models sharing a
//! frozen layer under different keys, or from entirely unrelated models
//! that happen to contain the same bytes — are stored once and reference
//! counted, so the physical footprint ([`KvBackend::bytes_used`]) shrinks
//! with content redundancy while the logical API is unchanged.
//!
//! Namespacing inside the wrapped backend:
//!
//! * manifests live under `b'M' + logical_key`;
//! * chunks live under `b'C' + ContentHash::to_bytes()` (17 bytes).
//!
//! [`KvBackend::keys`] / [`KvBackend::len`] expose only *logical* keys, so
//! wrappers that mirror the key space — [`crate::RefCountedStore`]'s audit,
//! the providers' GC sweeps — behave exactly as over a plain backend.
//!
//! Chunk reference counts are held in memory and rebuilt from the durable
//! manifests on [`ChunkedStore::open`], the same recovery story as the
//! record-level refcounts (reconstructible from owner maps).
//!
//! Metrics: the store keeps its own *logical* counters — one `get` per
//! record fetch regardless of the chunk count, one `miss` per absent
//! record, matching the [`KvBackend::get_resident`] fallback contract —
//! rather than surfacing the wrapped backend's per-chunk traffic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{BufMut, Bytes, BytesMut};
use evostore_tensor::{checksum64, rope, ContentHash};
use parking_lot::Mutex;

use crate::api::{KvBackend, KvError};
use crate::metrics::StoreMetrics;

/// Manifest magic ("EVCM" as LE u32).
const MANIFEST_MAGIC: u32 = 0x4556_434D;
/// 2 = the hashes listed are lane addresses ([`ContentHash::of_bytes`]);
/// version 1 listed FNV-1a-128 addresses, which name different chunk keys.
const MANIFEST_VERSION: u8 = 2;
/// magic + version + pad3 + total u64 + count u32.
const MANIFEST_HEADER: usize = 4 + 1 + 3 + 8 + 4;
/// Default chunk size: 64 KiB — small enough that a fine-tuned layer's
/// untouched regions dedup, large enough that manifest overhead stays
/// under 0.03% of the payload.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// Physical-occupancy counters of a [`ChunkedStore`] (see
/// [`ChunkedStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChunkStats {
    /// Distinct chunks physically stored.
    pub chunks: u64,
    /// Logical records (manifests) stored.
    pub manifests: u64,
    /// Sum of logical value lengths.
    pub logical_bytes: u64,
    /// Bytes in the wrapped backend (deduped chunks + manifests).
    pub physical_bytes: u64,
    /// Chunk writes elided because an identical chunk was already stored.
    pub dedup_hits: u64,
    /// Configured chunking granularity in bytes. Transfer negotiation
    /// ships manifests verbatim only between stores chunking at the same
    /// granularity. `default` keeps pre-transfer snapshots decodable.
    #[serde(default)]
    pub chunk_size: u64,
}

/// A [`KvBackend`] storing values as content-addressed, deduplicated,
/// reference-counted chunks.
pub struct ChunkedStore<B: KvBackend> {
    backend: B,
    chunk_size: usize,
    /// Chunk refcounts, keyed by content hash. One mutex also serializes
    /// manifest replacement so dedup decisions and ref accounting stay
    /// atomic; chunk payload traffic dominates, not this map.
    chunk_refs: Mutex<HashMap<u128, u64>>,
    metrics: StoreMetrics,
    dedup_hits: AtomicU64,
    logical_bytes: AtomicU64,
    manifest_count: AtomicU64,
}

fn chunk_key(h: ContentHash) -> [u8; 17] {
    let mut k = [0u8; 17];
    k[0] = b'C';
    k[1..].copy_from_slice(&h.to_bytes());
    k
}

fn manifest_key(key: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(key.len() + 1);
    k.push(b'M');
    k.extend_from_slice(key);
    k
}

fn encode_manifest(total: usize, hashes: &[ContentHash]) -> Bytes {
    let mut buf = BytesMut::with_capacity(MANIFEST_HEADER + hashes.len() * 16 + 8);
    buf.put_u32_le(MANIFEST_MAGIC);
    buf.put_u8(MANIFEST_VERSION);
    buf.extend_from_slice(&[0u8; 3]);
    buf.put_u64_le(total as u64);
    buf.put_u32_le(hashes.len() as u32);
    for h in hashes {
        buf.extend_from_slice(&h.to_bytes());
    }
    let check = checksum64(&buf[4..]);
    buf.put_u64_le(check);
    buf.freeze()
}

fn decode_manifest(bytes: &[u8]) -> Result<(usize, Vec<ContentHash>), KvError> {
    let corrupt = |detail: &str| KvError::Corrupt {
        detail: format!("chunk manifest: {detail}"),
    };
    if bytes.len() < MANIFEST_HEADER + 8 {
        return Err(corrupt("truncated header"));
    }
    if u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if bytes[4] != MANIFEST_VERSION {
        return Err(corrupt(&format!(
            "unsupported version {} (this build reads version {MANIFEST_VERSION})",
            bytes[4]
        )));
    }
    let total = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let body_end = MANIFEST_HEADER + count * 16;
    if bytes.len() != body_end + 8 {
        return Err(corrupt("length disagrees with chunk count"));
    }
    let check = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if checksum64(&bytes[4..body_end]) != check {
        return Err(corrupt("checksum mismatch"));
    }
    let hashes = bytes[MANIFEST_HEADER..body_end]
        .chunks_exact(16)
        .map(|c| ContentHash::from_bytes(c).unwrap())
        .collect();
    Ok((total, hashes))
}

/// A chunk a manifest names is absent: corruption, not a miss.
fn named_missing(h: ContentHash, e: KvError) -> KvError {
    match e {
        KvError::NotFound => KvError::Corrupt {
            detail: format!("chunk {h} missing from backend"),
        },
        other => other,
    }
}

impl<B: KvBackend> ChunkedStore<B> {
    /// Wrap `backend`, splitting values into `chunk_size`-byte chunks.
    ///
    /// Scans any manifests already present in the backend (reopen of a
    /// durable store) to rebuild the in-memory chunk reference counts.
    pub fn open(backend: B, chunk_size: usize) -> Result<ChunkedStore<B>, KvError> {
        assert!(chunk_size > 0, "chunk size must be positive");
        let store = ChunkedStore {
            backend,
            chunk_size,
            chunk_refs: Mutex::new(HashMap::new()),
            metrics: StoreMetrics::new(),
            dedup_hits: AtomicU64::new(0),
            logical_bytes: AtomicU64::new(0),
            manifest_count: AtomicU64::new(0),
        };
        let mut manifest_keys: Vec<Vec<u8>> = Vec::new();
        store.backend.for_each_key(&mut |k| {
            if k.first() == Some(&b'M') {
                manifest_keys.push(k.to_vec());
            }
        });
        {
            let mut refs = store.chunk_refs.lock();
            for mkey in &manifest_keys {
                let (total, hashes) = decode_manifest(&store.backend.get(mkey)?)?;
                for h in hashes {
                    *refs.entry(h.0).or_insert(0) += 1;
                }
                store
                    .logical_bytes
                    .fetch_add(total as u64, Ordering::Relaxed);
                store.manifest_count.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(store)
    }

    /// Wrap `backend` with the default chunk size.
    pub fn open_default(backend: B) -> Result<ChunkedStore<B>, KvError> {
        ChunkedStore::open(backend, DEFAULT_CHUNK_SIZE)
    }

    /// Borrow the wrapped (physical) backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Physical-occupancy counters.
    pub fn stats(&self) -> ChunkStats {
        ChunkStats {
            chunks: self.chunk_refs.lock().len() as u64,
            manifests: self.manifest_count.load(Ordering::Relaxed),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            physical_bytes: self.backend.bytes_used() as u64,
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            chunk_size: self.chunk_size as u64,
        }
    }

    /// The chunks of the value `segments` hold, in order: every
    /// `chunk_size` logical bytes, and what is left. A chunk lying within
    /// one segment is a zero-copy slice of it; only a chunk that spans a
    /// segment boundary is gathered — the value as a whole never is.
    fn split(&self, segments: &[Bytes]) -> Vec<Bytes> {
        let mut left = rope::len(segments);
        let mut chunks = Vec::with_capacity(left.div_ceil(self.chunk_size));
        // The chunk being gathered across a boundary.
        let mut partial: Vec<u8> = Vec::new();
        for segment in segments {
            let mut rest = segment.clone();
            while !rest.is_empty() {
                let want = self.chunk_size.min(left);
                let take = (want - partial.len()).min(rest.len());
                let piece = rest.split_to(take);
                if take == want {
                    chunks.push(piece);
                } else {
                    partial.reserve_exact(want - partial.len());
                    partial.extend_from_slice(&piece);
                    if partial.len() < want {
                        continue;
                    }
                    chunks.push(Bytes::from(std::mem::take(&mut partial)));
                }
                left -= want;
            }
        }
        chunks
    }

    /// Store the value `segments` hold under `key`: cut it into chunks
    /// ([`ChunkedStore::split`]), dedup them against what is held, write
    /// the rest, replace the manifest.
    fn put_chunks(&self, key: &[u8], segments: &[Bytes]) -> Result<(), KvError> {
        let total = rope::len(segments);
        self.metrics.record_put(total);
        let chunks = self.split(segments);
        let hashes: Vec<ContentHash> = chunks.iter().map(|c| ContentHash::of_bytes(c)).collect();
        let mkey = manifest_key(key);
        let mut refs = self.chunk_refs.lock();
        // Overwrite: release the chunks of the previous value first.
        match self.backend.get(&mkey) {
            Ok(old) => {
                let (old_total, old_hashes) = decode_manifest(&old)?;
                self.release_chunks(&mut refs, &old_hashes)?;
                self.logical_bytes
                    .fetch_sub(old_total as u64, Ordering::Relaxed);
            }
            Err(KvError::NotFound) => {
                self.manifest_count.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => return Err(e),
        }
        for (chunk, h) in chunks.into_iter().zip(&hashes) {
            match refs.get_mut(&h.0) {
                Some(c) => {
                    *c += 1;
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    self.backend.put(&chunk_key(*h), chunk)?;
                    refs.insert(h.0, 1);
                }
            }
        }
        self.backend.put(&mkey, encode_manifest(total, &hashes))?;
        self.logical_bytes
            .fetch_add(total as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Drop one reference from each hash of a parsed manifest, deleting
    /// chunks that reach zero. Caller holds the refs lock.
    fn release_chunks(
        &self,
        refs: &mut HashMap<u128, u64>,
        hashes: &[ContentHash],
    ) -> Result<(), KvError> {
        for h in hashes {
            match refs.get_mut(&h.0) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    refs.remove(&h.0);
                    self.backend.delete(&chunk_key(*h))?;
                }
                None => {
                    return Err(KvError::Corrupt {
                        detail: format!("chunk {h} released without a reference"),
                    })
                }
            }
        }
        Ok(())
    }

    /// Possession probe: for each hash, whether a chunk with that content
    /// is physically stored (referenced by at least one manifest). One
    /// lock acquisition for the whole batch — this is the receiver side
    /// of chunk-negotiated transfer.
    pub fn probe_chunks(&self, hashes: &[ContentHash]) -> Vec<bool> {
        let refs = self.chunk_refs.lock();
        hashes.iter().map(|h| refs.contains_key(&h.0)).collect()
    }

    /// The logical length and chunk-hash list of one stored record —
    /// the record's *transfer manifest*, read without touching any chunk
    /// payload.
    pub fn chunk_manifest(&self, key: &[u8]) -> Result<(usize, Vec<ContentHash>), KvError> {
        decode_manifest(&self.backend.get(&manifest_key(key))?)
    }

    /// One chunk's payload by content hash ([`KvError::NotFound`] when no
    /// manifest references it). The sender side of chunk-negotiated
    /// transfer: serving chunks the receiver reported missing.
    pub fn chunk_payload(&self, h: ContentHash) -> Result<Bytes, KvError> {
        self.backend.get(&chunk_key(h))
    }

    /// Manifest-level insert: store a record as `(total, hashes)` without
    /// ever holding the assembled value, taking missing chunk payloads
    /// from `provided` (keyed by content hash). Chunks already stored are
    /// reference-bumped exactly like [`KvBackend::put`]'s dedup path;
    /// provided payloads are verified against their claimed hash and the
    /// chunk-size framing before anything is written. Overwrite releases
    /// the old value's chunks, same as `put`.
    pub fn put_manifest(
        &self,
        key: &[u8],
        total: usize,
        hashes: &[ContentHash],
        provided: &HashMap<u128, Bytes>,
    ) -> Result<(), KvError> {
        let corrupt = |detail: String| KvError::Corrupt { detail };
        let expected_count = total.div_ceil(self.chunk_size);
        if hashes.len() != expected_count {
            return Err(corrupt(format!(
                "manifest insert: {} hashes for {total} bytes at chunk size {} (expected {})",
                hashes.len(),
                self.chunk_size,
                expected_count
            )));
        }
        let chunk_len_at = |i: usize| {
            if i + 1 == hashes.len() {
                total - (hashes.len() - 1) * self.chunk_size
            } else {
                self.chunk_size
            }
        };
        let mkey = manifest_key(key);
        let mut refs = self.chunk_refs.lock();
        // Validate every not-yet-stored chunk before mutating anything,
        // so a bad push leaves the store untouched.
        for (i, h) in hashes.iter().enumerate() {
            if refs.contains_key(&h.0) {
                continue;
            }
            let chunk = provided.get(&h.0).ok_or_else(|| {
                corrupt(format!(
                    "manifest insert: chunk {h} neither stored nor provided"
                ))
            })?;
            if chunk.len() != chunk_len_at(i) {
                return Err(corrupt(format!(
                    "manifest insert: chunk {h} is {} bytes, framing expects {}",
                    chunk.len(),
                    chunk_len_at(i)
                )));
            }
            if ContentHash::of_bytes(chunk) != *h {
                return Err(corrupt(format!(
                    "manifest insert: provided payload does not hash to {h}"
                )));
            }
        }
        self.metrics.record_put(total);
        // Overwrite: release the chunks of the previous value first.
        match self.backend.get(&mkey) {
            Ok(old) => {
                let (old_total, old_hashes) = decode_manifest(&old)?;
                self.release_chunks(&mut refs, &old_hashes)?;
                self.logical_bytes
                    .fetch_sub(old_total as u64, Ordering::Relaxed);
            }
            Err(KvError::NotFound) => {
                self.manifest_count.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => return Err(e),
        }
        for h in hashes {
            match refs.get_mut(&h.0) {
                Some(c) => {
                    *c += 1;
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    let chunk = provided
                        .get(&h.0)
                        .expect("validated above: missing chunk is provided");
                    self.backend.put(&chunk_key(*h), chunk.clone())?;
                    refs.insert(h.0, 1);
                }
            }
        }
        self.backend.put(&mkey, encode_manifest(total, hashes))?;
        self.logical_bytes
            .fetch_add(total as u64, Ordering::Relaxed);
        Ok(())
    }
}

impl<B: KvBackend> KvBackend for ChunkedStore<B> {
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        self.put_chunks(key, std::slice::from_ref(&value))
    }

    /// Chunks are cut straight from the segments: a rope is stored
    /// without ever being gathered.
    fn put_segments(&self, key: &[u8], segments: Vec<Bytes>) -> Result<(), KvError> {
        self.put_chunks(key, &segments)
    }

    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        let manifest = match self.backend.get(&manifest_key(key)) {
            Ok(m) => m,
            Err(KvError::NotFound) => {
                self.metrics.record_miss();
                return Err(KvError::NotFound);
            }
            Err(e) => return Err(e),
        };
        let (total, hashes) = decode_manifest(&manifest)?;
        let value = if let [h] = hashes[..] {
            // One chunk is the value as the backend holds it.
            self.backend
                .get(&chunk_key(h))
                .map_err(|e| named_missing(h, e))?
        } else {
            // Each chunk is read into its place in one buffer: no buffer
            // per chunk, no reassembly copy.
            let mut buf = Vec::with_capacity(total);
            for h in &hashes {
                self.backend
                    .get_into(&chunk_key(*h), &mut buf)
                    .map_err(|e| named_missing(*h, e))?;
            }
            Bytes::from(buf)
        };
        if value.len() != total {
            return Err(KvError::Corrupt {
                detail: format!(
                    "chunked value reassembled to {} bytes, manifest says {total}",
                    value.len()
                ),
            });
        }
        self.metrics.record_get(total);
        Ok(value)
    }

    fn get_resident(&self, key: &[u8]) -> Option<Vec<Bytes>> {
        // Honors the resident-read contract at the *logical* level: Some
        // only when the manifest and every chunk are memory-resident in
        // the wrapped backend — the chunks come back as they are held, one
        // segment each, nothing reassembled — recording exactly one
        // logical read. Everything else returns None with no accounting;
        // the caller's fallback `get` then counts one read or one miss.
        let manifest = self.backend.get_resident(&manifest_key(key))?;
        let (total, hashes) = decode_manifest(&rope::flatten(&manifest)).ok()?;
        let mut segments = Vec::with_capacity(hashes.len());
        for h in &hashes {
            segments.extend(self.backend.get_resident(&chunk_key(*h))?);
        }
        if rope::len(&segments) != total {
            return None;
        }
        self.metrics.record_get(total);
        Some(segments)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        let mkey = manifest_key(key);
        let mut refs = self.chunk_refs.lock();
        let manifest = match self.backend.get(&mkey) {
            Ok(m) => m,
            Err(KvError::NotFound) => return Ok(false),
            Err(e) => return Err(e),
        };
        let (total, hashes) = decode_manifest(&manifest)?;
        self.release_chunks(&mut refs, &hashes)?;
        self.backend.delete(&mkey)?;
        self.logical_bytes
            .fetch_sub(total as u64, Ordering::Relaxed);
        self.manifest_count.fetch_sub(1, Ordering::Relaxed);
        self.metrics.record_delete();
        Ok(true)
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.backend.contains(&manifest_key(key))
    }

    fn len(&self) -> usize {
        self.manifest_count.load(Ordering::Relaxed) as usize
    }

    /// *Physical* bytes in the wrapped backend (deduped chunks plus
    /// manifests) — the capacity metric chunking exists to shrink. The
    /// logical sum is available via [`ChunkedStore::stats`].
    fn bytes_used(&self) -> usize {
        self.backend.bytes_used()
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len());
        self.backend.for_each_key(&mut |k| {
            if k.first() == Some(&b'M') {
                out.push(k[1..].to_vec());
            }
        });
        out
    }

    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        self.backend.for_each_key(&mut |k| {
            if k.first() == Some(&b'M') {
                f(&k[1..]);
            }
        });
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mempool::MemPoolStore;
    use crate::refcount::RefCountedStore;

    fn store(chunk: usize) -> ChunkedStore<MemPoolStore> {
        ChunkedStore::open(MemPoolStore::new(), chunk).unwrap()
    }

    #[test]
    fn roundtrip_various_sizes() {
        let s = store(8);
        for (key, len) in [(b"a" as &[u8], 0usize), (b"b", 1), (b"c", 8), (b"d", 100)] {
            let value = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
            s.put(key, value.clone()).unwrap();
            assert_eq!(s.get(key).unwrap(), value);
            assert!(s.contains(key));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(b"nope"), Err(KvError::NotFound));
    }

    #[test]
    fn identical_values_share_chunks() {
        let s = store(16);
        let value = Bytes::from(vec![42u8; 64]);
        s.put(b"model-a", value.clone()).unwrap();
        let solo = s.bytes_used();
        s.put(b"model-b", value.clone()).unwrap();
        let both = s.bytes_used();
        // Second copy costs only its manifest (20-byte header + 4 hashes
        // + check = 92 bytes), never a second set of chunk payloads.
        assert!(both - solo < 100, "dedup failed: {solo} -> {both}");
        let st = s.stats();
        // 64 bytes of the value are 4 chunks of 16 identical bytes: one
        // distinct chunk, 3 intra-value + 4 cross-value dedup hits.
        assert_eq!(st.chunks, 1);
        assert_eq!(st.manifests, 2);
        assert_eq!(st.dedup_hits, 7);
        assert_eq!(st.logical_bytes, 128);

        // Deleting one record keeps the shared chunk alive for the other.
        assert!(s.delete(b"model-a").unwrap());
        assert_eq!(s.get(b"model-b").unwrap(), value);
        assert!(s.delete(b"model-b").unwrap());
        assert_eq!(s.len(), 0);
        assert_eq!(s.bytes_used(), 0);
        assert_eq!(s.stats().chunks, 0);
    }

    #[test]
    fn overwrite_releases_old_chunks() {
        let s = store(8);
        s.put(b"k", Bytes::from(vec![1u8; 64])).unwrap();
        s.put(b"k", Bytes::from(vec![2u8; 24])).unwrap();
        assert_eq!(s.get(b"k").unwrap(), Bytes::from(vec![2u8; 24]));
        assert_eq!(s.len(), 1);
        let st = s.stats();
        assert_eq!(st.chunks, 1, "old chunks must be released");
        assert_eq!(st.logical_bytes, 24);
    }

    #[test]
    fn keys_expose_only_logical_names() {
        let s = store(4);
        s.put(b"alpha", Bytes::from(vec![9u8; 20])).unwrap();
        s.put(b"beta", Bytes::from(vec![8u8; 20])).unwrap();
        let mut keys = s.keys();
        keys.sort();
        assert_eq!(keys, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        let mut walked = Vec::new();
        s.for_each_key(&mut |k| walked.push(k.to_vec()));
        walked.sort();
        assert_eq!(walked, keys);
    }

    #[test]
    fn refcounted_audit_sees_logical_keys() {
        let s = RefCountedStore::new(store(8));
        s.put(b"t1", Bytes::from(vec![5u8; 40]), 1).unwrap();
        s.put(b"t2", Bytes::from(vec![5u8; 40]), 2).unwrap();
        s.audit().unwrap();
        assert_eq!(s.decr(b"t1").unwrap(), 0);
        s.audit().unwrap();
        assert_eq!(s.get(b"t2").unwrap(), Bytes::from(vec![5u8; 40]));
    }

    #[test]
    fn resident_read_serves_single_and_multi_chunk_values() {
        let s = store(32);
        s.put(b"small", Bytes::from(vec![1u8; 16])).unwrap();
        s.put(b"large", Bytes::from(vec![2u8; 100])).unwrap();
        s.put(b"empty", Bytes::new()).unwrap();
        assert_eq!(s.get_resident(b"small").unwrap().len(), 1);
        // One segment per chunk, each the buffer the backend holds.
        let large = s.get_resident(b"large").unwrap();
        assert_eq!(large.len(), 4);
        let (_, hashes) = s.chunk_manifest(b"large").unwrap();
        for (segment, h) in large.iter().zip(hashes) {
            assert_eq!(segment.as_ptr(), s.chunk_payload(h).unwrap().as_ptr());
        }
        assert_eq!(s.get_resident(b"empty"), Some(Vec::new()));
        assert_eq!(s.get_resident(b"absent"), None);
    }

    #[test]
    fn logical_metrics_count_one_read_per_fetch() {
        let s = store(8);
        s.put(b"multi", Bytes::from(vec![7u8; 64])).unwrap();
        // Eight resident chunks: exactly one logical read, and the same
        // again through `get`.
        assert_eq!(rope::len(&s.get_resident(b"multi").unwrap()), 64);
        let m = s.metrics_snapshot().unwrap();
        assert_eq!((m.gets, m.bytes_read, m.misses), (1, 64, 0));
        let _ = s.get(b"multi").unwrap();
        let m = s.metrics_snapshot().unwrap();
        assert_eq!((m.gets, m.bytes_read, m.misses), (2, 128, 0));
        // Miss path: one miss, no read.
        assert_eq!(s.get_resident(b"gone"), None);
        let _ = s.get(b"gone");
        let m = s.metrics_snapshot().unwrap();
        assert_eq!(m.gets, 2);
        assert_eq!(m.misses, 1);
    }

    /// Over a log store, a record's chunks are read end to end into one
    /// buffer, as one logical read; a chunk gone from the backend is
    /// corruption, not a miss.
    #[test]
    fn multi_chunk_get_reads_chunks_into_place_as_one_read() {
        let dir = std::env::temp_dir().join(format!("evostore-chunk-into-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = ChunkedStore::open(crate::LogStore::open(&dir).unwrap(), 16).unwrap();
        let value = Bytes::from((0..100u8).collect::<Vec<u8>>());
        s.put(b"k", value.clone()).unwrap();
        assert_eq!(s.get(b"k").unwrap(), value);
        let m = s.metrics_snapshot().unwrap();
        assert_eq!((m.gets, m.bytes_read, m.misses), (1, 100, 0));

        assert_eq!(s.get(b"gone"), Err(KvError::NotFound));
        let (_, hashes) = s.chunk_manifest(b"k").unwrap();
        s.backend().delete(&chunk_key(hashes[3])).unwrap();
        assert!(matches!(
            s.get(b"k"),
            Err(KvError::Corrupt { detail }) if detail.contains("missing from backend")
        ));
        let m = s.metrics_snapshot().unwrap();
        assert_eq!((m.gets, m.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_cover_value_in_order() {
        let s = store(8);
        let value = Bytes::from((0..50u8).collect::<Vec<u8>>());
        s.put(b"k", value.clone()).unwrap();
        let segs = s.get_resident(b"k").unwrap();
        assert_eq!(segs.len(), 7);
        assert_eq!(rope::flatten(&segs), value);
        assert_eq!(s.get_resident(b"absent"), None);
    }

    /// A value put as a rope is chunked exactly as its flattened bytes
    /// are — same hashes, refcounts and stats — and only the chunks that
    /// span a segment boundary are gathered.
    #[test]
    fn rope_put_cuts_chunks_from_the_segments() {
        let flat = Bytes::from((0..100u8).collect::<Vec<u8>>());
        let rope = vec![
            flat.slice(..6),
            Bytes::new(),
            flat.slice(6..70),
            flat.slice(70..71),
            flat.slice(71..),
        ];
        let (by_rope, by_flat) = (store(16), store(16));
        by_rope.put_segments(b"k", rope).unwrap();
        by_flat.put(b"k", flat.clone()).unwrap();
        assert_eq!(by_rope.chunk_manifest(b"k"), by_flat.chunk_manifest(b"k"));
        assert_eq!(by_rope.stats(), by_flat.stats());
        assert_eq!(by_rope.get(b"k").unwrap(), flat);
        // 0..16 and 64..80 span a segment boundary and are gathered; every
        // other chunk, the short last one included, lies within a segment
        // and shares the caller's buffer.
        let chunks = by_rope.get_resident(b"k").unwrap();
        let shared: Vec<bool> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| c.as_ptr() == flat[i * 16..].as_ptr())
            .collect();
        assert_eq!(shared, [false, true, true, true, false, true, true]);
    }

    #[test]
    fn reopen_rebuilds_chunk_refs() {
        let dir =
            std::env::temp_dir().join(format!("evostore-chunk-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let value = Bytes::from(vec![3u8; 48]);
        {
            let s = ChunkedStore::open(crate::LogStore::open(&dir).unwrap(), 16).unwrap();
            s.put(b"a", value.clone()).unwrap();
            s.put(b"b", value.clone()).unwrap();
        }
        let s = ChunkedStore::open(crate::LogStore::open(&dir).unwrap(), 16).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b"a").unwrap(), value);
        let st = s.stats();
        assert_eq!(st.chunks, 1);
        assert_eq!(st.logical_bytes, 96);
        // The rebuilt refcounts must keep the shared chunk alive across
        // one delete and release it on the second.
        assert!(s.delete(b"a").unwrap());
        assert_eq!(s.get(b"b").unwrap(), value);
        assert!(s.delete(b"b").unwrap());
        assert_eq!(s.stats().chunks, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_manifest_is_refused_by_version() {
        // A manifest stamped by the previous format lists FNV addresses.
        // It must be named as such — before its (FNV) check is compared.
        let hashes = [ContentHash::of_bytes(b"chunk")];
        let mut v1 = encode_manifest(5, &hashes).to_vec();
        v1[4] = 1;
        match decode_manifest(&v1) {
            Err(KvError::Corrupt { detail }) => {
                assert!(detail.contains("unsupported version 1"), "{detail}")
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // Read through the store, the same manifest is the same error.
        let s = store(8);
        s.backend.put(&manifest_key(b"k"), Bytes::from(v1)).unwrap();
        assert!(matches!(
            s.get(b"k"),
            Err(KvError::Corrupt { detail }) if detail.contains("unsupported version 1")
        ));
    }

    #[test]
    fn probe_and_listing_expose_possession() {
        let s = store(8);
        let value = Bytes::from((0..20u8).collect::<Vec<u8>>());
        s.put(b"k", value.clone()).unwrap();
        let (total, hashes) = s.chunk_manifest(b"k").unwrap();
        assert_eq!(total, 20);
        assert_eq!(hashes.len(), 3);
        let absent = ContentHash::of_bytes(b"not stored anywhere");
        let mut probe_set = hashes.clone();
        probe_set.push(absent);
        assert_eq!(s.probe_chunks(&probe_set), vec![true, true, true, false]);
        // Payload fetch reassembles the original value chunk by chunk.
        let mut flat = Vec::new();
        for h in &hashes {
            flat.extend_from_slice(&s.chunk_payload(*h).unwrap());
        }
        assert_eq!(flat, value.to_vec());
        assert_eq!(s.chunk_payload(absent), Err(KvError::NotFound));
        assert!(matches!(s.chunk_manifest(b"gone"), Err(KvError::NotFound)));
    }

    #[test]
    fn manifest_insert_reconstitutes_without_assembly() {
        let src = store(8);
        let dst = store(8);
        let value = Bytes::from((0..50u8).map(|i| i % 7).collect::<Vec<u8>>());
        src.put(b"rec", value.clone()).unwrap();
        // Destination already holds a record sharing most chunks.
        let mut shared = value.to_vec();
        shared[48] ^= 0xFF; // only the last chunk differs
        dst.put(b"other", Bytes::from(shared)).unwrap();

        let (total, hashes) = src.chunk_manifest(b"rec").unwrap();
        let have = dst.probe_chunks(&hashes);
        let mut provided = HashMap::new();
        let mut pushed = 0usize;
        for (h, have) in hashes.iter().zip(&have) {
            if !have {
                let chunk = src.chunk_payload(*h).unwrap();
                pushed += chunk.len();
                provided.insert(h.0, chunk);
            }
        }
        assert!(
            pushed < value.len(),
            "negotiation must ship fewer bytes than the value"
        );
        dst.put_manifest(b"rec", total, &hashes, &provided).unwrap();
        assert_eq!(dst.get(b"rec").unwrap(), value);
        // Shared chunks are refcounted: dropping the pre-existing record
        // keeps the transferred one intact.
        assert!(dst.delete(b"other").unwrap());
        assert_eq!(dst.get(b"rec").unwrap(), value);
    }

    #[test]
    fn manifest_insert_overwrite_releases_old_chunks() {
        let s = store(8);
        s.put(b"k", Bytes::from(vec![1u8; 64])).unwrap();
        let value = Bytes::from(vec![2u8; 24]);
        let hashes: Vec<ContentHash> = value.chunks(8).map(ContentHash::of_bytes).collect();
        let provided: HashMap<u128, Bytes> = hashes
            .iter()
            .zip(value.chunks(8))
            .map(|(h, c)| (h.0, Bytes::copy_from_slice(c)))
            .collect();
        s.put_manifest(b"k", value.len(), &hashes, &provided)
            .unwrap();
        assert_eq!(s.get(b"k").unwrap(), value);
        let st = s.stats();
        assert_eq!(st.chunks, 1, "old chunks must be released");
        assert_eq!(st.logical_bytes, 24);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn manifest_insert_rejects_bad_pushes_untouched() {
        let s = store(8);
        let value = Bytes::from(vec![9u8; 16]);
        let hashes: Vec<ContentHash> = value.chunks(8).map(ContentHash::of_bytes).collect();
        // Missing payload for an unknown chunk.
        assert!(matches!(
            s.put_manifest(b"k", 16, &hashes, &HashMap::new()),
            Err(KvError::Corrupt { .. })
        ));
        // Payload that does not hash to its claim.
        let mut lying = HashMap::new();
        lying.insert(hashes[0].0, Bytes::from(vec![7u8; 8]));
        assert!(matches!(
            s.put_manifest(b"k", 16, &hashes, &lying),
            Err(KvError::Corrupt { .. })
        ));
        // Wrong framing: hash count disagrees with total/chunk_size.
        assert!(matches!(
            s.put_manifest(b"k", 64, &hashes, &HashMap::new()),
            Err(KvError::Corrupt { .. })
        ));
        // Nothing was written by the failed attempts.
        assert_eq!(s.len(), 0);
        assert_eq!(s.stats().chunks, 0);
        assert_eq!(s.bytes_used(), 0);
    }

    #[test]
    fn corrupt_manifest_surfaces() {
        let s = store(8);
        s.put(b"k", Bytes::from(vec![1u8; 10])).unwrap();
        // Tamper with the manifest bytes under the hood.
        let mkey = manifest_key(b"k");
        let mut m = s.backend().get(&mkey).unwrap().to_vec();
        let at = m.len() / 2;
        m[at] ^= 0xFF;
        s.backend().put(&mkey, Bytes::from(m)).unwrap();
        assert!(matches!(s.get(b"k"), Err(KvError::Corrupt { .. })));
    }
}
