//! Reference-counted storage wrapper.
//!
//! §4.1, "Distributed garbage collection using reference counting": every
//! tensor segment a provider stores carries a reference counter. Storing a
//! model increments the counter of every tensor its owner map references;
//! retiring a model decrements them; a tensor is physically removed only
//! when its counter reaches zero — so a frozen layer inherited by many
//! descendants survives the retirement of its original owner.
//!
//! The counters are kept in memory (they are reconstructible from the
//! owner maps, which *are* persisted); the wrapped [`KvBackend`] holds the
//! payloads.

use std::collections::HashMap;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::api::{KvBackend, KvError};

/// A [`KvBackend`] wrapper that removes values when their reference count
/// reaches zero.
pub struct RefCountedStore<B: KvBackend> {
    backend: B,
    counts: Mutex<HashMap<Box<[u8]>, u64>>,
}

impl<B: KvBackend> RefCountedStore<B> {
    /// Wrap a backend.
    pub fn new(backend: B) -> RefCountedStore<B> {
        RefCountedStore {
            backend,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// Borrow the wrapped backend (read-only use: metrics, space).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Store a value with an initial reference count.
    ///
    /// If the key already exists its value is overwritten and its count
    /// *increased* by `initial_refs` — the semantics a provider needs when
    /// two models race to publish an identical tensor.
    pub fn put(&self, key: &[u8], value: Bytes, initial_refs: u64) -> Result<(), KvError> {
        self.put_with(key, initial_refs, |backend| backend.put(key, value))
    }

    /// [`RefCountedStore::put`] of a value held as a rope (see
    /// [`KvBackend::put_segments`]): same counting, and a backend that
    /// keeps values in memory stores the segments without gathering them.
    pub fn put_segments(
        &self,
        key: &[u8],
        segments: Vec<Bytes>,
        initial_refs: u64,
    ) -> Result<(), KvError> {
        self.put_with(key, initial_refs, |backend| {
            backend.put_segments(key, segments)
        })
    }

    /// The one counted insert: run `put` against the backend under the
    /// counts lock and, when it succeeds, add `initial_refs` to `key`'s
    /// count (an existing key is overwritten and its count *increased*).
    /// [`RefCountedStore::put`] and [`RefCountedStore::put_segments`] are
    /// this over a plain write; a caller holding a richer backend passes
    /// its own write, e.g. a chunk store's manifest-level insert.
    pub fn put_with(
        &self,
        key: &[u8],
        initial_refs: u64,
        put: impl FnOnce(&B) -> Result<(), KvError>,
    ) -> Result<(), KvError> {
        self.insert(key, initial_refs, false, put)
    }

    /// [`RefCountedStore::put_with`] of a key nothing references: a key
    /// already counted is refused with [`KvError::Exists`] before `put`
    /// runs, under the same lock, so a value something still references
    /// is never overwritten.
    pub fn put_fresh_with(
        &self,
        key: &[u8],
        initial_refs: u64,
        put: impl FnOnce(&B) -> Result<(), KvError>,
    ) -> Result<(), KvError> {
        self.insert(key, initial_refs, true, put)
    }

    fn insert(
        &self,
        key: &[u8],
        initial_refs: u64,
        fresh: bool,
        put: impl FnOnce(&B) -> Result<(), KvError>,
    ) -> Result<(), KvError> {
        assert!(initial_refs > 0, "storing with zero references leaks");
        let mut counts = self.counts.lock();
        if fresh && counts.contains_key(key) {
            return Err(KvError::Exists);
        }
        put(&self.backend)?;
        *counts.entry(key.into()).or_insert(0) += initial_refs;
        Ok(())
    }

    /// Fetch a value.
    pub fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        self.backend.get(key)
    }

    /// Append a value to `out` (see [`KvBackend::get_into`]).
    pub fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<(), KvError> {
        self.backend.get_into(key, out)
    }

    /// Zero-copy fetch of a memory-resident value (see
    /// [`KvBackend::get_resident`]); refcounts do not gate reads.
    pub fn get_resident(&self, key: &[u8]) -> Option<Vec<Bytes>> {
        self.backend.get_resident(key)
    }

    /// Presence check.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.backend.contains(key)
    }

    /// Increment the reference count of an existing key.
    ///
    /// Errors with `NotFound` when the key is not stored — incrementing a
    /// missing tensor indicates an owner-map/placement bug and must not be
    /// silent.
    pub fn incr(&self, key: &[u8]) -> Result<u64, KvError> {
        let mut counts = self.counts.lock();
        match counts.get_mut(key) {
            Some(c) => {
                *c += 1;
                Ok(*c)
            }
            None => Err(KvError::NotFound),
        }
    }

    /// Decrement the reference count; removes the value at zero.
    ///
    /// Returns the remaining count (`0` means the value was reclaimed).
    pub fn decr(&self, key: &[u8]) -> Result<u64, KvError> {
        let mut counts = self.counts.lock();
        match counts.get_mut(key) {
            Some(c) => {
                *c -= 1;
                if *c == 0 {
                    counts.remove(key);
                    self.backend.delete(key)?;
                    Ok(0)
                } else {
                    Ok(*c)
                }
            }
            None => Err(KvError::NotFound),
        }
    }

    /// Register an already-present backend key with a zero reference
    /// count (crash-recovery adoption). The count becomes meaningful only
    /// after the recovery replay re-increments it ([`RefCountedStore::incr`]
    /// accepts an adopted key); a key whose count stays at zero is an
    /// orphan for the caller to drop.
    pub fn adopt(&self, key: &[u8]) {
        if self.backend.contains(key) {
            self.counts.lock().entry(key.into()).or_insert(0);
        }
    }

    /// Force a stored key's reference count to an absolute value — the
    /// anti-entropy repair primitive. Unlike [`RefCountedStore::incr`] /
    /// [`RefCountedStore::decr`], which apply client-observed deltas,
    /// this installs an authoritative count recomputed from the union of
    /// all owner maps. `refs = 0` deletes the value.
    ///
    /// Returns the previous count. Errors with `NotFound` when the key
    /// is not stored (repair must re-replicate the payload first).
    pub fn set_refs(&self, key: &[u8], refs: u64) -> Result<u64, KvError> {
        let mut counts = self.counts.lock();
        match counts.get_mut(key) {
            Some(c) => {
                let prev = *c;
                if refs == 0 {
                    counts.remove(key);
                    self.backend.delete(key)?;
                } else {
                    *c = refs;
                }
                Ok(prev)
            }
            None => Err(KvError::NotFound),
        }
    }

    /// Current reference count (`0` when absent).
    pub fn refs(&self, key: &[u8]) -> u64 {
        self.counts.lock().get(key).copied().unwrap_or(0)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Live value bytes.
    pub fn bytes_used(&self) -> usize {
        self.backend.bytes_used()
    }

    /// Audit invariant: every stored key has a positive count and every
    /// counted key is stored. Used by tests and debug assertions.
    pub fn audit(&self) -> Result<(), String> {
        let counts = self.counts.lock();
        let mut stored: Vec<Vec<u8>> = self.backend.keys();
        stored.sort();
        let mut counted: Vec<Vec<u8>> = counts.keys().map(|k| k.to_vec()).collect();
        counted.sort();
        if stored != counted {
            return Err(format!(
                "stored keys ({}) != counted keys ({})",
                stored.len(),
                counted.len()
            ));
        }
        if let Some((k, _)) = counts.iter().find(|(_, &c)| c == 0) {
            return Err(format!("zero refcount retained for key {k:?}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mempool::MemPoolStore;

    fn store() -> RefCountedStore<MemPoolStore> {
        RefCountedStore::new(MemPoolStore::new())
    }

    #[test]
    fn value_survives_until_last_reference() {
        let s = store();
        s.put(b"t", Bytes::from_static(b"w"), 1).unwrap();
        s.incr(b"t").unwrap(); // second model references it
        assert_eq!(s.refs(b"t"), 2);

        assert_eq!(s.decr(b"t").unwrap(), 1); // first model retired
        assert!(s.contains(b"t"), "still referenced");

        assert_eq!(s.decr(b"t").unwrap(), 0); // last model retired
        assert!(!s.contains(b"t"), "reclaimed at zero");
        assert_eq!(s.refs(b"t"), 0);
        s.audit().unwrap();
    }

    #[test]
    fn incr_missing_is_error() {
        let s = store();
        assert_eq!(s.incr(b"nope"), Err(KvError::NotFound));
        assert_eq!(s.decr(b"nope"), Err(KvError::NotFound));
    }

    #[test]
    fn put_existing_accumulates_refs() {
        let s = store();
        s.put(b"t", Bytes::from_static(b"a"), 1).unwrap();
        s.put(b"t", Bytes::from_static(b"b"), 2).unwrap();
        assert_eq!(s.refs(b"t"), 3);
        assert_eq!(s.get(b"t").unwrap(), Bytes::from_static(b"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn put_with_counts_a_manifest_insert_like_a_plain_put() {
        use evostore_tensor::ContentHash;
        let s = RefCountedStore::new(crate::ChunkedStore::open(MemPoolStore::new(), 8).unwrap());
        let value = Bytes::from((0..20u8).collect::<Vec<u8>>());
        let hashes: Vec<ContentHash> = value.chunks(8).map(ContentHash::of_bytes).collect();
        let provided: HashMap<u128, Bytes> = hashes
            .iter()
            .zip(value.chunks(8))
            .map(|(h, c)| (h.0, Bytes::copy_from_slice(c)))
            .collect();
        s.put_with(b"t", 2, |chunks| {
            chunks.put_manifest(b"t", value.len(), &hashes, &provided)
        })
        .unwrap();
        assert_eq!(s.refs(b"t"), 2);
        assert_eq!(s.get(b"t").unwrap(), value);
        s.audit().unwrap();
        // A refused write registers nothing.
        let bad = s.put_with(b"u", 1, |chunks| {
            chunks.put_manifest(b"u", 9, &hashes[..1], &HashMap::new())
        });
        assert!(bad.is_err());
        assert_eq!(s.refs(b"u"), 0);
        assert_eq!(s.decr(b"t").unwrap(), 1);
        assert_eq!(s.decr(b"t").unwrap(), 0);
        assert!(!s.contains(b"t"), "reclaimed at zero like a plain put");
        s.audit().unwrap();
    }

    #[test]
    fn a_fresh_put_refuses_a_counted_key_and_keeps_its_value() {
        let s = store();
        s.put(b"t", Bytes::from_static(b"a"), 2).unwrap();
        let again = s.put_fresh_with(b"t", 1, |b| b.put(b"t", Bytes::from_static(b"b")));
        assert!(matches!(again, Err(KvError::Exists)), "{again:?}");
        assert_eq!(s.get(b"t").unwrap(), Bytes::from_static(b"a"));
        assert_eq!(s.refs(b"t"), 2);
        s.put_fresh_with(b"u", 1, |b| b.put(b"u", Bytes::from_static(b"c")))
            .unwrap();
        assert_eq!(s.refs(b"u"), 1);
        s.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "zero references")]
    fn zero_initial_refs_rejected() {
        let s = store();
        let _ = s.put(b"t", Bytes::from_static(b"x"), 0);
    }

    #[test]
    fn set_refs_installs_absolute_counts() {
        let s = store();
        s.put(b"t", Bytes::from_static(b"x"), 3).unwrap();
        assert_eq!(s.set_refs(b"t", 1).unwrap(), 3);
        assert_eq!(s.refs(b"t"), 1);
        assert_eq!(s.set_refs(b"t", 5).unwrap(), 1);
        assert_eq!(s.refs(b"t"), 5);
        s.audit().unwrap();
    }

    #[test]
    fn set_refs_zero_reclaims() {
        let s = store();
        s.put(b"t", Bytes::from_static(b"x"), 2).unwrap();
        assert_eq!(s.set_refs(b"t", 0).unwrap(), 2);
        assert!(!s.contains(b"t"));
        assert_eq!(s.refs(b"t"), 0);
        s.audit().unwrap();
    }

    #[test]
    fn set_refs_missing_is_error() {
        let s = store();
        assert_eq!(s.set_refs(b"nope", 4), Err(KvError::NotFound));
    }

    #[test]
    fn audit_catches_manual_backend_tampering() {
        let s = store();
        s.put(b"t", Bytes::from_static(b"x"), 1).unwrap();
        // Bypass the wrapper: delete straight from the backend.
        s.backend().delete(b"t").unwrap();
        assert!(s.audit().is_err());
    }

    #[test]
    fn concurrent_incr_decr_balance() {
        let s = std::sync::Arc::new(store());
        s.put(b"shared", Bytes::from(vec![0u8; 64]), 1).unwrap();
        // 8 threads each incr 100 then decr 100.
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.incr(b"shared").unwrap();
                    }
                    for _ in 0..100 {
                        s.decr(b"shared").unwrap();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(s.refs(b"shared"), 1);
        assert!(s.contains(b"shared"));
        s.audit().unwrap();
    }

    /// The wrapper must behave identically over a plain and a chunked
    /// physical layer.
    fn exercise<B: KvBackend>(store: &RefCountedStore<B>) {
        store.put(b"k1", Bytes::from(vec![1u8; 100]), 1).unwrap();
        store.put(b"k2", Bytes::from(vec![1u8; 100]), 2).unwrap();
        assert_eq!(store.get(b"k1").unwrap().len(), 100);
        assert!(store.contains(b"k2"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.incr(b"k1").unwrap(), 2);
        assert_eq!(store.decr(b"k1").unwrap(), 1);
        assert_eq!(store.refs(b"k1"), 1);
        store.audit().unwrap();

        // The resident read (or the get fallback) must reproduce the record.
        let flat: Vec<u8> = match store.get_resident(b"k1") {
            Some(segs) => segs.iter().flat_map(|s| s.to_vec()).collect(),
            None => store.get(b"k1").unwrap().to_vec(),
        };
        assert_eq!(flat, vec![1u8; 100]);

        assert_eq!(store.decr(b"k1").unwrap(), 0);
        assert!(!store.contains(b"k1"));
        let mut seen = Vec::new();
        store.backend().for_each_key(&mut |k| seen.push(k.to_vec()));
        assert_eq!(seen, vec![b"k2".to_vec()]);
        store.audit().unwrap();
    }

    #[test]
    fn wrapper_over_plain_backend() {
        let s = store();
        exercise(&s);
        assert!(s.backend().metrics_snapshot().is_some());
    }

    #[test]
    fn wrapper_over_chunked_backend() {
        let s = RefCountedStore::new(crate::ChunkedStore::open(MemPoolStore::new(), 32).unwrap());
        exercise(&s);
        let stats = s.backend().stats();
        assert_eq!(stats.manifests, 1);
        assert!(stats.dedup_hits > 0, "identical values must dedup");
    }

    #[test]
    fn wrapper_over_boxed_backend() {
        let backend: Box<dyn KvBackend> =
            Box::new(crate::ChunkedStore::open(MemPoolStore::new(), 32).unwrap());
        let s = RefCountedStore::new(backend);
        exercise(&s);
    }
}
