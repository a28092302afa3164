//! Sharded in-memory pool backend.
//!
//! The Rust analogue of the paper's "C++ synchronized memory pools"
//! (§4.3): values live in memory behind per-shard reader-writer locks, so
//! concurrent readers of *different* tensors — the dominant access pattern
//! during parallel model reconstruction — never contend on one global
//! lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use evostore_tensor::rope;
use parking_lot::RwLock;

use crate::api::{KvBackend, KvError};
use crate::metrics::StoreMetrics;

/// Number of lock shards. Power of two so shard selection is a mask.
const DEFAULT_SHARDS: usize = 64;

/// A stored value: one buffer, or the rope it was put as
/// ([`KvBackend::put_segments`]) — kept unflattened so its segments are
/// still the caller's buffers when a resident read hands them out.
#[derive(Clone)]
enum Value {
    Flat(Bytes),
    Rope(Arc<[Bytes]>),
}

impl Value {
    fn len(&self) -> usize {
        match self {
            Value::Flat(bytes) => bytes.len(),
            Value::Rope(segments) => rope::len(segments),
        }
    }

    /// The value as one buffer (a gathering copy for a rope).
    fn into_flat(self) -> Bytes {
        match self {
            Value::Flat(bytes) => bytes,
            Value::Rope(segments) => rope::flatten(&segments),
        }
    }

    fn segments(&self) -> Vec<Bytes> {
        match self {
            Value::Flat(bytes) => vec![bytes.clone()],
            Value::Rope(segments) => segments.to_vec(),
        }
    }
}

type Shard = RwLock<HashMap<Box<[u8]>, Value>>;

/// A sharded, synchronized in-memory KV store.
pub struct MemPoolStore {
    shards: Vec<Shard>,
    mask: usize,
    live_bytes: AtomicUsize,
    live_keys: AtomicUsize,
    metrics: StoreMetrics,
}

impl MemPoolStore {
    /// Store with the default shard count.
    pub fn new() -> MemPoolStore {
        MemPoolStore::with_shards(DEFAULT_SHARDS)
    }

    /// Store with `shards` lock shards (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> MemPoolStore {
        let n = shards.next_power_of_two().max(1);
        MemPoolStore {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: n - 1,
            live_bytes: AtomicUsize::new(0),
            live_keys: AtomicUsize::new(0),
            metrics: StoreMetrics::new(),
        }
    }

    #[inline]
    fn shard(&self, key: &[u8]) -> &Shard {
        let h = evostore_tensor::fnv1a128(key) as usize;
        &self.shards[h & self.mask]
    }

    /// Operation counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }
}

impl Default for MemPoolStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemPoolStore {
    fn insert(&self, key: &[u8], value: Value) {
        let vlen = value.len();
        self.metrics.record_put(vlen);
        let mut map = self.shard(key).write();
        match map.insert(key.into(), value) {
            Some(old) => {
                // Overwrite: adjust byte accounting by the delta.
                self.live_bytes.fetch_add(vlen, Ordering::Relaxed);
                self.live_bytes.fetch_sub(old.len(), Ordering::Relaxed);
            }
            None => {
                self.live_bytes.fetch_add(vlen, Ordering::Relaxed);
                self.live_keys.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl KvBackend for MemPoolStore {
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        self.insert(key, Value::Flat(value));
        Ok(())
    }

    fn put_segments(&self, key: &[u8], mut segments: Vec<Bytes>) -> Result<(), KvError> {
        let value = match segments.len() {
            1 => Value::Flat(segments.pop().expect("one segment")),
            _ => Value::Rope(segments.into()),
        };
        self.insert(key, value);
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        // Cloned out (refcount bumps) so a rope is gathered outside the
        // shard lock.
        let value = self.shard(key).read().get(key).cloned();
        match value {
            Some(v) => {
                self.metrics.record_get(v.len());
                Ok(v.into_flat())
            }
            None => {
                self.metrics.record_miss();
                Err(KvError::NotFound)
            }
        }
    }

    fn get_resident(&self, key: &[u8]) -> Option<Vec<Bytes>> {
        // Every value is memory-resident here. A hit records its read
        // (same accounting as `get`); a miss records nothing — the
        // caller's fallback `get` supplies the miss count.
        let map = self.shard(key).read();
        map.get(key).map(|v| {
            self.metrics.record_get(v.len());
            v.segments()
        })
    }

    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        let mut map = self.shard(key).write();
        match map.remove(key) {
            Some(old) => {
                self.metrics.record_delete();
                self.live_bytes.fetch_sub(old.len(), Ordering::Relaxed);
                self.live_keys.fetch_sub(1, Ordering::Relaxed);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.shard(key).read().contains_key(key)
    }

    fn len(&self) -> usize {
        self.live_keys.load(Ordering::Relaxed)
    }

    fn bytes_used(&self) -> usize {
        self.live_bytes.load(Ordering::Relaxed)
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let map = shard.read();
            out.extend(map.keys().map(|k| k.to_vec()));
        }
        out
    }

    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        for shard in &self.shards {
            let map = shard.read();
            for k in map.keys() {
                f(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let s = MemPoolStore::new();
        s.put(b"a", Bytes::from_static(b"xyz")).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Bytes::from_static(b"xyz"));
        assert!(s.contains(b"a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes_used(), 3);
        assert!(s.delete(b"a").unwrap());
        assert!(!s.delete(b"a").unwrap());
        assert_eq!(s.get(b"a"), Err(KvError::NotFound));
        assert_eq!(s.len(), 0);
        assert_eq!(s.bytes_used(), 0);
    }

    #[test]
    fn overwrite_adjusts_accounting() {
        let s = MemPoolStore::new();
        s.put(b"k", Bytes::from(vec![0u8; 100])).unwrap();
        s.put(b"k", Bytes::from(vec![0u8; 40])).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes_used(), 40);
    }

    #[test]
    fn keys_lists_everything() {
        let s = MemPoolStore::with_shards(4);
        for i in 0..100u32 {
            s.put(&i.to_le_bytes(), Bytes::from_static(b"v")).unwrap();
        }
        let mut keys = s.keys();
        keys.sort();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn concurrent_writers_distinct_keys() {
        let s = Arc::new(MemPoolStore::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let key = [t, i.to_le_bytes()[0], i.to_le_bytes()[1], 0];
                        s.put(&key, Bytes::from(vec![t; 16])).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 8 * 500);
        assert_eq!(s.bytes_used(), 8 * 500 * 16);
    }

    #[test]
    fn concurrent_same_key_overwrites_stay_consistent() {
        let s = Arc::new(MemPoolStore::new());
        let threads: Vec<_> = (0..8)
            .map(|t: u8| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        s.put(b"shared", Bytes::from(vec![t; (t as usize + 1) * 8]))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 1);
        // Whatever write won, accounting must equal the live value's size.
        assert_eq!(s.bytes_used(), s.get(b"shared").unwrap().len());
    }

    #[test]
    fn ropes_are_stored_unflattened() {
        let s = MemPoolStore::new();
        let (a, b) = (Bytes::from(vec![1u8; 3]), Bytes::from(vec![2u8; 5]));
        s.put_segments(b"r", vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(s.bytes_used(), 8);
        assert_eq!(s.get(b"r").unwrap()[..], [1, 1, 1, 2, 2, 2, 2, 2]);
        let resident = s.get_resident(b"r").unwrap();
        assert_eq!(resident.len(), 2);
        assert_eq!(resident[0].as_ptr(), a.as_ptr());
        assert_eq!(resident[1].as_ptr(), b.as_ptr());
        // One segment is a plain value; an overwrite adjusts the bytes.
        s.put_segments(b"r", vec![b.clone()]).unwrap();
        assert_eq!(s.get(b"r").unwrap().as_ptr(), b.as_ptr());
        assert_eq!((s.len(), s.bytes_used()), (1, 5));
        let m = s.metrics().snapshot();
        assert_eq!((m.puts, m.gets, m.bytes_read), (2, 3, 8 + 8 + 5));
    }

    #[test]
    fn metrics_count_operations() {
        let s = MemPoolStore::new();
        s.put(b"a", Bytes::from_static(b"1")).unwrap();
        let _ = s.get(b"a");
        let _ = s.get(b"missing");
        let m = s.metrics().snapshot();
        assert_eq!(m.puts, 1);
        assert_eq!(m.gets, 1);
        assert_eq!(m.misses, 1);
    }
}
