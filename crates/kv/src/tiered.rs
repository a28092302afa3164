//! Two-tier storage: a byte-bounded in-memory cache over a persistent
//! backend.
//!
//! §4.3 describes providers that keep tensors "in-memory and
//! persistently" — this backend composes both: every write lands in the
//! durable tier (crash safety) and in the memory tier (read latency);
//! reads are served from memory when possible and promote on miss. The
//! memory tier evicts FIFO when its byte budget is exceeded — evictions
//! are safe because the durable tier always has the data.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::api::{KvBackend, KvError};
use crate::mempool::MemPoolStore;

/// Memory-cached persistent store.
pub struct TieredStore<D: KvBackend> {
    memory: MemPoolStore,
    durable: D,
    /// FIFO of keys resident in memory (eviction order).
    resident: Mutex<VecDeque<Vec<u8>>>,
    memory_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<D: KvBackend> TieredStore<D> {
    /// Cache up to `memory_budget` value bytes over `durable`.
    pub fn new(durable: D, memory_budget: usize) -> TieredStore<D> {
        TieredStore {
            memory: MemPoolStore::new(),
            durable,
            resident: Mutex::new(VecDeque::new()),
            memory_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The durable tier.
    pub fn durable(&self) -> &D {
        &self.durable
    }

    /// Bytes currently resident in the memory tier.
    pub fn memory_bytes(&self) -> usize {
        self.memory.bytes_used()
    }

    /// `(memory hits, memory misses)` on the read path.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn admit(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        if value.len() > self.memory_budget {
            return Ok(()); // larger than the whole tier: durable-only
        }
        self.memory.put(key, value)?;
        let mut resident = self.resident.lock();
        resident.push_back(key.to_vec());
        while self.memory.bytes_used() > self.memory_budget {
            let Some(victim) = resident.pop_front() else {
                break;
            };
            // The key may have been deleted/overwritten; ignore misses.
            let _ = self.memory.delete(&victim);
        }
        Ok(())
    }
}

impl<D: KvBackend> KvBackend for TieredStore<D> {
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        self.durable.put(key, value.clone())?;
        self.admit(key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        match self.memory.get(key) {
            Ok(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(v)
            }
            Err(KvError::NotFound) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let v = self.durable.get(key)?;
                // Promote for future reads.
                self.admit(key, v.clone())?;
                Ok(v)
            }
            Err(e) => Err(e),
        }
    }

    fn get_resident(&self, key: &[u8]) -> Option<Vec<Bytes>> {
        // Memory-resident means hot-tier resident: a hit counts like a
        // hot `get`; a durable-only key returns `None` without touching
        // the miss counter — the fallback `get` misses memory, promotes,
        // and accounts exactly as the single-get path always has.
        let v = self.memory.get_resident(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        let _ = self.memory.delete(key)?;
        self.durable.delete(key)
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.memory.contains(key) || self.durable.contains(key)
    }

    fn len(&self) -> usize {
        self.durable.len()
    }

    fn bytes_used(&self) -> usize {
        self.durable.bytes_used()
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        self.durable.keys()
    }

    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        self.durable.for_each_key(f)
    }

    /// Writes/deletes/misses come from the durable tier (every write
    /// lands there exactly once; a true miss is a durable miss); reads
    /// sum both tiers so cache hits still count as bytes served.
    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        let mut snap = self.durable.metrics_snapshot()?;
        let mem = self.memory.metrics_snapshot().unwrap_or_default();
        snap.gets += mem.gets;
        snap.bytes_read += mem.bytes_read;
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logstore::LogStore;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("evostore-tiered-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn reads_hit_memory_after_write() {
        let s = TieredStore::new(MemPoolStore::new(), 1 << 20);
        s.put(b"k", Bytes::from_static(b"value")).unwrap();
        assert_eq!(s.get(b"k").unwrap(), Bytes::from_static(b"value"));
        let (hits, misses) = s.cache_stats();
        assert_eq!((hits, misses), (1, 0));
    }

    #[test]
    fn eviction_falls_back_to_durable_and_promotes() {
        let s = TieredStore::new(MemPoolStore::new(), 100);
        for i in 0..10u8 {
            s.put(&[i], Bytes::from(vec![i; 40])).unwrap();
        }
        // Memory holds at most 2 x 40B values; early keys were evicted.
        assert!(s.memory_bytes() <= 100);
        assert_eq!(s.len(), 10, "durable tier keeps everything");
        // Reading an evicted key misses memory, hits durable, promotes.
        let v = s.get(&[0]).unwrap();
        assert_eq!(v, Bytes::from(vec![0u8; 40]));
        let (_, misses) = s.cache_stats();
        assert!(misses >= 1);
        // Promoted: second read hits.
        let before_hits = s.cache_stats().0;
        let _ = s.get(&[0]).unwrap();
        assert_eq!(s.cache_stats().0, before_hits + 1);
    }

    #[test]
    fn oversized_values_bypass_memory() {
        let s = TieredStore::new(MemPoolStore::new(), 16);
        s.put(b"big", Bytes::from(vec![1u8; 64])).unwrap();
        assert_eq!(s.memory_bytes(), 0);
        assert_eq!(s.get(b"big").unwrap().len(), 64);
    }

    #[test]
    fn delete_clears_both_tiers() {
        let s = TieredStore::new(MemPoolStore::new(), 1 << 20);
        s.put(b"k", Bytes::from_static(b"v")).unwrap();
        assert!(s.delete(b"k").unwrap());
        assert!(!s.contains(b"k"));
        assert_eq!(s.get(b"k"), Err(KvError::NotFound));
        assert!(!s.delete(b"k").unwrap());
    }

    #[test]
    fn persists_through_log_backend() {
        let dir = tmpdir("log");
        {
            let s = TieredStore::new(LogStore::open(&dir).unwrap(), 1 << 20);
            s.put(b"durable", Bytes::from_static(b"yes")).unwrap();
        }
        // Reopen the durable tier: the value survived the cache.
        let s = TieredStore::new(LogStore::open(&dir).unwrap(), 1 << 20);
        assert_eq!(s.get(b"durable").unwrap(), Bytes::from_static(b"yes"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_serves_new_value() {
        let s = TieredStore::new(MemPoolStore::new(), 1 << 20);
        s.put(b"k", Bytes::from_static(b"old")).unwrap();
        s.put(b"k", Bytes::from_static(b"new")).unwrap();
        assert_eq!(s.get(b"k").unwrap(), Bytes::from_static(b"new"));
        assert_eq!(s.len(), 1);
    }
}
