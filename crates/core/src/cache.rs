//! Client-side tensor cache with prefetching.
//!
//! The paper's conclusion proposes "aggressive pre-fetching of models to
//! workers given known access pattern". [`CachingClient`] wraps an
//! [`EvoStoreClient`] with a byte-bounded LRU of fetched tensors:
//! repeated transfers from the same popular ancestor (the common case in
//! NAS, where good models parent many children) skip the fabric
//! entirely. Tensors are immutable once stored, so the only invalidation
//! concern is retirement — handled by [`CachingClient::retire_model`].
//!
//! The cache is keyed by [`TensorKey`] alone and is therefore
//! replica-agnostic: under a replicated deployment the inner client may
//! satisfy a miss from any replica of the key's owner (read failover),
//! and the cached bytes are identical regardless of which replica served
//! them — replication never needs a cache flush. A hit also absorbs
//! provider loss entirely: a tensor already cached is served even while
//! every replica of its chain is down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use evostore_tensor::{ModelId, TensorData, TensorKey};
use parking_lot::Mutex;

use crate::client::{prefix_keys, EvoStoreClient, Result, RetireOutcome};
use crate::messages::{LcpCandidate, ModelMetaReply};

struct CacheEntry {
    tensor: TensorData,
    /// LRU stamp.
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<TensorKey, CacheEntry>,
    bytes: usize,
}

/// Byte-bounded LRU tensor cache.
pub struct TensorCache {
    inner: Mutex<CacheInner>,
    capacity_bytes: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TensorCache {
    /// Cache holding at most `capacity_bytes` of tensor payload.
    pub fn new(capacity_bytes: usize) -> TensorCache {
        TensorCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                bytes: 0,
            }),
            capacity_bytes,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up one tensor.
    pub fn get(&self, key: &TensorKey) -> Option<TensorData> {
        self.touch(&mut self.inner.lock(), key)
    }

    /// Look up many tensors under one lock acquisition, splitting them
    /// into hits and the keys that must be fetched. Equivalent to
    /// [`TensorCache::get`] per key (same LRU stamping and hit/miss
    /// accounting) without re-taking the lock for every key.
    pub fn get_batch(
        &self,
        keys: &[TensorKey],
    ) -> (HashMap<TensorKey, TensorData>, Vec<TensorKey>) {
        let mut hits = HashMap::with_capacity(keys.len());
        let mut missing = Vec::new();
        let mut inner = self.inner.lock();
        for key in keys {
            match self.touch(&mut inner, key) {
                Some(tensor) => {
                    hits.insert(*key, tensor);
                }
                None => missing.push(*key),
            }
        }
        (hits, missing)
    }

    /// The one lookup: stamp a hit's LRU use and count the hit or miss.
    fn touch(&self, inner: &mut CacheInner, key: &TensorKey) -> Option<TensorData> {
        let stamp = self.stamp();
        let hit = inner.entries.get_mut(key).map(|e| {
            e.last_used = stamp;
            e.tensor.clone()
        });
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Insert a tensor, evicting least-recently-used entries if needed.
    /// Tensors larger than the whole cache are not cached.
    pub fn put(&self, key: TensorKey, tensor: TensorData) {
        let size = tensor.byte_len();
        if size > self.capacity_bytes {
            return;
        }
        let stamp = self.stamp();
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.insert(
            key,
            CacheEntry {
                tensor,
                last_used: stamp,
            },
        ) {
            inner.bytes -= old.tensor.byte_len();
        }
        inner.bytes += size;
        while inner.bytes > self.capacity_bytes {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("cache over capacity implies entries");
            if let Some(e) = inner.entries.remove(&victim) {
                inner.bytes -= e.tensor.byte_len();
            }
        }
    }

    /// Drop every cached tensor owned by `model` (on retirement).
    pub fn invalidate_owner(&self, model: ModelId) {
        let mut inner = self.inner.lock();
        let victims: Vec<TensorKey> = inner
            .entries
            .keys()
            .filter(|k| k.owner == model)
            .copied()
            .collect();
        for k in victims {
            if let Some(e) = inner.entries.remove(&k) {
                inner.bytes -= e.tensor.byte_len();
            }
        }
    }

    /// Cached payload bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Cached tensor count.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// An [`EvoStoreClient`] with a shared prefetch cache in front of the
/// tensor read path.
#[derive(Clone)]
pub struct CachingClient {
    client: EvoStoreClient,
    cache: Arc<TensorCache>,
}

impl CachingClient {
    /// Wrap a client with a cache of `capacity_bytes`.
    pub fn new(client: EvoStoreClient, capacity_bytes: usize) -> CachingClient {
        CachingClient {
            client,
            cache: Arc::new(TensorCache::new(capacity_bytes)),
        }
    }

    /// The underlying client (for operations the cache does not mediate).
    pub fn inner(&self) -> &EvoStoreClient {
        &self.client
    }

    /// The cache itself (stats, manual invalidation).
    pub fn cache(&self) -> &TensorCache {
        &self.cache
    }

    /// Cache-aware tensor fetch: cached keys are served locally, the rest
    /// go through one (grouped, parallel) repository read and populate
    /// the cache.
    pub fn fetch_tensors(&self, keys: &[TensorKey]) -> Result<HashMap<TensorKey, TensorData>> {
        let (mut out, missing) = self.cache.get_batch(keys);
        if !missing.is_empty() {
            let fetched = self.client.fetch_tensors(&missing)?;
            for (key, tensor) in fetched {
                self.cache.put(key, tensor.clone());
                out.insert(key, tensor);
            }
        }
        Ok(out)
    }

    /// Cache-aware prefix transfer (same contract as
    /// [`EvoStoreClient::fetch_prefix`]).
    pub fn fetch_prefix(
        &self,
        best: &LcpCandidate,
    ) -> Result<(ModelMetaReply, HashMap<TensorKey, TensorData>)> {
        let meta = self.client.get_meta(best.model)?;
        let tensors = self.fetch_tensors(&prefix_keys(best, &meta.owner_map)?)?;
        Ok((meta, tensors))
    }

    /// Warm the cache with a model's full parameter set ahead of time.
    pub fn prefetch_model(&self, model: ModelId) -> Result<usize> {
        let meta = self.client.get_meta(model)?;
        let keys = meta.owner_map.all_tensor_keys();
        let fetched = self.fetch_tensors(&keys)?;
        Ok(fetched.len())
    }

    /// Retire through the cache: the model's own tensors are dropped from
    /// the cache before the repository-side retirement runs.
    pub fn retire_model(&self, model: ModelId) -> Result<RetireOutcome> {
        self.cache.invalidate_owner(model);
        self.client.retire_model(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use evostore_tensor::{DType, VertexId};

    fn tensor(bytes: usize, fill: u8) -> TensorData {
        TensorData::from_bytes(DType::U8, vec![bytes], Bytes::from(vec![fill; bytes])).unwrap()
    }

    fn key(owner: u64, v: u32) -> TensorKey {
        TensorKey::new(ModelId(owner), VertexId(v), 0)
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = TensorCache::new(100);
        cache.put(key(1, 0), tensor(40, 1));
        cache.put(key(1, 1), tensor(40, 2));
        // Touch the first so the second becomes LRU.
        assert!(cache.get(&key(1, 0)).is_some());
        cache.put(key(1, 2), tensor(40, 3)); // forces eviction
        assert!(cache.bytes() <= 100);
        assert!(cache.get(&key(1, 0)).is_some(), "recently used survives");
        assert!(cache.get(&key(1, 1)).is_none(), "LRU evicted");
    }

    #[test]
    fn oversized_tensor_not_cached() {
        let cache = TensorCache::new(10);
        cache.put(key(1, 0), tensor(100, 1));
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidate_owner_drops_only_that_model() {
        let cache = TensorCache::new(1000);
        cache.put(key(1, 0), tensor(10, 1));
        cache.put(key(2, 0), tensor(10, 2));
        cache.invalidate_owner(ModelId(1));
        assert!(cache.get(&key(1, 0)).is_none());
        assert!(cache.get(&key(2, 0)).is_some());
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = TensorCache::new(100);
        cache.put(key(1, 0), tensor(10, 1));
        let _ = cache.get(&key(1, 0));
        let _ = cache.get(&key(9, 9));
        let (h, m) = cache.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn batch_lookup_matches_per_key_gets() {
        let cache = TensorCache::new(100);
        cache.put(key(1, 0), tensor(40, 1));
        cache.put(key(1, 1), tensor(40, 2));
        let (hits, missing) = cache.get_batch(&[key(1, 0), key(9, 9)]);
        assert_eq!(hits.len(), 1);
        assert!(hits.contains_key(&key(1, 0)));
        assert_eq!(missing, vec![key(9, 9)]);
        assert_eq!(cache.stats(), (1, 1));
        // A batch hit refreshes the LRU stamp exactly like `get`: the
        // untouched key is the one evicted next.
        cache.put(key(1, 2), tensor(40, 3));
        assert!(cache.get(&key(1, 0)).is_some(), "batch-touched survives");
        assert!(cache.get(&key(1, 1)).is_none(), "LRU evicted");
    }

    #[test]
    fn replacing_same_key_updates_bytes() {
        let cache = TensorCache::new(100);
        cache.put(key(1, 0), tensor(60, 1));
        cache.put(key(1, 0), tensor(20, 2));
        assert_eq!(cache.bytes(), 20);
        assert_eq!(cache.len(), 1);
    }
}
