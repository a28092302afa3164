//! Fanned two-level directory layout over [`LogStore`].
//!
//! A single flat log directory serializes every operation behind one lock
//! and grows one giant index. Hash-addressed object stores avoid this
//! with a two-level directory fan — `aa/bb/<digest>` — which is also the
//! layout the EVO framework's file storage uses. [`FannedLogStore`]
//! reproduces it over [`LogStore`]: keys shard into a 16 x 16 directory
//! tree by a hash byte, each leaf directory holding an independent log
//! store opened lazily on first touch. Content-addressed chunk keys
//! (leading with their digest's best-mixed byte) and ordinary record keys
//! both spread uniformly, and shard locks are independent, so concurrent
//! chunk writes from parallel stores don't serialize.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::api::{KvBackend, KvError};
use crate::logstore::LogStore;
use crate::metrics::MetricsSnapshot;

/// A [`LogStore`] fanned into a 16 x 16 directory tree.
pub struct FannedLogStore {
    dir: PathBuf,
    shards: RwLock<HashMap<u8, Arc<LogStore>>>,
}

/// The shard byte of a key: the low (best-mixed) byte of its FNV-1a hash.
/// For chunk keys this tracks the content digest the key embeds.
fn shard_byte(key: &[u8]) -> u8 {
    evostore_tensor::fnv1a128(key) as u8
}

fn shard_dir(root: &Path, shard: u8) -> PathBuf {
    root.join(format!("{:x}", shard >> 4))
        .join(format!("{:x}", shard & 0x0F))
}

impl FannedLogStore {
    /// Open (or create) a fanned store rooted at `dir`, reopening every
    /// leaf store that already exists on disk.
    pub fn open(dir: impl AsRef<Path>) -> Result<FannedLogStore, KvError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let store = FannedLogStore {
            dir,
            shards: RwLock::new(HashMap::new()),
        };
        // Reopen shards present on disk so len()/keys() see them.
        for shard in 0..=255u8 {
            if shard_dir(&store.dir, shard).is_dir() {
                store.shard(shard)?;
            }
        }
        Ok(store)
    }

    /// Number of leaf stores currently open.
    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }

    /// The leaf store for `shard`, opened on first touch.
    fn shard(&self, shard: u8) -> Result<Arc<LogStore>, KvError> {
        if let Some(s) = self.shards.read().get(&shard) {
            return Ok(Arc::clone(s));
        }
        let mut shards = self.shards.write();
        if let Some(s) = shards.get(&shard) {
            return Ok(Arc::clone(s));
        }
        let store = Arc::new(LogStore::open(shard_dir(&self.dir, shard))?);
        shards.insert(shard, Arc::clone(&store));
        Ok(store)
    }

    fn shard_of(&self, key: &[u8]) -> Result<Arc<LogStore>, KvError> {
        self.shard(shard_byte(key))
    }

    /// Open leaf stores, snapshotted for iteration.
    fn open_shards(&self) -> Vec<Arc<LogStore>> {
        self.shards.read().values().map(Arc::clone).collect()
    }
}

impl KvBackend for FannedLogStore {
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        self.shard_of(key)?.put(key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        self.shard_of(key)?.get(key)
    }

    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<(), KvError> {
        self.shard_of(key)?.get_into(key, out)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        self.shard_of(key)?.delete(key)
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.shard_of(key).map(|s| s.contains(key)).unwrap_or(false)
    }

    fn len(&self) -> usize {
        self.open_shards().iter().map(|s| s.len()).sum()
    }

    fn bytes_used(&self) -> usize {
        self.open_shards().iter().map(|s| s.bytes_used()).sum()
    }

    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        for s in self.open_shards() {
            s.for_each_key(f);
        }
    }

    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        Some(
            self.open_shards()
                .iter()
                .filter_map(|s| s.metrics_snapshot())
                .fold(MetricsSnapshot::default(), MetricsSnapshot::merge),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("evostore-fan-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_fan_layout() {
        let dir = tmp("roundtrip");
        let s = FannedLogStore::open(&dir).unwrap();
        for i in 0..200u32 {
            s.put(&i.to_le_bytes(), Bytes::from(vec![i as u8; 32]))
                .unwrap();
        }
        assert_eq!(s.len(), 200);
        assert_eq!(s.bytes_used(), 200 * 32);
        for i in 0..200u32 {
            assert_eq!(
                s.get(&i.to_le_bytes()).unwrap(),
                Bytes::from(vec![i as u8; 32])
            );
        }
        // 200 uniformly hashed keys must spread across many shards, each
        // a two-level hex directory.
        assert!(s.shard_count() > 32, "only {} shards", s.shard_count());
        let top_dirs = std::fs::read_dir(&dir).unwrap().count();
        assert!(top_dirs > 4, "no first-level fan: {top_dirs}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_restores_all_shards() {
        let dir = tmp("reopen");
        {
            let s = FannedLogStore::open(&dir).unwrap();
            for i in 0..100u32 {
                s.put(&i.to_le_bytes(), Bytes::from(vec![7u8; 16])).unwrap();
            }
            for i in 0..10u32 {
                s.delete(&i.to_le_bytes()).unwrap();
            }
        }
        let s = FannedLogStore::open(&dir).unwrap();
        assert_eq!(s.len(), 90);
        assert!(s.get(&5u32.to_le_bytes()).is_err());
        assert_eq!(s.get(&50u32.to_le_bytes()).unwrap().len(), 16);
        let mut keys = s.keys();
        keys.sort();
        assert_eq!(keys.len(), 90);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_aggregate_across_shards() {
        let dir = tmp("metrics");
        let s = FannedLogStore::open(&dir).unwrap();
        s.put(b"a", Bytes::from_static(b"1234")).unwrap();
        s.put(b"b", Bytes::from_static(b"5678")).unwrap();
        let _ = s.get(b"a");
        let _ = s.get(b"missing");
        let m = s.metrics_snapshot().unwrap();
        assert_eq!(m.puts, 2);
        assert_eq!(m.gets, 1);
        assert_eq!(m.misses, 1);
        assert_eq!(m.bytes_read, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
