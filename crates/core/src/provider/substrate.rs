//! The provider's tensor store: whole records, or the content-addressed
//! chunk substrate. The choice is made once, by [`Substrate::open`], from
//! the deployment's [`StorePolicy`]; everything after asks
//! [`Substrate::chunked`] rather than the policy.

use bytes::Bytes;
use evostore_kv::{
    ChunkedStore, KvBackend, KvError, LogStore, MemPoolStore, MetricsSnapshot, DEFAULT_CHUNK_SIZE,
};

use crate::deployment::BackendKind;
use crate::policy::StorePolicy;

/// A provider's tensor store, by physical layout.
pub enum Substrate {
    /// One value per tensor record ([`StorePolicy::Whole`]).
    Whole(Box<dyn KvBackend>),
    /// Records as deduplicated 64 KiB chunks plus a manifest each
    /// ([`StorePolicy::ChunkedWithDelta`]).
    Chunked(ChunkedStore<Box<dyn KvBackend>>),
}

impl Substrate {
    /// Open provider `index`'s tensor store for `policy` over `backend`.
    /// A persistent store is one log under `dir/provider-<index>/tensors`,
    /// whole records or chunks alike. A directory holding the retired
    /// fanned layout (`<hex>/<hex>/` shard logs) is refused: opened as one
    /// log it would serve an empty store.
    pub(crate) fn open(
        policy: StorePolicy,
        backend: &BackendKind,
        index: usize,
    ) -> Result<Substrate, KvError> {
        let physical: Box<dyn KvBackend> = match backend {
            BackendKind::Memory => Box::new(MemPoolStore::new()),
            BackendKind::Log { dir } => {
                let dir = dir.join(format!("provider-{index}/tensors"));
                if (0..16u8).any(|shard| dir.join(format!("{shard:x}")).is_dir()) {
                    return Err(KvError::Corrupt {
                        detail: format!(
                            "{} holds tensor shards in the retired fanned layout \
                             (<hex>/<hex>/ logs), which this build does not read",
                            dir.display()
                        ),
                    });
                }
                Box::new(LogStore::open(dir)?)
            }
        };
        Ok(match policy {
            StorePolicy::Whole => Substrate::Whole(physical),
            StorePolicy::ChunkedWithDelta => {
                Substrate::Chunked(ChunkedStore::open(physical, DEFAULT_CHUNK_SIZE)?)
            }
        })
    }

    /// The chunk store, when records are content-addressed: the one way
    /// to the chunk operations (probe, manifest, payload, manifest-level
    /// insert, occupancy).
    pub fn chunked(&self) -> Option<&ChunkedStore<Box<dyn KvBackend>>> {
        match self {
            Substrate::Whole(_) => None,
            Substrate::Chunked(chunks) => Some(chunks),
        }
    }

    fn kv(&self) -> &dyn KvBackend {
        match self {
            Substrate::Whole(whole) => whole.as_ref(),
            Substrate::Chunked(chunks) => chunks,
        }
    }
}

impl KvBackend for Substrate {
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        self.kv().put(key, value)
    }
    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        self.kv().get(key)
    }
    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<(), KvError> {
        self.kv().get_into(key, out)
    }
    fn put_segments(&self, key: &[u8], segments: Vec<Bytes>) -> Result<(), KvError> {
        self.kv().put_segments(key, segments)
    }
    fn get_resident(&self, key: &[u8]) -> Option<Vec<Bytes>> {
        self.kv().get_resident(key)
    }
    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        self.kv().delete(key)
    }
    fn contains(&self, key: &[u8]) -> bool {
        self.kv().contains(key)
    }
    fn len(&self) -> usize {
        self.kv().len()
    }
    fn bytes_used(&self) -> usize {
        self.kv().bytes_used()
    }
    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        self.kv().for_each_key(f)
    }
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.kv().metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tensors written in the fanned layout (`<hex>/<hex>/` shard logs
    /// under the tensor directory) are refused with the directory's name,
    /// under either policy, and left as they are; another provider's
    /// store in the same deployment directory still opens.
    #[test]
    fn the_retired_fanned_layout_is_refused_by_name() {
        let root = std::env::temp_dir().join(format!("evostore-fanned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let tensors = root.join("provider-1/tensors");
        let segment = tensors.join("a/7/seg-00000000.log");
        std::fs::create_dir_all(segment.parent().unwrap()).unwrap();
        std::fs::write(&segment, b"chunk bytes").unwrap();
        let backend = BackendKind::Log { dir: root.clone() };
        for policy in [StorePolicy::whole(), StorePolicy::chunked_with_delta()] {
            match Substrate::open(policy, &backend, 1) {
                Err(KvError::Corrupt { detail }) => {
                    assert!(detail.contains(&tensors.display().to_string()), "{detail}");
                    assert!(detail.contains("fanned layout"), "{detail}");
                }
                Err(other) => panic!("{policy:?}: expected a layout error, got {other}"),
                Ok(_) => panic!("{policy:?}: the fanned layout opened as an empty store"),
            }
        }
        assert_eq!(std::fs::read(&segment).unwrap(), b"chunk bytes");
        assert!(Substrate::open(StorePolicy::chunked_with_delta(), &backend, 0).is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }
}
