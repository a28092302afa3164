//! The provider's tensor store: whole records, or the content-addressed
//! chunk substrate. The choice is made once, by [`Substrate::open`], from
//! the deployment's [`StorePolicy`]; everything after asks
//! [`Substrate::chunked`] rather than the policy.

use std::path::Path;

use bytes::Bytes;
use evostore_kv::{
    ChunkedStore, FannedLogStore, KvBackend, KvError, LogStore, MemPoolStore, MetricsSnapshot,
    TieredStore, DEFAULT_CHUNK_SIZE,
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
    /// A persistent store lives under `dir/provider-<index>/tensors`: one
    /// flat log for whole records, the fanned hash-directory layout under
    /// chunking (chunk keys are content hashes, so fan-out by key byte is
    /// uniform).
    pub(crate) fn open(
        policy: StorePolicy,
        backend: &BackendKind,
        index: usize,
    ) -> Result<Substrate, String> {
        let log = |dir: &Path| -> Result<Box<dyn KvBackend>, String> {
            let dir = dir.join(format!("provider-{index}/tensors"));
            let err = |e| format!("open provider {index} tensor store: {e}");
            Ok(match policy {
                StorePolicy::Whole => Box::new(LogStore::open(dir).map_err(err)?),
                StorePolicy::ChunkedWithDelta => Box::new(FannedLogStore::open(dir).map_err(err)?),
            })
        };
        let physical: Box<dyn KvBackend> = match backend {
            BackendKind::Memory => Box::new(MemPoolStore::new()),
            BackendKind::Log { dir } => log(dir)?,
            BackendKind::Tiered { dir, memory_budget } => {
                Box::new(TieredStore::new(log(dir)?, *memory_budget))
            }
        };
        Ok(match policy {
            StorePolicy::Whole => Substrate::Whole(physical),
            StorePolicy::ChunkedWithDelta => Substrate::Chunked(
                ChunkedStore::open(physical, DEFAULT_CHUNK_SIZE)
                    .map_err(|e| format!("open content-addressed chunk layer: {e}"))?,
            ),
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
    fn keys(&self) -> Vec<Vec<u8>> {
        self.kv().keys()
    }
    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        self.kv().for_each_key(f)
    }
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.kv().metrics_snapshot()
    }
}
