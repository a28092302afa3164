//! Key-value storage backends for EvoStore providers.
//!
//! Each provider persists tensors and owner maps through "an extensible
//! key-value store abstraction (...) either in-memory \[or\] persistently
//! using underlying backends such as C++ synchronized memory pools or
//! RocksDB" (§4.3). This crate supplies the Rust equivalents:
//!
//! * [`MemPoolStore`] — a sharded, lock-synchronized in-memory pool (the
//!   backend used in all of the paper's experiments);
//! * [`LogStore`] — an append-only, crash-recoverable, compacting log
//!   store standing in for RocksDB;
//! * [`RefCountedStore`] — the reference-counting wrapper providers use
//!   for distributed garbage collection (§4.1): values survive exactly as
//!   long as some stored model still references them;
//! * [`ChunkedStore`] — the content-addressed chunking layer: values
//!   split into fixed-size chunks keyed by 128-bit content hash, so
//!   byte-identical chunks are stored once and reference counted;
//! * [`FannedLogStore`] — a [`LogStore`] fanned into a 16 x 16 hash
//!   directory tree, the on-disk layout for chunk-addressed data.
//!
//! A provider stores tensors in memory ([`MemPoolStore`]) or in a log
//! ([`LogStore`], fanned under chunking), whole or chunked: four physical
//! stacks. Providers hold a [`RefCountedStore`] over their tensor store
//! and call it directly; the chunk layer stays behind [`KvBackend`],
//! which has no chunk-level methods: chunk negotiation uses
//! [`ChunkedStore`]'s own.

pub mod api;
pub mod chunkstore;
pub mod fanned;
pub mod logstore;
pub mod mempool;
pub mod metrics;
pub mod refcount;

pub use api::{KvBackend, KvError};
pub use chunkstore::{ChunkStats, ChunkedStore, DEFAULT_CHUNK_SIZE};
pub use fanned::FannedLogStore;
pub use logstore::LogStore;
pub use mempool::MemPoolStore;
pub use metrics::{MetricsSnapshot, StoreMetrics};
pub use refcount::RefCountedStore;
