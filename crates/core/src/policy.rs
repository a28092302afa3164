//! Typed deployment policies.
//!
//! [`StorePolicy`] says how [`DeploymentConfig`] persists tensor
//! payloads: whole records vs content-addressed chunks
//! ([`evostore_kv::ChunkedStore`]), and whether derived models are
//! delta-encoded against their parent's tensors
//! ([`evostore_tensor::encode_delta`]). Its `Default` is whole records
//! with no deltas.
//!
//! [`DeploymentConfig`]: crate::deployment::DeploymentConfig

use evostore_kv::DEFAULT_CHUNK_SIZE;

/// How tensor payloads map onto the provider's KV backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkingPolicy {
    /// One KV value per tensor record (the original layout).
    #[default]
    Whole,
    /// Fixed-size chunks keyed by 128-bit content hash, deduplicated
    /// and reference-counted across all records
    /// ([`evostore_kv::ChunkedStore`]). Persistent backends switch to
    /// the fanned two-level directory layout
    /// ([`evostore_kv::FannedLogStore`]).
    Chunked {
        /// Chunk size in bytes (> 0).
        chunk_size: usize,
    },
}

impl ChunkingPolicy {
    /// Content-addressed chunking at the default chunk size (64 KiB).
    pub fn chunked() -> ChunkingPolicy {
        ChunkingPolicy::Chunked {
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

/// Whether and how deeply derived models are delta-encoded against
/// their parent's tensors at store time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaPolicy {
    /// Try a float-aware delta (XOR + byte-transpose + run-length)
    /// against the parent's co-located tensor when storing a derived
    /// model; keep it only when it actually saves space.
    pub enabled: bool,
    /// Longest delta chain a stored record may sit on. A store whose
    /// base is already `max_chain_depth` deep falls back to raw bytes,
    /// bounding reconstruction cost; maintenance re-basing
    /// ([`crate::deployment::Deployment::compact_deltas`]) flattens
    /// chains below any chosen bound.
    pub max_chain_depth: u8,
}

impl Default for DeltaPolicy {
    fn default() -> DeltaPolicy {
        DeltaPolicy {
            enabled: false,
            max_chain_depth: 3,
        }
    }
}

impl DeltaPolicy {
    /// Delta encoding on, with the default chain bound.
    pub fn enabled() -> DeltaPolicy {
        DeltaPolicy {
            enabled: true,
            ..DeltaPolicy::default()
        }
    }
}

/// Physical tensor-storage policy: chunking layout + delta encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorePolicy {
    /// Payload layout on the KV backend.
    pub chunking: ChunkingPolicy,
    /// Parent-delta encoding of derived models.
    pub delta: DeltaPolicy,
}

impl StorePolicy {
    /// The pre-policy behavior: whole records, no deltas.
    pub fn whole() -> StorePolicy {
        StorePolicy::default()
    }

    /// Content-addressed chunking (default chunk size), no deltas.
    pub fn chunked() -> StorePolicy {
        StorePolicy {
            chunking: ChunkingPolicy::chunked(),
            ..StorePolicy::default()
        }
    }

    /// The full substrate: chunking + parent-delta encoding.
    pub fn chunked_with_delta() -> StorePolicy {
        StorePolicy {
            chunking: ChunkingPolicy::chunked(),
            delta: DeltaPolicy::enabled(),
        }
    }

    /// Override the delta chain bound.
    pub fn with_max_chain_depth(mut self, depth: u8) -> StorePolicy {
        self.delta.max_chain_depth = depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_legacy_behavior() {
        let p = StorePolicy::default();
        assert_eq!(p.chunking, ChunkingPolicy::Whole);
        assert!(!p.delta.enabled);
    }

    #[test]
    fn builders_compose() {
        let p = StorePolicy {
            chunking: ChunkingPolicy::Chunked { chunk_size: 1024 },
            ..StorePolicy::chunked_with_delta()
        }
        .with_max_chain_depth(5);
        assert_eq!(p.chunking, ChunkingPolicy::Chunked { chunk_size: 1024 });
        assert!(p.delta.enabled);
        assert_eq!(p.delta.max_chain_depth, 5);
        assert_eq!(
            StorePolicy::chunked().chunking,
            ChunkingPolicy::chunked(),
            "named constructor matches policy shorthand"
        );
    }
}
