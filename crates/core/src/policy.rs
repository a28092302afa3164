//! Typed deployment policies.
//!
//! [`StorePolicy`] says how [`DeploymentConfig`] persists tensor
//! payloads. It has exactly two settings: whole records (the default,
//! the paper's layout), or the full substrate — content-addressed chunks
//! at [`DEFAULT_CHUNK_SIZE`] ([`evostore_kv::ChunkedStore`]) with derived
//! models delta-encoded against their parent's tensors
//! ([`evostore_tensor::encode_delta`]) on chains at most
//! [`MAX_CHAIN_DEPTH`] deep. Repair picks its transfer leg from the same
//! setting.
//!
//! [`DeploymentConfig`]: crate::deployment::DeploymentConfig
//! [`DEFAULT_CHUNK_SIZE`]: evostore_kv::DEFAULT_CHUNK_SIZE

/// Longest delta chain a stored record may sit on. Both places that
/// write a delta hold it there: a store whose base is already this deep
/// stores raw bytes, and a sync refuses a shipped delta whose header
/// depth is not its base's local depth plus one (repair then ships the
/// record materialized).
pub const MAX_CHAIN_DEPTH: u8 = 3;

/// Physical tensor-storage policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorePolicy {
    /// One KV value per tensor record, no deltas. Repair ships
    /// materialized records.
    #[default]
    Whole,
    /// Fixed-size chunks keyed by 128-bit content hash, deduplicated and
    /// reference-counted across all records (a persistent backend keeps
    /// them in the provider's one tensor log, as it does whole records);
    /// a derived model's records are delta-encoded against the parent's
    /// co-located tensors when that saves space and the chain stays
    /// within [`MAX_CHAIN_DEPTH`]. Repair negotiates chunks and ships
    /// deltas as stored.
    ChunkedWithDelta,
}

impl StorePolicy {
    /// Whole records, no deltas.
    pub fn whole() -> StorePolicy {
        StorePolicy::Whole
    }

    /// The full substrate.
    pub fn chunked_with_delta() -> StorePolicy {
        StorePolicy::ChunkedWithDelta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_legacy_behavior() {
        assert_eq!(StorePolicy::default(), StorePolicy::whole());
    }

    #[test]
    fn builders_compose() {
        assert_eq!(StorePolicy::whole(), StorePolicy::Whole);
        assert_eq!(
            StorePolicy::chunked_with_delta(),
            StorePolicy::ChunkedWithDelta
        );
    }
}
