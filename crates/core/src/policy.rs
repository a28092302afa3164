//! Typed deployment policies.
//!
//! [`StorePolicy`] says how [`DeploymentConfig`] persists tensor
//! payloads. It has exactly two settings: whole records (the default,
//! the paper's layout), or the full substrate — content-addressed chunks
//! at [`DEFAULT_CHUNK_SIZE`] ([`evostore_kv::ChunkedStore`]) with derived
//! models delta-encoded against their parent's tensors
//! ([`evostore_tensor::encode_delta`]). Repair picks its transfer leg
//! from the same setting.
//!
//! [`DeploymentConfig`]: crate::deployment::DeploymentConfig
//! [`DEFAULT_CHUNK_SIZE`]: evostore_kv::DEFAULT_CHUNK_SIZE

/// Physical tensor-storage policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorePolicy {
    /// One KV value per tensor record, no deltas. Repair ships
    /// materialized records.
    #[default]
    Whole,
    /// Fixed-size chunks keyed by 128-bit content hash, deduplicated and
    /// reference-counted across all records (persistent backends switch
    /// to the fanned two-level directory layout,
    /// [`evostore_kv::FannedLogStore`]); a derived model's records are
    /// delta-encoded against the parent's co-located tensors when that
    /// saves space. Repair negotiates chunks and ships deltas as stored.
    ChunkedWithDelta {
        /// Longest delta chain a stored record may sit on. A store whose
        /// base is already this deep falls back to raw bytes, bounding
        /// reconstruction cost; maintenance re-basing
        /// ([`crate::deployment::Deployment::compact_deltas`]) flattens
        /// chains below any chosen bound.
        max_chain_depth: u8,
    },
}

impl StorePolicy {
    /// Whole records, no deltas.
    pub fn whole() -> StorePolicy {
        StorePolicy::Whole
    }

    /// The full substrate, chains bounded at depth 3.
    pub fn chunked_with_delta() -> StorePolicy {
        StorePolicy::ChunkedWithDelta { max_chain_depth: 3 }
    }

    /// The delta chain bound; `None` for whole records, which store no
    /// deltas.
    pub fn max_chain_depth(self) -> Option<u8> {
        match self {
            StorePolicy::Whole => None,
            StorePolicy::ChunkedWithDelta { max_chain_depth } => Some(max_chain_depth),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_legacy_behavior() {
        assert_eq!(StorePolicy::default(), StorePolicy::whole());
        assert_eq!(StorePolicy::default().max_chain_depth(), None);
    }

    #[test]
    fn builders_compose() {
        assert_eq!(
            StorePolicy::chunked_with_delta(),
            StorePolicy::ChunkedWithDelta { max_chain_depth: 3 }
        );
        let deep = StorePolicy::ChunkedWithDelta { max_chain_depth: 5 };
        assert_eq!(deep.max_chain_depth(), Some(5));
    }
}
