//! Replicated tensor placement.
//!
//! The paper places every model on exactly one provider by static
//! hashing ([`ModelId::provider_for`]), which makes each provider a
//! single point of failure. This module generalizes placement to a
//! *successor chain* over the same hash ring: a model's replica set is
//! the `min(R, n)` distinct providers starting at its hash slot and
//! walking the ring forward. The chain is a pure function of
//! `(model, n, R)` — no membership state, no directory — so clients,
//! providers and the repair pass all derive identical replica sets
//! independently.
//!
//! `factor = 1` degenerates to the paper's placement exactly: the chain
//! is `[provider_for(model)]` and every path through the system behaves
//! as before.

use evostore_tensor::ModelId;

/// How many copies of every model (metadata + self-owned tensors) the
/// deployment keeps, and on which providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPolicy {
    /// Desired copies per model. Clamped to the deployment size at use:
    /// a 2-provider deployment under `factor = 3` keeps 2 copies.
    pub factor: usize,
}

impl Default for ReplicationPolicy {
    /// Unreplicated — the paper's placement.
    fn default() -> Self {
        ReplicationPolicy { factor: 1 }
    }
}

impl ReplicationPolicy {
    /// Policy with the given factor (clamped to ≥ 1).
    pub fn new(factor: usize) -> ReplicationPolicy {
        ReplicationPolicy {
            factor: factor.max(1),
        }
    }

    /// Effective copies kept in an `n`-provider deployment.
    pub fn effective_factor(&self, n: usize) -> usize {
        self.factor.clamp(1, n.max(1))
    }

    /// The replica chain of `model` in an `n`-provider deployment:
    /// provider indices, primary first, then ring successors. Always
    /// `min(factor, n)` *distinct* indices.
    pub fn replicas(&self, model: ModelId, n: usize) -> Vec<usize> {
        self.chain(model.provider_for(n), n)
    }

    /// The replica chain rooted at hash slot `primary`.
    pub fn chain(&self, primary: usize, n: usize) -> Vec<usize> {
        (0..self.effective_factor(n))
            .map(|i| (primary + i) % n)
            .collect()
    }

    /// Does provider `index` hold a replica of `model`?
    pub fn is_replica(&self, model: ModelId, n: usize, index: usize) -> bool {
        let primary = model.provider_for(n);
        // Ring distance from the primary to `index`.
        let dist = (index + n - primary) % n;
        dist < self.effective_factor(n)
    }

    /// Is every replica chain still reachable when the providers in
    /// `down` (indices) are not?
    ///
    /// A chain is lost only when *all* of its members are down, i.e.
    /// when some cyclic run of `min(factor, n)` consecutive providers is
    /// entirely down. Query collectives use this to decide whether a
    /// broadcast with unreachable providers still achieved full logical
    /// coverage: every model's catalog entry was served by at least one
    /// live replica.
    pub fn fully_covers(&self, n: usize, down: &[usize]) -> bool {
        let r = self.effective_factor(n);
        let is_down = |i: usize| down.contains(&(i % n));
        !(0..n).any(|primary| (0..r).all(|j| is_down(primary + j)))
    }
}

/// Which of two copies of one record is the newer incarnation: the one
/// whose `incarnation` is greater — the later write stamp, then, at equal
/// stamps, more attached optimizer state (attaching it does not bump the
/// stamp, so a replica that missed only the attachment is stale at a
/// matching one). The census, repair's staleness check and a sync's
/// install all order copies by it.
pub(crate) fn incarnation<T>(timestamp: u64, optimizer_keys: &[T]) -> (u64, usize) {
    (timestamp, optimizer_keys.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_one_matches_static_hashing() {
        let p = ReplicationPolicy::default();
        for id in 0..200u64 {
            let m = ModelId(id);
            assert_eq!(p.replicas(m, 7), vec![m.provider_for(7)]);
        }
    }

    #[test]
    fn chains_are_distinct_successors() {
        let p = ReplicationPolicy::new(3);
        let m = ModelId(42);
        let chain = p.replicas(m, 5);
        assert_eq!(chain.len(), 3);
        let primary = m.provider_for(5);
        assert_eq!(chain[0], primary);
        assert_eq!(chain[1], (primary + 1) % 5);
        assert_eq!(chain[2], (primary + 2) % 5);
        let distinct: std::collections::HashSet<_> = chain.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn factor_clamps_to_deployment_size() {
        let p = ReplicationPolicy::new(5);
        let chain = p.replicas(ModelId(9), 3);
        assert_eq!(chain.len(), 3, "factor clamps to n");
        let distinct: std::collections::HashSet<_> = chain.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn is_replica_agrees_with_chain() {
        for factor in 1..=4 {
            let p = ReplicationPolicy::new(factor);
            for id in 0..100u64 {
                let m = ModelId(id);
                let chain = p.replicas(m, 6);
                for idx in 0..6 {
                    assert_eq!(
                        p.is_replica(m, 6, idx),
                        chain.contains(&idx),
                        "factor={factor} model={id} idx={idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn coverage_requires_one_live_replica_per_chain() {
        let p = ReplicationPolicy::new(2);
        // One provider down: every 2-chain still has a live member.
        assert!(p.fully_covers(4, &[1]));
        // Two adjacent providers down: the chain rooted at the first of
        // them is entirely down.
        assert!(!p.fully_covers(4, &[1, 2]));
        // Two non-adjacent downs keep every adjacent pair half-alive.
        assert!(p.fully_covers(4, &[0, 2]));
        // Wrap-around adjacency counts too.
        assert!(!p.fully_covers(4, &[3, 0]));
        // Unreplicated: any down provider loses its chain.
        assert!(!ReplicationPolicy::default().fully_covers(4, &[2]));
        assert!(ReplicationPolicy::default().fully_covers(4, &[]));
    }
}
