//! The one best-ancestor rule.
//!
//! A best-ancestor query is answered in four places: a provider's index
//! walk ([`crate::index::ArchIndex::best_ancestor`]), its unindexed full
//! scan (Fig 5's `--no-index`), the client's reduce over the providers'
//! answers, and the Redis baseline's central scan. Fig 5 races them
//! against each other, so they must all name the same winner. They share
//! what this module holds:
//!
//! * one candidate type, [`LcpCandidate`] — also the wire form of a
//!   provider's answer;
//! * one order, [`Rank::beats`]: the longer prefix wins; at equal length
//!   the higher quality; at equal quality the lower model id;
//! * one full scan per model, [`scan_lcp`], and its predicate twin for
//!   pattern queries, [`scan_pattern`]. These are the unindexed path, and
//!   the reference the index's unit tests hold it to.
//!
//! Qualities compare with `>` and `==`, so a NaN quality would never beat
//! another candidate nor tie one; none reaches a catalog, since the JSON
//! codec refuses to encode a NaN.

use evostore_tensor::ModelId;
use serde::{Deserialize, Serialize};

use crate::compact::CompactGraph;
use crate::lcp::{lcp, LcpResult};
use crate::pattern::ArchPattern;

/// A candidate ancestor: a model, its quality, and the LCP of the
/// queried graph against the model's architecture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LcpCandidate {
    /// The ancestor model.
    pub model: ModelId,
    /// Its quality metric (the first tie-break).
    pub quality: f64,
    /// The LCP of the queried graph against this ancestor.
    pub lcp: LcpResult,
}

impl LcpCandidate {
    /// This candidate's place in the order.
    #[inline]
    pub fn rank(&self) -> Rank {
        Rank {
            len: self.lcp.len(),
            quality: self.quality,
            model: self.model,
        }
    }
}

/// A candidate's place in the order, without its `LcpResult`. The index
/// walk compares ranks before it has run `lcp()`: a bucket's best member
/// at its bound against the best candidate so far.
#[derive(Debug, Clone, Copy)]
pub struct Rank {
    /// Prefix length.
    pub len: usize,
    /// Quality metric.
    pub quality: f64,
    /// Model id.
    pub model: ModelId,
}

impl Rank {
    /// Does `self` rank above `other`: a longer prefix, or an equal one
    /// with a higher quality, or both equal with a lower model id?
    #[inline]
    pub fn beats(self, other: Rank) -> bool {
        self.len > other.len
            || (self.len == other.len
                && (self.quality > other.quality
                    || (self.quality == other.quality && self.model < other.model)))
    }
}

/// The best of `candidates` under the order. Of two equal ranks (one
/// model answered by two replicas) the earlier is kept.
pub fn best_of(candidates: impl IntoIterator<Item = LcpCandidate>) -> Option<LcpCandidate> {
    candidates
        .into_iter()
        .reduce(|best, c| if c.rank().beats(best.rank()) { c } else { best })
}

/// The full scan: Algorithm 1 against every `(model, graph, quality)` of
/// a catalog, and the best candidate under the order. `None` when no
/// graph shares `g`'s root.
pub fn scan_lcp<'a>(
    g: &CompactGraph,
    catalog: impl IntoIterator<Item = (ModelId, &'a CompactGraph, f64)>,
) -> Option<LcpCandidate> {
    best_of(catalog.into_iter().filter_map(|(model, a, quality)| {
        let lcp = lcp(g, a);
        (!lcp.is_empty()).then_some(LcpCandidate {
            model,
            quality,
            lcp,
        })
    }))
}

/// The full scan's twin for pattern queries: every `(model, quality)` of
/// a catalog whose graph matches `pattern`, sorted by model id.
pub fn scan_pattern<'a>(
    pattern: &ArchPattern,
    catalog: impl IntoIterator<Item = (ModelId, &'a CompactGraph, f64)>,
) -> Vec<(ModelId, f64)> {
    let mut matches: Vec<(ModelId, f64)> = catalog
        .into_iter()
        .filter(|(_, g, _)| pattern.matches(g))
        .map(|(model, _, quality)| (model, quality))
        .collect();
    matches.sort_by_key(|&(model, _)| model);
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::flatten::flatten;
    use crate::layer::{Activation, LayerConfig, LayerKind};

    fn seq(units: &[u32]) -> CompactGraph {
        let mut a = Architecture::new("seq");
        let mut prev = a.add_layer(LayerConfig::new(
            "in",
            LayerKind::Input {
                shape: vec![units[0]],
            },
        ));
        for w in units.windows(2) {
            let dense = LayerKind::Dense {
                in_features: w[0],
                units: w[1],
                activation: Activation::ReLU,
            };
            prev = a.chain(prev, LayerConfig::new("d", dense));
        }
        flatten(&a).unwrap()
    }

    fn rank(len: usize, quality: f64, model: u64) -> Rank {
        Rank {
            len,
            quality,
            model: ModelId(model),
        }
    }

    #[test]
    fn the_order_is_length_then_quality_then_lower_id() {
        assert!(rank(3, 0.1, 9).beats(rank(2, 0.9, 1)));
        assert!(rank(2, 0.9, 9).beats(rank(2, 0.5, 1)));
        assert!(rank(2, 0.5, 1).beats(rank(2, 0.5, 9)));
        // Irreflexive, so a rank never displaces itself.
        assert!(!rank(2, 0.5, 1).beats(rank(2, 0.5, 1)));
        // A NaN quality neither wins nor ties.
        assert!(!rank(2, f64::NAN, 1).beats(rank(2, 0.5, 9)));
        assert!(!rank(2, 0.5, 9).beats(rank(2, f64::NAN, 1)));
    }

    /// Longest prefix, then quality, then the lower id, whatever order
    /// the catalog is walked in.
    #[test]
    fn best_ancestor_picks_longest_then_score() {
        let g = seq(&[4, 8, 8, 2]);
        let a_short = seq(&[4, 8, 9, 2]); // LCP 2
        let a_long = seq(&[4, 8, 8, 3]); // LCP 3
        let a_long2 = seq(&[4, 8, 8, 5]); // LCP 3, higher quality
        let catalog = [
            (ModelId(1), &a_short, 0.9),
            (ModelId(2), &a_long, 0.5),
            (ModelId(3), &a_long2, 0.8),
        ];
        let got = scan_lcp(&g, catalog).unwrap();
        assert_eq!(
            (got.model, got.quality, got.lcp.len()),
            (ModelId(3), 0.8, 3)
        );
        // Equal length and quality: the lower id wins in either order.
        let tied = [(ModelId(7), &a_long, 0.8), (ModelId(4), &a_long2, 0.8)];
        assert_eq!(scan_lcp(&g, tied).unwrap().model, ModelId(4));
        let tied = [(ModelId(4), &a_long2, 0.8), (ModelId(7), &a_long, 0.8)];
        assert_eq!(scan_lcp(&g, tied).unwrap().model, ModelId(4));
    }

    #[test]
    fn best_ancestor_none_when_nothing_matches() {
        let g = seq(&[4, 8]);
        let a = seq(&[5, 8]);
        assert!(scan_lcp(&g, [(ModelId(1), &a, 1.0)]).is_none());
        assert!(best_of([]).is_none());
    }
}
