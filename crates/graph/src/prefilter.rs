//! Per-architecture summaries the arch index precomputes so a query can
//! reject buckets without running the matcher on them.
//!
//! - **Cone hashes** ([`cone_hashes`]): `cone(v) = H(sig(v), sorted
//!   multiset of cone(p) for p ∈ preds(v))` — a hash of everything
//!   upstream of `v`. Algorithm 1 admits a query vertex only once it is
//!   bound to an ancestor vertex of equal signature whose in-edges are
//!   exactly the bindings of the query vertex's (all admitted)
//!   predecessors, so by induction along the prefix the two have equal
//!   cones; the binding is injective, hence
//!   `|lcp(g, a)| ≤ Σ_c min(mult_g(c), mult_a(c))` ([`cone_bound`]). A
//!   hash collision can only add to the sum: the bound loosens, it never
//!   undercuts — which is why 64 bits are enough here, where identity
//!   ([`CompactGraph::arch_signature`]) keeps 128.
//!
//! - **Layer-kind bitset** ([`kind_bits`]): one bit per [`LayerKind`]
//!   tag present anywhere in the graph. [`PatternFilter`] derives, per
//!   layer pattern of an [`ArchPattern`], a conservative mask of kinds a
//!   matching vertex *could* have; a bucket whose kind bitset misses a
//!   required mask entirely cannot match the pattern and is skipped
//!   without evaluating it.
//!
//! [`LayerKind`]: crate::layer::LayerKind

use evostore_tensor::{Fnv128, VertexId};

use crate::compact::CompactGraph;
use crate::pattern::{ArchPattern, LayerPattern};

/// A cone hash: the 128-bit FNV state folded to 64 bits.
pub type Cone = u64;

/// Cone hash of every vertex of `g`, indexed by vertex id (so entry 0 is
/// the root's). `g` must satisfy [`CompactGraph::validate`]: one pass in
/// topological order, each vertex hashed when its last predecessor is.
pub fn cone_hashes(g: &CompactGraph) -> Vec<Cone> {
    let n = g.len();
    // Predecessor cones of vertex v land in `slots[start[v]..][..in_degree(v)]`.
    let mut start = Vec::with_capacity(n);
    let mut total = 0usize;
    for v in g.vertex_ids() {
        start.push(total);
        total += g.in_degree(v) as usize;
    }
    let mut slots: Vec<Cone> = vec![0; total];
    let mut filled = vec![0u32; n];
    let mut cones: Vec<Cone> = vec![0; n];
    let mut ready: Vec<u32> = if n == 0 { Vec::new() } else { vec![0] };
    while let Some(u) = ready.pop() {
        let preds = &mut slots[start[u as usize]..][..filled[u as usize] as usize];
        preds.sort_unstable();
        let mut h = Fnv128::new();
        h.update(&g.sig(VertexId(u)).to_bytes());
        for p in preds.iter() {
            h.update_u64(*p);
        }
        let state = h.finish().0;
        let cone = (state >> 64) as u64 ^ state as u64;
        cones[u as usize] = cone;
        for &v in g.out(VertexId(u)) {
            let v = v as usize;
            slots[start[v] + filled[v] as usize] = cone;
            filled[v] += 1;
            if filled[v] == g.in_degree(VertexId(v as u32)) {
                ready.push(v as u32);
            }
        }
    }
    cones
}

/// Collapse per-vertex cones into the multiset `(cone, multiplicity)`,
/// sorted by cone.
pub fn cone_multiset(mut cones: Vec<Cone>) -> Vec<(Cone, u32)> {
    cones.sort_unstable();
    let mut counts: Vec<(Cone, u32)> = Vec::with_capacity(cones.len());
    for c in cones {
        match counts.last_mut() {
            Some((last, k)) if *last == c => *k += 1,
            _ => counts.push((c, 1)),
        }
    }
    counts
}

/// The cone multiset of `g`.
pub fn cone_counts(g: &CompactGraph) -> Vec<(Cone, u32)> {
    cone_multiset(cone_hashes(g))
}

/// `Σ_c min(mult_g(c), mult_a(c))` over two [`cone_counts`] lists: an
/// upper bound on the length of the LCP of the graphs they came from, in
/// either direction. What the index sums out of its postings.
pub fn cone_bound(g: &[(Cone, u32)], a: &[(Cone, u32)]) -> usize {
    let (mut i, mut j, mut bound) = (0, 0, 0usize);
    while i < g.len() && j < a.len() {
        match g[i].0.cmp(&a[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                bound += g[i].1.min(a[j].1) as usize;
                i += 1;
                j += 1;
            }
        }
    }
    bound
}

/// Bitset of [`LayerKind::tag`] values present anywhere in `g`.
///
/// [`LayerKind::tag`]: crate::layer::LayerKind::tag
pub fn kind_bits(g: &CompactGraph) -> u64 {
    let mut bits = 0u64;
    for v in g.vertex_ids() {
        bits |= 1u64 << g.vertex(v).config.kind.tag();
    }
    bits
}

/// Mask of kind-tag bits a vertex matching `p` could carry.
///
/// `u64::MAX` means "unconstrained" (any kind could match); `0` means
/// "no kind can match" (e.g. an unknown kind name), which correctly
/// rejects every bucket.
fn kind_mask(p: &LayerPattern) -> u64 {
    match p {
        LayerPattern::Any => u64::MAX,
        LayerPattern::Kind(name) => match tag_of_name(name) {
            Some(tag) => 1u64 << tag,
            None => 0,
        },
        LayerPattern::DenseUnits { .. } => 1u64 << 1, // Dense
        LayerPattern::AttentionHeads { .. } => 1u64 << 6, // Attention
        LayerPattern::Uses(_) => (1u64 << 1) | (1u64 << 7), // Dense | Act
        LayerPattern::AnyOf(ps) => ps.iter().fold(0, |m, p| m | kind_mask(p)),
        LayerPattern::AllOf(ps) => ps.iter().fold(u64::MAX, |m, p| m & kind_mask(p)),
    }
}

/// Inverse of [`LayerKind::name`] at the tag level.
fn tag_of_name(name: &str) -> Option<u8> {
    Some(match name {
        "input" => 0,
        "dense" => 1,
        "conv2d" => 2,
        "batch_norm" => 3,
        "layer_norm" => 4,
        "embedding" => 5,
        "attention" => 6,
        "activation" => 7,
        "dropout" => 8,
        "max_pool2d" => 9,
        "avg_pool2d" => 10,
        "flatten" => 11,
        "add" => 12,
        "concat" => 13,
        _ => return None,
    })
}

/// Conservative per-pattern kind requirements: a graph matching the
/// pattern must intersect every mask in `groups`.
#[derive(Debug, Clone)]
pub struct PatternFilter {
    groups: Vec<u64>,
}

impl PatternFilter {
    /// Derive the requirement masks of `p`. Unconstrained layer patterns
    /// (mask = all ones) contribute nothing.
    pub fn new(p: &ArchPattern) -> PatternFilter {
        let groups = p
            .require_layers
            .iter()
            .chain(p.sequence.iter())
            .map(kind_mask)
            .filter(|&m| m != u64::MAX)
            .collect();
        PatternFilter { groups }
    }

    /// Could a graph with this kind bitset match the pattern? `false`
    /// is definitive (the pattern cannot match); `true` is a maybe.
    pub fn admits(&self, kind_bits: u64) -> bool {
        self.groups.iter().all(|&m| kind_bits & m != 0)
    }

    /// Number of non-trivial requirement masks (for tests/stats).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when the filter imposes no constraint.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::flatten::flatten;
    use crate::generator::GenomeSpace;
    use crate::layer::{Activation, LayerConfig, LayerKind};
    use crate::lcp::lcp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn chain_model(kinds: &[LayerKind]) -> CompactGraph {
        let mut m = Architecture::new("m");
        let mut prev = m.add_layer(LayerConfig::new("l0", kinds[0].clone()));
        for (i, k) in kinds.iter().enumerate().skip(1) {
            prev = m.chain(prev, LayerConfig::new(format!("l{i}"), k.clone()));
        }
        flatten(&m).unwrap()
    }

    fn dense(units: u32) -> LayerKind {
        LayerKind::Dense {
            in_features: units,
            units,
            activation: Activation::ReLU,
        }
    }

    #[test]
    fn tag_of_name_inverts_every_kind_name() {
        let kinds = [
            LayerKind::Input { shape: vec![4] },
            dense(4),
            LayerKind::Conv2d {
                in_channels: 1,
                out_channels: 1,
                kernel: 3,
                stride: 1,
            },
            LayerKind::BatchNorm { features: 4 },
            LayerKind::LayerNorm { features: 4 },
            LayerKind::Embedding { vocab: 8, dim: 4 },
            LayerKind::Attention {
                embed_dim: 8,
                heads: 2,
            },
            LayerKind::Act {
                activation: Activation::ReLU,
            },
            LayerKind::Dropout { rate_milli: 100 },
            LayerKind::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            LayerKind::AvgPool2d {
                kernel: 2,
                stride: 2,
            },
            LayerKind::Flatten,
            LayerKind::Add,
            LayerKind::Concat { axis: 1 },
        ];
        for k in &kinds {
            assert_eq!(tag_of_name(k.name()), Some(k.tag()), "kind {:?}", k.name());
        }
        assert_eq!(tag_of_name("warp_drive"), None);
    }

    #[test]
    fn cones_hash_everything_upstream() {
        let a = chain_model(&[LayerKind::Input { shape: vec![4] }, dense(4), dense(8)]);
        let b = chain_model(&[LayerKind::Input { shape: vec![4] }, dense(5), dense(8)]);
        let (ca, cb) = (cone_hashes(&a), cone_hashes(&b));
        assert_eq!(ca[0], cb[0], "equal roots, equal cones");
        assert_ne!(ca[1], cb[1]);
        // Same signature downstream of a difference: a different cone.
        assert_eq!(a.sig(VertexId(2)), b.sig(VertexId(2)));
        assert_ne!(ca[2], cb[2]);
        assert_eq!(cone_counts(&a).len(), 3);
    }

    #[test]
    fn lcp_bound_is_sound_on_random_pairs() {
        // Differential check: the cone bound never undercuts the real LCP.
        let space = GenomeSpace::attn_like();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut tight = 0usize;
        for _ in 0..40 {
            let a = space.materialize(&space.sample(&mut rng));
            let base = space.sample(&mut rng);
            let b = space.materialize(&space.mutate(&base, &mut rng));
            let c = space.materialize(&base);
            let (ga, gb, gc) = (
                flatten(&a).unwrap(),
                flatten(&b).unwrap(),
                flatten(&c).unwrap(),
            );
            for (g, a) in [(&ga, &gb), (&gb, &gc), (&gc, &gb)] {
                let bound = cone_bound(&cone_counts(g), &cone_counts(a));
                let real = lcp(g, a).len();
                assert!(
                    bound >= real,
                    "bound {bound} undercuts real LCP {real} ({} vs {} vertices)",
                    g.len(),
                    a.len()
                );
                tight += (bound == real) as usize;
            }
        }
        assert!(tight > 0, "the bound was never tight");
    }

    #[test]
    fn lcp_bound_identity_is_tight_enough() {
        let g = chain_model(&[
            LayerKind::Input { shape: vec![4] },
            dense(4),
            dense(8),
            LayerKind::Flatten,
        ]);
        let counts = cone_counts(&g);
        // Against itself the bound is the whole graph...
        assert_eq!(cone_bound(&counts, &counts), g.len());
        // ...and against a graph sharing only the root it is the root.
        let other = chain_model(&[LayerKind::Input { shape: vec![4] }, dense(5)]);
        assert_eq!(cone_bound(&counts, &cone_counts(&other)), 1);
        assert_eq!(cone_bound(&counts, &[]), 0);
    }

    #[test]
    fn pattern_filter_is_conservative() {
        // Whenever the pattern matches the graph, the filter must admit
        // the graph's kind bitset (no false rejections).
        let g = chain_model(&[
            LayerKind::Input { shape: vec![16] },
            dense(16),
            LayerKind::LayerNorm { features: 16 },
            LayerKind::Attention {
                embed_dim: 16,
                heads: 4,
            },
            LayerKind::Add,
        ]);
        let bits = kind_bits(&g);
        let patterns = [
            ArchPattern::any(),
            ArchPattern::any().with_layer(LayerPattern::Kind("attention".into())),
            ArchPattern::any().with_layer(LayerPattern::DenseUnits { min: 1, max: 999 }),
            ArchPattern::any().with_layer(LayerPattern::Uses(Activation::ReLU)),
            ArchPattern::any().with_layer(LayerPattern::AnyOf(vec![
                LayerPattern::Kind("embedding".into()),
                LayerPattern::Kind("attention".into()),
            ])),
            ArchPattern::any().with_layer(LayerPattern::AllOf(vec![
                LayerPattern::Kind("dense".into()),
                LayerPattern::Uses(Activation::ReLU),
            ])),
            ArchPattern::any().with_sequence(vec![
                LayerPattern::Kind("layer_norm".into()),
                LayerPattern::Kind("attention".into()),
                LayerPattern::Kind("add".into()),
            ]),
        ];
        for p in &patterns {
            assert!(p.matches(&g), "pattern should match: {p:?}");
            assert!(
                PatternFilter::new(p).admits(bits),
                "filter must admit a matching graph: {p:?}"
            );
        }
    }

    #[test]
    fn pattern_filter_rejects_missing_kinds() {
        let g = chain_model(&[LayerKind::Input { shape: vec![16] }, dense(16)]);
        let bits = kind_bits(&g);
        let p = ArchPattern::any().with_layer(LayerPattern::Kind("attention".into()));
        assert!(!p.matches(&g));
        assert!(!PatternFilter::new(&p).admits(bits));
        // Unknown kind names can never match: reject everything.
        let q = ArchPattern::any().with_layer(LayerPattern::Kind("warp_drive".into()));
        assert!(!PatternFilter::new(&q).admits(bits));
        // Any alone imposes no constraint.
        let r = ArchPattern::any().with_layer(LayerPattern::Any);
        let f = PatternFilter::new(&r);
        assert!(f.is_empty() && f.admits(0));
    }
}
