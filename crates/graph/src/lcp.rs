//! Longest-common-prefix (LCP) queries over compact graphs.
//!
//! The LCP between a new candidate `G` and an ancestor `A` is the paper's
//! best-match pattern for transfer learning (§2): the set of vertices `V`
//! such that `v ∈ V` iff (1) the layer choice of `v` is identical in both
//! graphs and (2) *all* vertices feeding `v` are also in `V`. Transferring
//! and freezing exactly this prefix maximizes reuse while keeping training
//! semantics intact.
//!
//! [`lcp`] implements the paper's Algorithm 1: a frontier expansion from
//! the root with per-vertex visit counters; a vertex joins the prefix when
//! its counter reaches `max(in_degree_G, in_degree_A)`, i.e. when every
//! input has matched in both graphs. Worst case `O(min(|V_G|, |V_A|))`.
//!
//! [`lcp_fixpoint`] is a deliberately naive `O(V^2)` reference
//! implementation used for differential testing and for the ablation bench
//! (it re-derives the definition by fixpoint iteration).

use std::collections::VecDeque;

use evostore_tensor::VertexId;
use serde::{Deserialize, Serialize};

use crate::compact::CompactGraph;

/// Result of one LCP computation between a candidate graph `G` and one
/// ancestor `A`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LcpResult {
    /// Vertices of `G` in the longest common prefix, in discovery order.
    pub prefix: Vec<VertexId>,
    /// For each vertex of `G` (indexed by id): the matching vertex of `A`,
    /// if the vertex is in the prefix.
    pub match_in_ancestor: Vec<Option<VertexId>>,
}

impl LcpResult {
    /// Empty result sized for a graph with `n` vertices.
    pub fn empty(n: usize) -> LcpResult {
        LcpResult {
            prefix: Vec::new(),
            match_in_ancestor: vec![None; n],
        }
    }

    /// Prefix length (the quantity Algorithm 1 maximizes).
    #[inline]
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// True when no vertex matched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// Fraction of `G`'s vertices covered by the prefix.
    pub fn fraction_of(&self, g: &CompactGraph) -> f64 {
        if g.is_empty() {
            0.0
        } else {
            self.prefix.len() as f64 / g.len() as f64
        }
    }
}

/// Compute the longest common prefix of `g` against one ancestor `a`
/// (Algorithm 1 of the paper).
pub fn lcp(g: &CompactGraph, a: &CompactGraph) -> LcpResult {
    let n = g.len();
    let mut result = LcpResult::empty(n);
    if n == 0 || a.is_empty() {
        return result;
    }
    // Root must match (the recursion base case: "if the input layer
    // matches, it is included in V").
    if g.sig(g.root()) != a.sig(a.root()) {
        return result;
    }

    let mut visits = vec![0u32; n];
    let mut matched_a = vec![false; a.len()];
    let mut in_prefix = vec![false; n];

    result.match_in_ancestor[g.root().0 as usize] = Some(a.root());
    matched_a[a.root().0 as usize] = true;

    let mut frontier = VecDeque::new();
    frontier.push_back(g.root());

    while let Some(u) = frontier.pop_front() {
        if in_prefix[u.0 as usize] {
            continue;
        }
        in_prefix[u.0 as usize] = true;
        result.prefix.push(u);

        let au =
            result.match_in_ancestor[u.0 as usize].expect("frontier vertices always carry a match");

        for &v_raw in g.out(u) {
            let v = VertexId(v_raw);
            let vsig = g.sig(v);

            // Establish (or reuse) the tentative match of v in A.
            let av = match result.match_in_ancestor[v.0 as usize] {
                Some(av) => {
                    // v already matched; this G edge counts only if the
                    // corresponding A edge (au -> av) exists.
                    if !a.out(au).contains(&av.0) {
                        continue;
                    }
                    av
                }
                None => {
                    // Greedily bind v to the first signature-equal,
                    // still-unmatched out-neighbor of au in A (out-degrees
                    // are single digits: a scan beats any per-call index).
                    let Some(&av_raw) = a
                        .out(au)
                        .iter()
                        .find(|&&c| !matched_a[c as usize] && a.sig(VertexId(c)) == vsig)
                    else {
                        continue;
                    };
                    let av = VertexId(av_raw);
                    result.match_in_ancestor[v.0 as usize] = Some(av);
                    matched_a[av.0 as usize] = true;
                    av
                }
            };

            visits[v.0 as usize] += 1;
            let need = g.in_degree(v).max(a.in_degree(av));
            if visits[v.0 as usize] == need {
                frontier.push_back(v);
            }
        }
    }

    // Tentative matches that never completed are not part of the prefix:
    // clear them so `match_in_ancestor` is `Some` exactly on the prefix.
    for (v, in_p) in in_prefix.iter().enumerate() {
        if !in_p {
            result.match_in_ancestor[v] = None;
        }
    }
    result
}

/// Naive reference implementation: iterate the recursive definition to a
/// fixpoint. `O(V^2)` per pair; exists for differential testing and the
/// `lcp` ablation benchmark.
pub fn lcp_fixpoint(g: &CompactGraph, a: &CompactGraph) -> LcpResult {
    let n = g.len();
    let mut result = LcpResult::empty(n);
    if n == 0 || a.is_empty() || g.sig(g.root()) != a.sig(a.root()) {
        return result;
    }

    // Predecessor lists for both graphs.
    let preds = |graph: &CompactGraph| -> Vec<Vec<u32>> {
        let mut p = vec![Vec::new(); graph.len()];
        for (from, to) in graph.edge_list() {
            p[to as usize].push(from);
        }
        p
    };
    let g_preds = preds(g);
    let a_preds = preds(a);

    let mut matched: Vec<Option<VertexId>> = vec![None; n];
    let mut matched_a = vec![false; a.len()];
    matched[g.root().0 as usize] = Some(a.root());
    matched_a[a.root().0 as usize] = true;

    loop {
        let mut changed = false;
        'next_vertex: for v in g.vertex_ids() {
            if matched[v.0 as usize].is_some() {
                continue;
            }
            // All G-predecessors must already be matched.
            let gp = &g_preds[v.0 as usize];
            if gp.is_empty() || !gp.iter().all(|&p| matched[p as usize].is_some()) {
                continue;
            }
            // Candidate A vertices: same signature, unmatched, with
            // predecessor set exactly {match(p) : p in gp}.
            for av in a.vertex_ids() {
                if matched_a[av.0 as usize] || a.sig(av) != g.sig(v) {
                    continue;
                }
                let ap = &a_preds[av.0 as usize];
                if ap.len() != gp.len() {
                    continue;
                }
                let mapped: std::collections::HashSet<u32> =
                    gp.iter().map(|&p| matched[p as usize].unwrap().0).collect();
                let actual: std::collections::HashSet<u32> = ap.iter().copied().collect();
                if mapped == actual {
                    matched[v.0 as usize] = Some(av);
                    matched_a[av.0 as usize] = true;
                    changed = true;
                    continue 'next_vertex;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Emit in id order (discovery order is not defined for the fixpoint).
    for v in g.vertex_ids() {
        if matched[v.0 as usize].is_some() {
            result.prefix.push(v);
        }
    }
    result.match_in_ancestor = matched;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::flatten::flatten;
    use crate::layer::{Activation, LayerConfig, LayerKind};

    fn input(d: u32) -> LayerConfig {
        LayerConfig::new("in", LayerKind::Input { shape: vec![d] })
    }

    fn dense(name: &str, i: u32, u: u32) -> LayerConfig {
        LayerConfig::new(
            name,
            LayerKind::Dense {
                in_features: i,
                units: u,
                activation: Activation::ReLU,
            },
        )
    }

    fn seq(units: &[u32]) -> CompactGraph {
        let mut a = Architecture::new("seq");
        let mut prev = a.add_layer(input(units[0]));
        let mut inf = units[0];
        for (i, &u) in units.iter().enumerate().skip(1) {
            prev = a.chain(prev, dense(&format!("d{i}"), inf, u));
            inf = u;
        }
        flatten(&a).unwrap()
    }

    #[test]
    fn identical_graphs_full_prefix() {
        let g = seq(&[4, 8, 8, 2]);
        let r = lcp(&g, &g);
        assert_eq!(r.len(), g.len());
        // Self-match maps every vertex to itself.
        for v in g.vertex_ids() {
            assert_eq!(r.match_in_ancestor[v.0 as usize], Some(v));
        }
    }

    #[test]
    fn mismatched_root_empty_prefix() {
        let g = seq(&[4, 8]);
        let a = seq(&[5, 8]);
        assert!(lcp(&g, &a).is_empty());
    }

    #[test]
    fn sequential_prefix_stops_at_first_difference() {
        let g = seq(&[4, 8, 8, 2]);
        let a = seq(&[4, 8, 9, 2]); // differs at layer 2
        let r = lcp(&g, &a);
        assert_eq!(r.len(), 2); // input + first dense
                                // Nothing after the mismatch, even though dims re-align later
                                // would not matter here (d3 differs because in_features differ).
    }

    #[test]
    fn suffix_only_match_is_not_a_prefix() {
        // Same last layer, different first layer: prefix is empty beyond
        // the mismatch (prefix-closure).
        let g = seq(&[4, 8, 2]);
        let a = seq(&[4, 9, 2]);
        let r = lcp(&g, &a);
        assert_eq!(r.len(), 1); // only input
    }

    /// Figure 2 of the paper: parent vs grandparent share {1,2,3}; parent
    /// vs child share {1,2,3,4,5}.
    #[test]
    fn figure2_scenario() {
        // Layer vocabulary: li = dense layer with distinctive width i.
        let l = |name: &str, w: u32| dense(name, 4, w);

        // Grandparent: in -> l1 -> l2 -> l3 -> l4 -> l5
        // (we model the paper's branch structure linearly per side; the
        //  branch case is covered by `branching_join_requires_all_inputs`).
        let build = |widths: &[u32]| {
            let mut a = Architecture::new("m");
            let mut prev = a.add_layer(input(4));
            for (i, &w) in widths.iter().enumerate() {
                prev = a.chain(prev, l(&format!("l{i}"), w));
            }
            flatten(&a).unwrap()
        };

        let grandparent = build(&[10, 20, 30, 99, 98]);
        let parent = build(&[10, 20, 30, 40, 50]);
        let child = build(&[10, 20, 30, 40, 50, 60]);

        let gp = lcp(&parent, &grandparent);
        assert_eq!(gp.len(), 4); // input + {l1,l2,l3}

        let pc = lcp(&child, &parent);
        assert_eq!(pc.len(), 6); // input + {l1..l5}
    }

    #[test]
    fn branching_join_requires_all_inputs() {
        // G:  in -> a -> add ; in -> b -> add ; add -> out
        // A:  in -> a -> add ; in -> B'-> add ; add -> out   (b differs)
        // The add vertex must NOT enter the prefix: only one of its two
        // inputs matches.
        let build = |b_width: u32| {
            let mut m = Architecture::new("m");
            let i = m.add_layer(input(4));
            let a = m.chain(i, dense("a", 4, 7));
            let b = m.chain(i, dense("b", 4, b_width));
            let add = m.add_layer(LayerConfig::new("add", LayerKind::Add));
            m.connect(a, add);
            m.connect(b, add);
            let out = m.add_layer(dense("out", 7, 2));
            m.connect(add, out);
            flatten(&m).unwrap()
        };
        let g = build(9);
        let a = build(13);
        let r = lcp(&g, &a);
        // Prefix: input + matching branch "a" only.
        assert_eq!(r.len(), 2);
        let names: Vec<&str> = r
            .prefix
            .iter()
            .map(|&v| g.vertex(v).config.kind.name())
            .collect();
        assert!(names.contains(&"input"));
        assert!(!names.contains(&"add"));
    }

    #[test]
    fn join_enters_prefix_when_both_branches_match() {
        let build = || {
            let mut m = Architecture::new("m");
            let i = m.add_layer(input(4));
            let a = m.chain(i, dense("a", 4, 7));
            let b = m.chain(i, dense("b", 4, 9));
            let add = m.add_layer(LayerConfig::new("add", LayerKind::Add));
            m.connect(a, add);
            m.connect(b, add);
            flatten(&m).unwrap()
        };
        let g = build();
        let a = build();
        let r = lcp(&g, &a);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn in_degree_mismatch_blocks_vertex() {
        // G's add has 2 inputs; A's add has 3. Even with 2 matching
        // inputs, need = max(2,3) = 3 is unreachable.
        let build = |extra: bool| {
            let mut m = Architecture::new("m");
            let i = m.add_layer(input(4));
            let a = m.chain(i, dense("a", 4, 7));
            let b = m.chain(i, dense("b", 4, 9));
            let add = m.add_layer(LayerConfig::new("add", LayerKind::Add));
            m.connect(a, add);
            m.connect(b, add);
            if extra {
                let c = m.chain(i, dense("c", 4, 11));
                m.connect(c, add);
            }
            flatten(&m).unwrap()
        };
        let g = build(false);
        let a = build(true);
        let r = lcp(&g, &a);
        let add_in_prefix = r
            .prefix
            .iter()
            .any(|&v| g.vertex(v).config.kind.name() == "add");
        assert!(!add_in_prefix);
    }

    #[test]
    fn nested_submodel_partial_match_found_at_leaf_granularity() {
        // §4.2's motivating case: grandparent has submodel A = {3,4};
        // parent shares leaf 3 but not 4. Leaf-level LCP must still find
        // the partial match inside the submodel.
        let sub = |w2: u32| {
            let mut s = Architecture::new("A");
            let x = s.add_layer(dense("l3", 4, 33));
            s.chain(x, dense("l4", 33, w2));
            s
        };
        let build = |w2: u32| {
            let mut m = Architecture::new("m");
            let i = m.add_layer(input(4));
            let d = m.chain(i, dense("l2", 4, 4));
            let s = m.add_submodel(sub(w2));
            m.connect(d, s);
            flatten(&m).unwrap()
        };
        let g = build(44);
        let a = build(55); // differs inside the submodel, at l4 only
        let r = lcp(&g, &a);
        // input, l2, l3 match; l4 differs.
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn fixpoint_agrees_on_sequential() {
        let g = seq(&[4, 8, 8, 2, 7]);
        let a = seq(&[4, 8, 8, 3, 7]);
        let fast = lcp(&g, &a);
        let slow = lcp_fixpoint(&g, &a);
        let mut f: Vec<u32> = fast.prefix.iter().map(|v| v.0).collect();
        let mut s: Vec<u32> = slow.prefix.iter().map(|v| v.0).collect();
        f.sort_unstable();
        s.sort_unstable();
        assert_eq!(f, s);
    }

    /// Algorithm 1 as it was before the linear-scan binding: one
    /// `sig -> out-neighbours` map per ancestor vertex, rebuilt on every
    /// call. The reference `lcp_equals_sig_indexed_reference` compares
    /// against.
    fn lcp_sig_indexed(g: &CompactGraph, a: &CompactGraph) -> LcpResult {
        use std::collections::HashMap;
        let n = g.len();
        let mut result = LcpResult::empty(n);
        if n == 0 || a.is_empty() || g.sig(g.root()) != a.sig(a.root()) {
            return result;
        }
        let a_index: Vec<HashMap<_, Vec<u32>>> = a
            .vertex_ids()
            .map(|u| {
                let mut m: HashMap<_, Vec<u32>> = HashMap::new();
                for &v in a.out(u) {
                    m.entry(a.sig(VertexId(v))).or_default().push(v);
                }
                m
            })
            .collect();
        let mut visits = vec![0u32; n];
        let mut matched_a = vec![false; a.len()];
        let mut in_prefix = vec![false; n];
        result.match_in_ancestor[0] = Some(a.root());
        matched_a[0] = true;
        let mut frontier = VecDeque::from([g.root()]);
        while let Some(u) = frontier.pop_front() {
            if std::mem::replace(&mut in_prefix[u.0 as usize], true) {
                continue;
            }
            result.prefix.push(u);
            let au = result.match_in_ancestor[u.0 as usize].unwrap();
            for &v_raw in g.out(u) {
                let v = VertexId(v_raw);
                let av = match result.match_in_ancestor[v.0 as usize] {
                    Some(av) if a.out(au).contains(&av.0) => av,
                    Some(_) => continue,
                    None => {
                        let free = a_index[au.0 as usize]
                            .get(&g.sig(v))
                            .and_then(|cands| cands.iter().find(|&&c| !matched_a[c as usize]));
                        let Some(&av_raw) = free else { continue };
                        result.match_in_ancestor[v.0 as usize] = Some(VertexId(av_raw));
                        matched_a[av_raw as usize] = true;
                        VertexId(av_raw)
                    }
                };
                visits[v.0 as usize] += 1;
                if visits[v.0 as usize] == g.in_degree(v).max(a.in_degree(av)) {
                    frontier.push_back(v);
                }
            }
        }
        for (v, in_p) in in_prefix.iter().enumerate() {
            if !in_p {
                result.match_in_ancestor[v] = None;
            }
        }
        result
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The linear-scan binding visits candidates in the order the
        /// per-vertex signature map did, so the whole `LcpResult` — prefix
        /// order and every binding — is unchanged, on related graphs
        /// (branches, joins, nested submodels) and on unrelated ones.
        #[test]
        fn lcp_equals_sig_indexed_reference(
            seed in proptest::prelude::any::<u64>(),
            mseed in proptest::prelude::any::<u64>(),
            steps in 0usize..5,
        ) {
            use rand::SeedableRng;
            let space = crate::generator::GenomeSpace::attn_like();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let parent = space.sample(&mut rng);
            let other = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
            let mut mrng = rand_chacha::ChaCha8Rng::seed_from_u64(mseed);
            let mut child = parent.clone();
            for _ in 0..steps {
                child = space.mutate(&child, &mut mrng);
            }
            let a = flatten(&space.materialize(&parent)).unwrap();
            let g = flatten(&space.materialize(&child)).unwrap();
            for (x, y) in [(&g, &a), (&a, &g), (&g, &other), (&other, &a)] {
                proptest::prop_assert_eq!(lcp(x, y), lcp_sig_indexed(x, y));
            }
        }
    }

    #[test]
    fn prefix_is_closed_under_predecessors() {
        let g = seq(&[4, 8, 8, 2]);
        let a = seq(&[4, 8, 8, 9]);
        let r = lcp(&g, &a);
        let inset: std::collections::HashSet<u32> = r.prefix.iter().map(|v| v.0).collect();
        for (from, to) in g.edge_list() {
            if inset.contains(&to) {
                assert!(inset.contains(&from), "prefix not predecessor-closed");
            }
        }
    }
}
