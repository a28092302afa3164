//! Property-based tests for flattening and LCP queries.

use evostore_graph::{flatten, lcp, lcp_fixpoint, Genome, GenomeSpace};
use evostore_tensor::VertexId;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sample a genome (and its space) from a seed.
fn genome_from_seed(seed: u64) -> (GenomeSpace, Genome) {
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = space.sample(&mut rng);
    (space, g)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sampled genome flattens; the result is rooted at the input
    /// layer, connected, and acyclic (topo order covers all vertices).
    #[test]
    fn flatten_invariants(seed in any::<u64>()) {
        let (space, g) = genome_from_seed(seed);
        let cg = flatten(&space.materialize(&g)).unwrap();
        prop_assert!(cg.len() >= 4);
        prop_assert_eq!(cg.vertex(cg.root()).config.kind.name(), "input");
        prop_assert_eq!(cg.in_degree(cg.root()), 0);
        prop_assert_eq!(cg.topo_order().len(), cg.len());
        prop_assert_eq!(cg.validate(), Ok(()));
        // leaf count preserved by flattening
        prop_assert_eq!(cg.len(), space.materialize(&g).leaf_count());
        // in_degree matches the edge relation
        let mut indeg = vec![0u32; cg.len()];
        for (_, to) in cg.edge_list() {
            indeg[to as usize] += 1;
        }
        for v in cg.vertex_ids() {
            prop_assert_eq!(cg.in_degree(v), indeg[v.0 as usize]);
        }
    }

    /// LCP of a graph with itself is the whole graph, mapped identically.
    #[test]
    fn lcp_reflexive(seed in any::<u64>()) {
        let (space, g) = genome_from_seed(seed);
        let cg = flatten(&space.materialize(&g)).unwrap();
        let r = lcp(&cg, &cg);
        prop_assert_eq!(r.len(), cg.len());
    }

    /// The prefix is always closed under predecessors, matched vertices
    /// have equal signatures and in-degrees, and the A-side matches are
    /// injective.
    #[test]
    fn lcp_structural_invariants(seed_a in any::<u64>(), steps in 0usize..6, mseed in any::<u64>()) {
        let (space, parent) = genome_from_seed(seed_a);
        let mut rng = ChaCha8Rng::seed_from_u64(mseed);
        let mut child = parent.clone();
        for _ in 0..steps {
            child = space.mutate(&child, &mut rng);
        }
        let g = flatten(&space.materialize(&child)).unwrap();
        let a = flatten(&space.materialize(&parent)).unwrap();
        let r = lcp(&g, &a);

        // Root always matches (same input layer for one space).
        prop_assert!(!r.is_empty());

        let inset: std::collections::HashSet<u32> = r.prefix.iter().map(|v| v.0).collect();
        for (from, to) in g.edge_list() {
            if inset.contains(&to) {
                prop_assert!(inset.contains(&from), "prefix not predecessor-closed");
            }
        }

        let mut used_a = std::collections::HashSet::new();
        for v in g.vertex_ids() {
            match r.match_in_ancestor[v.0 as usize] {
                Some(av) => {
                    prop_assert!(inset.contains(&v.0), "match outside prefix");
                    prop_assert_eq!(g.sig(v), a.sig(av), "matched sigs differ");
                    prop_assert_eq!(g.in_degree(v), a.in_degree(av), "matched in-degrees differ");
                    prop_assert!(used_a.insert(av.0), "A vertex matched twice");
                }
                None => prop_assert!(!inset.contains(&v.0), "prefix vertex without match"),
            }
        }
    }

    /// A single mutation keeps a prefix: the un-mutated stem cells stay
    /// transferable (LCP >= 2 means input + stem at minimum when the stem
    /// was not the mutated position — we only require >= 1 universally).
    #[test]
    fn lcp_after_mutation_nonempty(seed in any::<u64>(), mseed in any::<u64>()) {
        let (space, parent) = genome_from_seed(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(mseed);
        let child = space.mutate(&parent, &mut rng);
        let g = flatten(&space.materialize(&child)).unwrap();
        let a = flatten(&space.materialize(&parent)).unwrap();
        prop_assert!(!lcp(&g, &a).is_empty());
    }

    /// Differential: the frontier algorithm (Algorithm 1) and the naive
    /// fixpoint compute prefixes of the same size on mutation families.
    ///
    /// (Sizes, not sets: with symmetric branches the greedy binding may
    /// choose different—equally valid—matchings.)
    #[test]
    fn lcp_matches_fixpoint(seed in any::<u64>(), mseed in any::<u64>()) {
        let (space, parent) = genome_from_seed(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(mseed);
        let child = space.mutate(&parent, &mut rng);
        let g = flatten(&space.materialize(&child)).unwrap();
        let a = flatten(&space.materialize(&parent)).unwrap();
        let fast = lcp(&g, &a);
        let slow = lcp_fixpoint(&g, &a);
        prop_assert_eq!(fast.len(), slow.len());
    }

    /// The cone bound the index prunes by never undercuts Algorithm 1, on
    /// lineages (branches, joins, nested submodels, in both directions)
    /// and on unrelated graphs.
    #[test]
    fn cone_bound_covers_lcp(seed in any::<u64>(), mseed in any::<u64>(), steps in 0usize..6) {
        use evostore_graph::prefilter::{cone_bound, cone_counts};
        let (space, parent) = genome_from_seed(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(mseed);
        let mut child = parent.clone();
        for _ in 0..steps {
            child = space.mutate(&child, &mut rng);
        }
        let a = flatten(&space.materialize(&parent)).unwrap();
        let g = flatten(&space.materialize(&child)).unwrap();
        let other = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
        for (x, y) in [(&g, &a), (&a, &g), (&g, &other), (&other, &a)] {
            let bound = cone_bound(&cone_counts(x), &cone_counts(y));
            prop_assert!(lcp(x, y).len() <= bound, "lcp {} above bound {bound}", lcp(x, y).len());
        }
        prop_assert_eq!(cone_bound(&cone_counts(&g), &cone_counts(&g)), g.len());
    }

    /// Serialization: compact graphs roundtrip through JSON with identical
    /// signatures (the catalog population path of §5.5).
    #[test]
    fn compact_graph_json_roundtrip(seed in any::<u64>()) {
        let (space, g) = genome_from_seed(seed);
        let cg = flatten(&space.materialize(&g)).unwrap();
        let back = evostore_graph::CompactGraph::from_json(&cg.to_json()).unwrap();
        prop_assert_eq!(back.arch_signature(), cg.arch_signature());
        prop_assert_eq!(back.len(), cg.len());
    }

    /// Prefix parameter bytes never exceed total parameter bytes, and the
    /// full-prefix case is exact.
    #[test]
    fn prefix_bytes_bounded(seed in any::<u64>()) {
        let (space, g) = genome_from_seed(seed);
        let cg = flatten(&space.materialize(&g)).unwrap();
        let r = lcp(&cg, &cg);
        prop_assert_eq!(cg.param_bytes_of(&r.prefix), cg.total_param_bytes());
        let half: Vec<VertexId> = r.prefix.iter().take(cg.len() / 2).copied().collect();
        prop_assert!(cg.param_bytes_of(&half) <= cg.total_param_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The empty pattern matches every generated architecture; vertex
    /// bounds behave as a filter; a sequence pattern constructed from an
    /// actual path of the graph always matches.
    #[test]
    fn pattern_queries_are_sound(seed in any::<u64>()) {
        use evostore_graph::{ArchPattern, LayerPattern};

        let (space, g) = genome_from_seed(seed);
        let cg = flatten(&space.materialize(&g)).unwrap();

        prop_assert!(ArchPattern::any().matches(&cg));
        prop_assert!(ArchPattern::any().with_vertices(1, cg.len()).matches(&cg));
        prop_assert!(!ArchPattern::any().with_vertices(cg.len() + 1, 0).matches(&cg));

        // Walk an actual path from the root and demand it as a sequence.
        let mut path = vec![cg.root()];
        let mut cur = cg.root();
        for _ in 0..3 {
            let Some(&next) = cg.out(cur).first() else { break };
            cur = VertexId(next);
            path.push(cur);
        }
        let seq: Vec<LayerPattern> = path
            .iter()
            .map(|&v| LayerPattern::Kind(cg.vertex(v).config.kind.name().to_string()))
            .collect();
        prop_assert!(ArchPattern::any().with_sequence(seq).matches(&cg));

        // A layer kind that never appears must not match.
        prop_assert!(!ArchPattern::any()
            .with_layer(LayerPattern::Kind("embedding".into()))
            .matches(&cg));
    }

    /// The indexed best-ancestor scan is observationally identical to the
    /// brute-force scan over the same catalog — same winning model, same
    /// quality, same full `LcpResult` — including under interleaved
    /// store/retire churn (removals mid-sequence, re-queries after each
    /// phase).
    #[test]
    fn arch_index_matches_brute_force(
        seed in any::<u64>(),
        mseed in any::<u64>(),
        family in 2usize..6,
        removals in prop::collection::vec(0usize..1_000_000, 0..4),
    ) {
        use std::sync::Arc;
        use evostore_graph::{ArchIndex, CompactGraph};
        use evostore_tensor::ModelId;

        // Mutation-family catalog: a few roots, each with derived
        // variants — exactly the structural near-duplicate population
        // the index dedups — plus duplicated architectures at distinct
        // qualities to exercise the in-bucket tie-break.
        let (space, parent) = genome_from_seed(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(mseed);
        let mut entries: Vec<(ModelId, Arc<CompactGraph>, f64)> = Vec::new();
        let mut next_id = 0u64;
        let mut genome = parent.clone();
        for f in 0..family {
            let cg = Arc::new(flatten(&space.materialize(&genome)).unwrap());
            // Two models per architecture, same and differing quality.
            for q in [0.5, 0.5 + (f as f64) * 0.07] {
                entries.push((ModelId(next_id), Arc::clone(&cg), q));
                next_id += 1;
            }
            genome = space.mutate(&genome, &mut rng);
        }
        let probe = flatten(&space.materialize(&genome)).unwrap();

        let brute = |entries: &[(ModelId, Arc<CompactGraph>, f64)], g: &CompactGraph| {
            entries
                .iter()
                .map(|(m, a, q)| (*m, *q, lcp(g, a)))
                .filter(|(_, _, r)| !r.is_empty())
                .max_by(|(ma, qa, ra), (mb, qb, rb)| {
                    ra.len()
                        .cmp(&rb.len())
                        .then(qa.partial_cmp(qb).unwrap_or(std::cmp::Ordering::Equal))
                        .then(mb.cmp(ma))
                })
        };

        let mut ix = ArchIndex::new();
        for (m, g, q) in &entries {
            ix.insert(*m, Arc::clone(g), *q);
        }

        let check = |ix: &ArchIndex, entries: &[(ModelId, Arc<CompactGraph>, f64)], g: &CompactGraph| {
            let (got, stats) = ix.best_ancestor(g);
            let want = brute(entries, g);
            match (got, want) {
                (None, None) => Ok(()),
                (Some(c), Some((m, q, r))) => {
                    if c.model == m && c.quality == q && c.lcp == r {
                        // Dedup accounting: work + skips covers the catalog.
                        let archs: std::collections::HashSet<u128> =
                            entries.iter().map(|(_, g, _)| g.arch_signature().0).collect();
                        if stats.scanned + stats.memo_hits + stats.pruned != archs.len() as u64 {
                            return Err(format!(
                                "stats don't cover the catalog: {stats:?} vs {} archs",
                                archs.len()
                            ));
                        }
                        Ok(())
                    } else {
                        Err(format!("winner mismatch: index ({:?}, {}), brute ({:?}, {})", c.model, c.quality, m, q))
                    }
                }
                (got, want) => Err(format!(
                    "presence mismatch: index {:?}, brute {:?}",
                    got.map(|c| c.model),
                    want.map(|w| w.0)
                )),
            }
        };

        check(&ix, &entries, &probe).map_err(TestCaseError::fail)?;
        // Query twice: the index is a value, a repeat changes nothing.
        check(&ix, &entries, &probe).map_err(TestCaseError::fail)?;

        // Interleave retirements with re-queries.
        for r in &removals {
            if entries.is_empty() {
                break;
            }
            let victim = r % entries.len();
            let (m, _, _) = entries.remove(victim);
            prop_assert!(ix.remove(m));
            check(&ix, &entries, &probe).map_err(TestCaseError::fail)?;
        }

        // Store a new model after the churn and re-query once more.
        let cg = Arc::new(flatten(&space.materialize(&space.mutate(&genome, &mut rng))).unwrap());
        entries.push((ModelId(next_id), Arc::clone(&cg), 0.9));
        ix.insert(ModelId(next_id), cg, 0.9);
        check(&ix, &entries, &probe).map_err(TestCaseError::fail)?;
        prop_assert_eq!(ix.len(), entries.len());
    }

    /// Structural diff partitions G's vertices and stats are consistent.
    #[test]
    fn diff_and_stats_consistent(seed in any::<u64>(), mseed in any::<u64>()) {
        use evostore_graph::{arch_stats, GraphDiff};

        let (space, parent) = genome_from_seed(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(mseed);
        let child = space.mutate(&parent, &mut rng);
        let g = flatten(&space.materialize(&child)).unwrap();
        let a = flatten(&space.materialize(&parent)).unwrap();
        let r = lcp(&g, &a);
        let d = GraphDiff::from_lcp(&g, &a, &r);
        prop_assert_eq!(d.shared.len() + d.added.len(), g.len());
        prop_assert_eq!(d.shared.len() + d.removed.len(), a.len());

        let s = arch_stats(&g);
        prop_assert_eq!(s.vertices, g.len());
        prop_assert_eq!(s.edges, g.edge_count());
        prop_assert!(s.depth >= 1 && s.depth <= g.len());
        prop_assert_eq!(s.param_bytes, g.total_param_bytes());
        prop_assert_eq!(s.kind_counts.values().sum::<usize>(), g.len());
    }
}
