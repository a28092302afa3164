//! Provider-level tests of the ancestor-query index: the indexed walk
//! must be observationally identical to the unindexed full-catalog scan
//! (same winner, same tie-breaks, same pattern matches) including under
//! store/retire churn; a retired architecture's postings must be gone
//! while an older pinned snapshot keeps answering as of its own epoch;
//! the dedup/pruning counters and posting gauges must surface through
//! provider stats and client telemetry; and a malformed graph off the
//! wire must come back as a handler error, not take the provider down.

use std::sync::Arc;

use bytes::Bytes;
use evostore_core::messages::{LcpBatchRequest, RetireMetaRequest, StoreModelRequest};
use evostore_core::provider::ProviderState;
use evostore_core::{methods, Deployment, EvoStoreClient, OwnerMap};
use evostore_graph::{
    flatten, layered_model, ArchPattern, CompactGraph, GenomeSpace, LayerPattern,
};
use evostore_rpc::{Method, RpcError};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Insert a metadata-only record on the provider `model` hashes to.
fn insert(states: &[Arc<ProviderState>], model: ModelId, g: &CompactGraph, quality: f64) {
    let p = model.provider_for(states.len());
    states[p].insert_meta_only(model, g.clone(), quality);
}

/// Retire a metadata-only record on its hosting provider.
fn retire(states: &[Arc<ProviderState>], model: ModelId) {
    let p = model.provider_for(states.len());
    states[p]
        .handle_retire_meta(RetireMetaRequest { model })
        .expect("retire");
}

/// A mutation-family catalog: `families` roots, `variants` derived
/// graphs each, two models per architecture (dedup + quality ties).
fn populate(
    states: &[Arc<ProviderState>],
    families: usize,
    variants: usize,
    seed: u64,
) -> (Vec<ModelId>, Vec<CompactGraph>) {
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut models = Vec::new();
    let mut graphs = Vec::new();
    let mut next = 1u64;
    for _ in 0..families {
        let mut genome = space.sample(&mut rng);
        for v in 0..variants {
            let g = flatten(&space.materialize(&genome)).unwrap();
            let first = ModelId(next);
            next += 1;
            insert(states, first, &g, 0.4);
            models.push(first);
            // The duplicate must land on the SAME provider for dedup to
            // be observable: scan forward for an id with equal placement.
            let placement = first.provider_for(states.len());
            while ModelId(next).provider_for(states.len()) != placement {
                next += 1;
            }
            let dup = ModelId(next);
            next += 1;
            insert(states, dup, &g, 0.4 + v as f64 * 0.05);
            models.push(dup);
            graphs.push(g);
            genome = space.mutate(&genome, &mut rng);
        }
    }
    (models, graphs)
}

/// Run the same best-ancestor query indexed and unindexed; both must
/// return the identical candidate (model, quality, full LCP).
fn assert_query_equivalent(dep: &Deployment, client: &EvoStoreClient, probe: &CompactGraph) {
    dep.set_index_enabled(true);
    let indexed = client.query_best_ancestor(probe).unwrap().into_inner();
    dep.set_index_enabled(false);
    let brute = client.query_best_ancestor(probe).unwrap().into_inner();
    dep.set_index_enabled(true);
    match (indexed, brute) {
        (None, None) => {}
        (Some(i), Some(b)) => {
            assert_eq!(i.model, b.model, "winner differs");
            assert_eq!(i.quality, b.quality, "quality differs");
            assert_eq!(i.lcp, b.lcp, "LCP differs");
        }
        (i, b) => panic!(
            "presence mismatch: indexed {:?}, brute {:?}",
            i.map(|x| x.model),
            b.map(|x| x.model)
        ),
    }
}

#[test]
fn indexed_queries_match_unindexed_under_churn() {
    let dep = Deployment::in_memory(3);
    let states = dep.provider_states();
    let client = dep.client();
    let (models, graphs) = populate(&states, 3, 4, 7);

    // Probes: existing member, fresh mutation of a member, disjoint root.
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let fresh = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
    let probes: Vec<&CompactGraph> = vec![&graphs[0], &graphs[graphs.len() - 1], &fresh];

    for probe in &probes {
        assert_query_equivalent(&dep, &client, probe);
        // The index is a value: asking again must not change the answer.
        assert_query_equivalent(&dep, &client, probe);
    }

    // Retire a third of the population (including probe 0's architecture)
    // and re-check every probe.
    for m in models.iter().step_by(3) {
        retire(&states, *m);
    }
    for probe in &probes {
        assert_query_equivalent(&dep, &client, probe);
    }

    // Store new models after the churn and re-check.
    let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
    insert(&states, ModelId(10_001), &g, 0.9);
    for probe in &probes {
        assert_query_equivalent(&dep, &client, probe);
    }
    assert_query_equivalent(&dep, &client, &g);
}

#[test]
fn pattern_queries_match_unindexed() {
    let dep = Deployment::in_memory(3);
    let states = dep.provider_states();
    let client = dep.client();
    populate(&states, 2, 3, 21);

    let patterns = vec![
        ArchPattern::any(),
        ArchPattern::any().with_layer(LayerPattern::AttentionHeads { min: 1 }),
        ArchPattern::any().with_vertices(1, 9),
        ArchPattern::any().with_layer(LayerPattern::Kind("embedding".into())),
    ];
    for p in &patterns {
        dep.set_index_enabled(true);
        let indexed = client.find_matching(p).unwrap().into_inner();
        dep.set_index_enabled(false);
        let brute = client.find_matching(p).unwrap().into_inner();
        dep.set_index_enabled(true);
        // Same multiset in the same (quality-sorted) order modulo equal
        // qualities: compare as sorted sets of (model, quality bits).
        let norm = |mut v: Vec<(ModelId, f64)>| {
            v.sort_by_key(|&(m, q)| (m, q.to_bits()));
            v
        };
        assert_eq!(norm(indexed), norm(brute));
    }
}

#[test]
fn retire_drops_postings_and_pinned_snapshots_keep_their_epoch() {
    let dep = Deployment::in_memory(1);
    let states = dep.provider_states();
    let client = dep.client();
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let parent = space.sample(&mut rng);
    let child = space.mutate(&parent, &mut rng);
    let pg = flatten(&space.materialize(&parent)).unwrap();
    let cg = flatten(&space.materialize(&child)).unwrap();
    insert(&states, ModelId(2), &cg, 0.4);
    let without_parent = client.stats().unwrap();
    insert(&states, ModelId(1), &pg, 0.5);
    let with_parent = client.stats().unwrap();
    assert!(with_parent.index_postings > without_parent.index_postings);
    assert!(with_parent.index_cone_keys > without_parent.index_cone_keys);

    // Self-query: model 1 must win with a full-length prefix.
    let best = client
        .query_best_ancestor(&pg)
        .unwrap()
        .into_inner()
        .expect("ancestor");
    assert_eq!(best.model, ModelId(1));
    assert_eq!(best.lcp.len(), pg.len());

    // Retiring the winner takes its postings with it; the next query
    // must not return the stale ancestor.
    let pinned = states[0].catalog_snapshot();
    retire(&states, ModelId(1));
    let after = client.stats().unwrap();
    assert_eq!(after.index_postings, without_parent.index_postings);
    assert_eq!(after.index_cone_keys, without_parent.index_cone_keys);
    states[0].catalog_snapshot().verify_coherent().unwrap();
    let best = client.query_best_ancestor(&pg).unwrap().into_inner();
    assert_eq!(best.map(|b| b.model), Some(ModelId(2)));

    // The snapshot pinned before the retire is untouched by it.
    pinned.verify_coherent().unwrap();
    let (old, _) = pinned.index().best_ancestor(&pg);
    let old = old.expect("the pinned epoch still holds model 1");
    assert_eq!((old.model, old.lcp.len()), (ModelId(1), pg.len()));
}

#[test]
fn stats_surface_index_counters() {
    let dep = Deployment::in_memory(2);
    let states = dep.provider_states();
    let client = dep.client();
    let (_, graphs) = populate(&states, 2, 3, 5);

    // Distinct architectures must be below model count (two models per
    // architecture were inserted).
    let stats = client.stats().unwrap();
    assert!(stats.models > 0);
    assert!(
        stats.distinct_archs * 2 <= stats.models,
        "dedup denominator wrong: {} archs for {} models",
        stats.distinct_archs,
        stats.models
    );

    // Every distinct architecture is either evaluated or pruned, on
    // every provider, and a repeat costs what the first query did.
    let probe = &graphs[0];
    client.query_best_ancestor(probe).unwrap();
    let after_first = client.stats().unwrap().query_stats;
    assert!(after_first.scanned > 0, "no scans counted");
    assert_eq!(
        after_first.scanned + after_first.pruned,
        stats.distinct_archs
    );
    client.query_best_ancestor(probe).unwrap();
    let after_second = client.stats().unwrap().query_stats;
    assert_eq!(after_second.scanned, 2 * after_first.scanned);
    assert!(after_second.deduped > 0, "dedup counter never moved");
    // The memo and the answer cache are retired; their counters stay 0.
    assert_eq!((after_second.memo_hits, after_second.answered), (0, 0));

    // Posting growth is inspectable live: at least one posting per
    // architecture (its root), at most one cone key per posting.
    let stats = client.stats().unwrap();
    assert!(stats.index_postings >= stats.distinct_archs);
    assert!(stats.index_cone_keys <= stats.index_postings);
    let snap = dep.metrics_snapshot();
    for (name, want) in [
        (
            "evostore_index_distinct_architectures",
            stats.distinct_archs,
        ),
        ("evostore_index_cone_keys", stats.index_cone_keys),
        ("evostore_index_postings", stats.index_postings),
    ] {
        let got: f64 = snap
            .find_all(name)
            .iter()
            .map(|m| match m.value {
                evostore_obs::MetricValue::Gauge(v) => v,
                _ => panic!("{name} is not a gauge"),
            })
            .sum();
        assert_eq!(got, want as f64, "{name}");
    }

    // The same counters flow into client telemetry.
    let t = client.telemetry().index_stats();
    assert_eq!(t.scanned, after_second.scanned);
    assert_eq!(t.pruned, after_second.pruned);
    assert_eq!(t.candidates, after_second.candidates);
    let report = client.telemetry().report();
    assert!(report.contains(&format!("index_scanned={}", t.scanned)));
}

/// A graph that lies about itself must come back as a handler error.
/// Before `CompactGraph::validate` any of these panicked `lcp()` on the
/// provider's one service thread, and every later call hung.
#[test]
fn malformed_graphs_are_refused_and_the_provider_keeps_answering() {
    let dep = Deployment::in_memory(1);
    let states = dep.provider_states();
    let client = dep.client();
    let g = flatten(&layered_model(1024, 3)).unwrap();
    insert(&states, ModelId(1), &g, 0.5);

    // The edge relation of the well-formed graph, as it is on the wire.
    let edges = "\"out_edges\":[[1],[2],[3],[]],\"in_degree\":[0,1,1,1]";
    let defects = [
        (
            "\"out_edges\":[[1],[2],[3]],\"in_degree\":[0,1,1,1]",
            "edge lists",
        ),
        (
            "\"out_edges\":[[1],[2],[3],[]],\"in_degree\":[0,1,1]",
            "in-degrees",
        ),
        (
            "\"out_edges\":[[1],[2],[9],[]],\"in_degree\":[0,1,1,1]",
            "leaves",
        ),
        (
            "\"out_edges\":[[1],[2,2],[3],[]],\"in_degree\":[0,1,2,1]",
            "duplicate",
        ),
        (
            "\"out_edges\":[[1],[2],[3],[]],\"in_degree\":[0,1,3,1]",
            "in-degrees do not match",
        ),
        (
            "\"out_edges\":[[1],[2],[],[]],\"in_degree\":[0,1,1,0]",
            "second source",
        ),
        (
            "\"out_edges\":[[1],[2],[3,0],[]],\"in_degree\":[1,1,1,1]",
            "vertex 0",
        ),
        (
            "\"out_edges\":[[1],[2],[3],[2]],\"in_degree\":[0,1,2,1]",
            "cycle",
        ),
    ];

    let batch = serde_json::to_string(&LcpBatchRequest {
        graphs: vec![g.clone(), g.clone()],
    })
    .unwrap();
    let store = serde_json::to_string(&StoreModelRequest {
        model: ModelId(2),
        graph: g.clone(),
        owner_map: OwnerMap::fresh(ModelId(2), &g),
        parent: None,
        quality: 0.1,
        manifest: Vec::new(),
        bulk: 0,
        timestamp: None,
    })
    .unwrap();
    let provider = dep.provider_ids()[0];
    for (defect, what) in defects {
        for (method, body) in [
            (methods::LcpBatch::METHOD, &batch),
            (methods::Store::METHOD, &store),
        ] {
            assert!(
                body.contains(edges),
                "{method}: edge relation not found in the body"
            );
            // The batch's first graph stays well-formed: one bad graph
            // anywhere refuses the envelope.
            let at = body.rfind(edges).unwrap();
            let bad = format!("{}{defect}{}", &body[..at], &body[at + edges.len()..]);
            match dep.fabric().call(provider, method, Bytes::from(bad)) {
                Err(RpcError::Handler(e)) => assert!(
                    e.contains("malformed graph") && e.contains(what),
                    "{method} / {what}: refused with `{e}`"
                ),
                other => panic!("{method} / {what}: expected a handler error, got {other:?}"),
            }
        }
    }

    // Nothing was stored, and the same provider still answers.
    assert_eq!(client.stats().unwrap().models, 1);
    let best = client
        .query_best_ancestor(&g)
        .unwrap()
        .into_inner()
        .expect("ancestor");
    assert_eq!((best.model, best.lcp.len()), (ModelId(1), g.len()));
}
