//! One best-ancestor winner whichever path answers: a provider's index
//! walk, its unindexed full scan (`--no-index`) and the Redis baseline's
//! central scan must name the same `(model, quality, lcp)` on a catalog
//! built to tie. Fig 5 races these paths, so a different winner would make
//! it race different queries.
//!
//! The catalog holds distinct architectures only: the Redis baseline keeps
//! the first registrant of an architecture and answers for it alone.

use std::collections::HashSet;

use evostore_baseline::redis_queries::{BeginAddRequest, ModelRef, RedisLcpRequest};
use evostore_baseline::RedisState;
use evostore_core::Deployment;
use evostore_graph::{
    flatten, Activation, Architecture, CompactGraph, GenomeSpace, LayerConfig, LayerKind,
    LcpCandidate,
};
use evostore_tensor::ModelId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

/// What a path answered, with the quality's bits so that equality is exact.
type Answer = Option<(ModelId, u64, evostore_graph::LcpResult)>;

fn answer(c: Option<LcpCandidate>) -> Answer {
    c.map(|c| (c.model, c.quality.to_bits(), c.lcp))
}

#[test]
fn every_path_names_the_same_winner_on_a_catalog_built_to_tie() {
    let mut rng = ChaCha8Rng::seed_from_u64(48);
    let space = GenomeSpace::attn_like();

    // Mutation families share prefixes, so many architectures reach the
    // same prefix length against one probe. Two hand-made families tie
    // on length by construction: `[8, 16, 16, x]` all share 3 vertices
    // with `[8, 16, 16, 1]`, and `[8, 16, y]` share 2.
    let mut graphs: Vec<CompactGraph> = (2..8).map(|x| seq(&[8, 16, 16, x])).collect();
    graphs.extend((2..6).map(|y| seq(&[8, 16, y])));
    let mut genomes = Vec::new();
    for _ in 0..4 {
        let mut genome = space.sample(&mut rng);
        for _ in 0..8 {
            graphs.push(flatten(&space.materialize(&genome)).unwrap());
            let next = space.mutate(&genome, &mut rng);
            genomes.push(std::mem::replace(&mut genome, next));
        }
    }
    let mut seen = HashSet::new();
    graphs.retain(|g| seen.insert(g.arch_signature()));

    // Shuffled ids, so that id order is not registration order, and
    // three qualities, so that equal lengths often tie on quality too and
    // only the lower id decides.
    let mut ids: Vec<u64> = (1..=graphs.len() as u64).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.random_range(0..=i));
    }
    let qualities = [0.25, 0.5, 0.75];
    let catalog: Vec<(ModelId, &CompactGraph, f64)> = ids
        .iter()
        .zip(&graphs)
        .map(|(&id, g)| (ModelId(id), g, qualities[rng.random_range(0..3usize)]))
        .collect();

    let dep = Deployment::in_memory(3);
    let states = dep.provider_states();
    let redis = RedisState::new();
    for &(model, graph, quality) in &catalog {
        let provider = model.provider_for(states.len());
        states[provider]
            .insert_meta_only(model, graph.clone(), quality)
            .unwrap();
        let add = BeginAddRequest {
            model,
            graph: graph.clone(),
            quality,
            weights_path: format!("/pfs/{}", model.0),
        };
        assert!(redis.begin_add(add).unwrap().need_weights, "distinct");
        redis.publish(ModelRef { model }).unwrap();
    }
    let client = dep.client();

    // Probes: every member, a mutation of each genome, fresh samples and
    // the two tie probes.
    let mut probes: Vec<CompactGraph> = graphs.clone();
    probes.extend(
        genomes
            .iter()
            .map(|g| flatten(&space.materialize(&space.mutate(g, &mut rng))).unwrap()),
    );
    probes.extend((0..4).map(|_| flatten(&space.materialize(&space.sample(&mut rng))).unwrap()));
    probes.push(seq(&[8, 16, 16, 1]));
    probes.push(seq(&[8, 16, 1]));

    let mut tied = 0;
    for (i, probe) in probes.iter().enumerate() {
        dep.set_index_enabled(true);
        let indexed = answer(client.query_best_ancestor(probe).unwrap().into_inner());
        dep.set_index_enabled(false);
        let scanned = answer(client.query_best_ancestor(probe).unwrap().into_inner());
        let req = RedisLcpRequest {
            graph: probe.clone(),
        };
        let central = redis.query_lcp(req).unwrap().best;
        let central = central.map(|c| (c.model, c.quality.to_bits(), c.lcp));
        let name = |a: &Answer| {
            a.as_ref()
                .map(|(m, q, l)| (*m, f64::from_bits(*q), l.len()))
        };
        assert_eq!(indexed, scanned, "probe {i}: index vs --no-index");
        assert_eq!(
            indexed,
            central,
            "probe {i}: index {:?} vs Redis {:?}",
            name(&indexed),
            name(&central)
        );

        // Count the probes whose winner had a rival of its length and
        // quality: the id tie-break decided those.
        let Some((model, quality, lcp)) = indexed else {
            continue;
        };
        let rivals = catalog.iter().filter(|&&(m, g, q)| {
            m != model && q.to_bits() == quality && evostore_graph::lcp(probe, g).len() == lcp.len()
        });
        tied += usize::from(rivals.count() > 0);
    }
    assert!(tied >= 8, "only {tied} probes were decided by the model id");
}
