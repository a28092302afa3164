//! Concurrency and equivalence tests for the snapshot-isolated catalog:
//! reader threads must never observe a half-applied store/retire (every
//! loaded snapshot is internally coherent and versions only move
//! forward), batched LCP / pattern RPCs must return exactly what the
//! equivalent single-query calls return.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use evostore_core::messages::RetireMetaRequest;
use evostore_core::provider::ProviderState;
use evostore_core::Deployment;
use evostore_graph::{flatten, ArchPattern, CompactGraph, GenomeSpace, LayerPattern, LcpCandidate};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Insert a metadata-only record on the provider `model` hashes to.
fn insert(states: &[Arc<ProviderState>], model: ModelId, g: &CompactGraph, quality: f64) {
    let p = model.provider_for(states.len());
    states[p]
        .insert_meta_only(model, g.clone(), quality)
        .unwrap();
}

/// Sample a family tree of architectures: `families` roots, `variants`
/// successive mutations each.
fn sample_graphs(families: usize, variants: usize, seed: u64) -> Vec<CompactGraph> {
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graphs = Vec::new();
    for _ in 0..families {
        let mut genome = space.sample(&mut rng);
        for _ in 0..variants {
            graphs.push(flatten(&space.materialize(&genome)).unwrap());
            genome = space.mutate(&genome, &mut rng);
        }
    }
    graphs
}

struct CountOnDrop<'a>(&'a AtomicUsize);

impl Drop for CountOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Readers pin snapshots in a tight loop while one writer streams
/// store/retire mutations (all start behind a barrier, and the writer
/// keeps churning until every reader has done its fixed number of loads,
/// so the overlap does not depend on scheduling). Every snapshot a
/// reader loads must pass the
/// internal coherence audit (records/index mirror each other exactly)
/// and versions must be monotone per reader — a torn publication would
/// fail one or both.
#[test]
fn snapshots_stay_coherent_under_churn() {
    const READERS: usize = 4;
    const LOADS_PER_READER: usize = 200;
    const MIN_ROUNDS: usize = 60;

    let dep = Deployment::in_memory(1);
    let states = dep.provider_states();
    let state = Arc::clone(&states[0]);
    let graphs = sample_graphs(3, 5, 42);

    // Seed a base population so readers always have something to audit.
    for (i, g) in graphs.iter().enumerate() {
        insert(&states, ModelId(i as u64 + 1), g, 0.5);
    }

    let start = Barrier::new(READERS + 1);
    let readers_done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            let state = Arc::clone(&state);
            let (start, readers_done) = (&start, &readers_done);
            s.spawn(move || {
                // Counts on unwind too: a failed reader must not leave
                // the writer churning forever.
                let _done = CountOnDrop(readers_done);
                start.wait();
                let mut last_version = 0u64;
                for _ in 0..LOADS_PER_READER {
                    let snap = state.catalog_snapshot();
                    snap.verify_coherent().expect("torn snapshot");
                    assert!(
                        snap.version() >= last_version,
                        "snapshot version went backwards: {} -> {}",
                        last_version,
                        snap.version()
                    );
                    last_version = snap.version();
                }
            });
        }

        // Writer: churn a rotating window of model ids over the sampled
        // architectures — every round stores a fresh record and retires
        // the one from two rounds ago, exercising insert + remove and
        // the posting shards they copy while readers hold pins.
        start.wait();
        let mut round = 0usize;
        while round < MIN_ROUNDS || readers_done.load(Ordering::SeqCst) < READERS {
            let id = ModelId(10_000 + round as u64);
            let g = &graphs[round % graphs.len()];
            insert(&states, id, g, 0.3 + (round % 7) as f64 * 0.1);
            if round >= 2 {
                let old = ModelId(10_000 + round as u64 - 2);
                state
                    .handle_retire_meta(RetireMetaRequest { model: old })
                    .expect("retire");
            }
            round += 1;
        }
    });

    // The final snapshot must reflect every mutation: seed population
    // plus the last two un-retired churn ids.
    let snap = state.catalog_snapshot();
    snap.verify_coherent().expect("final snapshot incoherent");
    assert_eq!(snap.len(), graphs.len() + 2);
}

fn norm_best(b: Option<LcpCandidate>) -> Option<(ModelId, u64, usize)> {
    b.map(|b| (b.model, b.quality.to_bits(), b.lcp.len()))
}

/// One batched LCP envelope must answer exactly like N single queries.
#[test]
fn batched_lcp_matches_single_queries() {
    let dep = Deployment::in_memory(3);
    let states = dep.provider_states();
    let client = dep.client();
    let graphs = sample_graphs(3, 4, 11);
    for (i, g) in graphs.iter().enumerate() {
        insert(
            &states,
            ModelId(i as u64 + 1),
            g,
            0.4 + (i % 5) as f64 * 0.1,
        );
    }

    // Probes: every stored member plus a fresh architecture (miss-ish).
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut probes = graphs.clone();
    probes.push(flatten(&space.materialize(&space.sample(&mut rng))).unwrap());

    let batched = client.query_best_ancestors(&probes).unwrap().into_inner();
    assert_eq!(batched.len(), probes.len());
    for (probe, got) in probes.iter().zip(batched) {
        let single = client.query_best_ancestor(probe).unwrap().into_inner();
        assert_eq!(norm_best(got), norm_best(single), "batch/single diverge");
    }

    // Empty batch short-circuits without touching the wire.
    assert!(client
        .query_best_ancestors(&[])
        .unwrap()
        .into_inner()
        .is_empty());
}

/// One batched pattern envelope must answer exactly like N single calls.
#[test]
fn batched_patterns_match_single_queries() {
    let dep = Deployment::in_memory(3);
    let states = dep.provider_states();
    let client = dep.client();
    let graphs = sample_graphs(2, 3, 23);
    for (i, g) in graphs.iter().enumerate() {
        insert(
            &states,
            ModelId(i as u64 + 1),
            g,
            0.4 + (i % 3) as f64 * 0.2,
        );
    }

    let patterns = vec![
        ArchPattern::any(),
        ArchPattern::any().with_layer(LayerPattern::AttentionHeads { min: 1 }),
        ArchPattern::any().with_vertices(1, 9),
        ArchPattern::any().with_layer(LayerPattern::Kind("embedding".into())),
    ];
    let batched = client.find_matching_batch(&patterns).unwrap().into_inner();
    assert_eq!(batched.len(), patterns.len());
    let norm = |mut v: Vec<(ModelId, f64)>| {
        v.sort_by_key(|&(m, q)| (m, q.to_bits()));
        v
    };
    for (p, got) in patterns.iter().zip(batched) {
        let single = client.find_matching(p).unwrap().into_inner();
        assert_eq!(norm(got), norm(single), "batch/single diverge for {p:?}");
    }
}
