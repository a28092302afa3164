//! Property tests: random mutation lineages against a live deployment.
//!
//! Drives genome-space candidates through query → transfer → derive →
//! store → (sometimes) retire, then checks the global invariants: GC
//! consistency, loadability of every live model, and storage never
//! exceeding the sum of unique tensors.

use evostore_core::{trained_tensors, Deployment, OwnerMap};
use evostore_graph::{flatten, GenomeSpace};
use evostore_tensor::ModelId;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_lineage_workload_keeps_invariants(
        seed in any::<u64>(),
        steps in 3usize..10,
        retire_mask in any::<u16>(),
        providers in 1usize..5,
    ) {
        let space = GenomeSpace::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dep = Deployment::in_memory(providers);
        let client = dep.client();

        let mut genome = space.sample(&mut rng);
        let mut live: Vec<ModelId> = Vec::new();
        let mut next_id = 1u64;

        #[allow(clippy::explicit_counter_loop)]
        for step in 0..steps {
            let graph = flatten(&space.materialize(&genome)).unwrap();
            let model = ModelId(next_id);
            next_id += 1;

            match client.query_best_ancestor(&graph).unwrap().into_inner() {
                Some(best) => {
                    let (meta, fetched) = client.fetch_prefix(&best).unwrap();
                    // Transferred tensors must match the prefix keys.
                    prop_assert_eq!(
                        fetched.len(),
                        best.lcp
                            .prefix
                            .iter()
                            .map(|&gv| {
                                let av = best.lcp.match_in_ancestor[gv.0 as usize].unwrap();
                                meta.owner_map.vertex(av).slots as usize
                            })
                            .sum::<usize>()
                    );
                    let map = OwnerMap::derive(model, &graph, &best.lcp, &meta.owner_map);
                    let tensors = trained_tensors(&graph, &map, seed ^ step as u64);
                    client
                        .store_model(graph.clone(), map, Some(best.model), 0.5, &tensors)
                        .unwrap();
                }
                None => {
                    let map = OwnerMap::fresh(model, &graph);
                    let tensors = trained_tensors(&graph, &map, seed ^ step as u64);
                    client
                        .store_model(graph.clone(), map, None, 0.5, &tensors)
                        .unwrap();
                }
            }
            live.push(model);

            // Sometimes retire a random earlier model.
            if retire_mask & (1 << step) != 0 && live.len() > 1 {
                let idx = (seed as usize ^ step) % (live.len() - 1);
                let victim = live.remove(idx);
                client.retire_model(victim).unwrap();
            }

            dep.gc_audit().map_err(TestCaseError::fail)?;
            genome = space.mutate(&genome, &mut rng);
        }

        // Every live model loads completely.
        for &m in &live {
            let loaded = client.load_model(m).unwrap();
            prop_assert_eq!(
                loaded.tensors.len(),
                loaded.owner_map.all_tensor_keys().len()
            );
        }

        // Retire everything: storage drains to zero.
        for &m in &live {
            client.retire_model(m).unwrap();
        }
        prop_assert_eq!(dep.drain_decrements(), 0);
        let stats = client.stats().unwrap();
        prop_assert_eq!(stats.models, 0);
        prop_assert_eq!(stats.tensors, 0);
        prop_assert_eq!(stats.tensor_bytes, 0);
        dep.gc_audit().map_err(TestCaseError::fail)?;

        // No leaked bulk regions anywhere in the run.
        prop_assert_eq!(dep.fabric().bulk_regions(), 0);
    }
}
