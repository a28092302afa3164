//! Mixed-workload concurrency stress: queries, transfers, stores and
//! retirements racing across many client threads — the §5 access pattern
//! — must leave the repository GC-consistent with no lost tensors.

use std::sync::atomic::{AtomicU64, Ordering};

use evostore_core::{trained_tensors, Deployment, OwnerMap};
use evostore_graph::{flatten, GenomeSpace};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn mixed_workload_stays_consistent() {
    let dep = Deployment::in_memory(4);
    let space = GenomeSpace::tiny();

    // Seed a base population.
    {
        let client = dep.client();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for id in 1..=8u64 {
            let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
            let map = OwnerMap::fresh(ModelId(id), &g);
            let tensors = trained_tensors(&g, &map, id);
            dep.client()
                .store_model(g, map, None, 0.5, &tensors)
                .unwrap();
        }
        drop(client);
    }

    let next_id = AtomicU64::new(100);
    let stored: parking_lot::Mutex<Vec<ModelId>> = parking_lot::Mutex::new(Vec::new());

    std::thread::scope(|s| {
        // Derivation workers: query -> fetch -> derive -> store.
        for t in 0..4u64 {
            let client = dep.client();
            let space = space.clone();
            let next_id = &next_id;
            let stored = &stored;
            s.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(100 + t);
                for _ in 0..12 {
                    let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
                    let model = ModelId(next_id.fetch_add(1, Ordering::Relaxed));
                    match client.query_best_ancestor(&g).unwrap().into_inner() {
                        Some(best) => {
                            // The ancestor may be retired mid-flight by the
                            // retirement thread: both outcomes are legal.
                            if let Ok((meta, _tensors)) = client.fetch_prefix(&best) {
                                let map = OwnerMap::derive(model, &g, &best.lcp, &meta.owner_map);
                                let new = trained_tensors(&g, &map, model.0);
                                if client
                                    .store_model(g, map, Some(best.model), 0.6, &new)
                                    .is_ok()
                                {
                                    stored.lock().push(model);
                                }
                            }
                        }
                        None => {
                            let map = OwnerMap::fresh(model, &g);
                            let new = trained_tensors(&g, &map, model.0);
                            client.store_model(g, map, None, 0.6, &new).unwrap();
                            stored.lock().push(model);
                        }
                    }
                }
            });
        }

        // Query-only workers hammer the LCP broadcast concurrently.
        for t in 0..2u64 {
            let client = dep.client();
            let space = space.clone();
            s.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(200 + t);
                for _ in 0..30 {
                    let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
                    let _ = client.query_best_ancestor(&g).unwrap();
                }
            });
        }

        // A retirement worker churns the seed population.
        {
            let client = dep.client();
            s.spawn(move || {
                for id in 1..=8u64 {
                    // Ignore races (e.g. double retire attempts elsewhere).
                    let _ = client.retire_model(ModelId(id));
                }
            });
        }
    });

    // The repository must be exactly consistent afterwards.
    dep.gc_audit().unwrap();
    assert_eq!(dep.fabric().bulk_regions(), 0, "no leaked bulk regions");

    // Every successfully stored model is fully loadable.
    let client = dep.client();
    let stored = stored.into_inner();
    assert!(!stored.is_empty());
    for m in &stored {
        let loaded = client.load_model(*m).unwrap();
        assert_eq!(
            loaded.tensors.len(),
            loaded.owner_map.all_tensor_keys().len()
        );
    }

    // Drain everything; the store must empty.
    for m in stored {
        client.retire_model(m).unwrap();
    }
    assert_eq!(dep.drain_decrements(), 0);
    let stats = client.stats().unwrap();
    assert_eq!(stats.models, 0);
    assert_eq!(stats.tensors, 0);
    dep.gc_audit().unwrap();
}
