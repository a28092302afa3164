//! End-to-end tests of the EvoStore deployment: incremental storage,
//! transfer reads, LCP queries, distributed GC, and provenance.

use std::collections::HashMap;

use evostore_core::{random_tensors, trained_tensors, Deployment, ModelRepository, OwnerMap};
use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore_tensor::{ModelId, TensorData, TensorKey};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A sequential dense model; differing `units` suffixes create controlled
/// LCP structure.
fn seq(units: &[u32]) -> CompactGraph {
    let mut a = Architecture::new("seq");
    let mut prev = a.add_layer(LayerConfig::new(
        "in",
        LayerKind::Input {
            shape: vec![units[0]],
        },
    ));
    let mut inf = units[0];
    for (i, &u) in units.iter().enumerate().skip(1) {
        prev = a.chain(
            prev,
            LayerConfig::new(
                format!("d{i}"),
                LayerKind::Dense {
                    in_features: inf,
                    units: u,
                    activation: Activation::ReLU,
                },
            ),
        );
        inf = u;
    }
    flatten(&a).unwrap()
}

#[test]
fn store_and_load_roundtrip() {
    let dep = Deployment::in_memory(3);
    let client = dep.client();
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let tensors = random_tensors(ModelId(1), &g, &mut rng);

    let outcome = client
        .store_model(
            g.clone(),
            OwnerMap::fresh(ModelId(1), &g),
            None,
            0.5,
            &tensors,
        )
        .unwrap();
    assert_eq!(outcome.tensors_written, 6); // 3 dense layers x (W, b)
    assert!(outcome.bytes_written > 0);

    let loaded = client.load_model(ModelId(1)).unwrap();
    assert_eq!(loaded.graph.arch_signature(), g.arch_signature());
    assert_eq!(loaded.tensors.len(), 6);
    for (key, tensor) in &tensors {
        assert_eq!(&loaded.tensors[key], tensor, "tensor {key} differs");
    }
    assert_eq!(loaded.parent, None);
    dep.gc_audit().unwrap();
}

#[test]
fn derived_store_is_incremental_and_shares_tensors() {
    let dep = Deployment::in_memory(4);
    let client = dep.client();
    let parent_g = seq(&[8, 16, 16, 16, 4]);
    let child_g = seq(&[8, 16, 16, 16, 5]); // last layer differs

    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let parent_tensors = random_tensors(ModelId(1), &parent_g, &mut rng);
    let full = client
        .store_model(
            parent_g.clone(),
            OwnerMap::fresh(ModelId(1), &parent_g),
            None,
            0.7,
            &parent_tensors,
        )
        .unwrap();

    // Query the repository for the best ancestor (should be the parent).
    let best = client
        .query_best_ancestor(&child_g)
        .unwrap()
        .into_inner()
        .unwrap();
    assert_eq!(best.model, ModelId(1));
    assert_eq!(best.lcp.len(), 4); // input + 3 shared dense layers

    // Fetch the prefix (transfer read): 3 dense layers = 6 tensors.
    let (meta, fetched) = client.fetch_prefix(&best).unwrap();
    assert_eq!(fetched.len(), 6);
    // Transferred bytes < full model bytes.
    let fetched_bytes: usize = fetched.values().map(|t| t.byte_len()).sum();
    assert!(fetched_bytes < parent_g.total_param_bytes());

    // Train the unfrozen suffix and store the derived model.
    let child_map = OwnerMap::derive(ModelId(2), &child_g, &best.lcp, &meta.owner_map);
    let new_tensors = trained_tensors(&child_g, &child_map, 42);
    assert_eq!(new_tensors.len(), 2); // only the final layer's W and b
    let inc = client
        .store_model(
            child_g.clone(),
            child_map,
            Some(ModelId(1)),
            0.8,
            &new_tensors,
        )
        .unwrap();
    assert!(
        inc.bytes_written < full.bytes_written / 2,
        "incremental write {} not smaller than full {}",
        inc.bytes_written,
        full.bytes_written
    );

    // Loading the child returns the parent's frozen tensors verbatim.
    let loaded = client.load_model(ModelId(2)).unwrap();
    for (key, tensor) in &fetched {
        assert_eq!(&loaded.tensors[key], tensor);
    }
    dep.gc_audit().unwrap();

    // Storage: the shared tensors exist exactly once.
    let stats = client.stats().unwrap();
    let unique_bytes =
        parent_g.total_param_bytes() + new_tensors.values().map(|t| t.byte_len()).sum::<usize>();
    // Stored records carry a fixed framing overhead per tensor.
    assert!(
        stats.tensor_bytes <= unique_bytes as u64 + 64 * stats.tensors,
        "dedup failed: {} stored vs {} unique",
        stats.tensor_bytes,
        unique_bytes
    );
}

#[test]
fn figure2_chain_ownership_and_retirement() {
    // Grandparent -> parent -> child with growing shared prefixes, then
    // retire the middle model: tensors inherited by the child survive.
    let dep = Deployment::in_memory(4);
    let client = dep.client();

    let gp_g = seq(&[8, 10, 20, 30, 99, 98]);
    let p_g = seq(&[8, 10, 20, 30, 40, 50]);
    let c_g = seq(&[8, 10, 20, 30, 40, 51, 60]);

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    client
        .store_fresh(ModelId(1), &gp_g, 0.6, &mut rng)
        .unwrap();

    // Parent derives from grandparent.
    let best = client
        .query_best_ancestor(&p_g)
        .unwrap()
        .into_inner()
        .unwrap();
    assert_eq!(best.model, ModelId(1));
    let (meta, _) = client.fetch_prefix(&best).unwrap();
    let p_map = OwnerMap::derive(ModelId(2), &p_g, &best.lcp, &meta.owner_map);
    let p_new = trained_tensors(&p_g, &p_map, 7);
    client
        .store_model(p_g.clone(), p_map, Some(ModelId(1)), 0.7, &p_new)
        .unwrap();

    // Child derives from parent (longest prefix).
    let best_c = client
        .query_best_ancestor(&c_g)
        .unwrap()
        .into_inner()
        .unwrap();
    assert_eq!(best_c.model, ModelId(2));
    assert_eq!(best_c.lcp.len(), 5); // input + {10,20,30,40}; layer 50 not inherited
    let (meta_p, _) = client.fetch_prefix(&best_c).unwrap();
    let c_map = OwnerMap::derive(ModelId(3), &c_g, &best_c.lcp, &meta_p.owner_map);
    // Child's map must reference the grandparent directly for old layers.
    assert_eq!(
        c_map.distinct_owners(),
        vec![ModelId(1), ModelId(2), ModelId(3)]
    );
    let c_new = trained_tensors(&c_g, &c_map, 9);
    client
        .store_model(c_g.clone(), c_map.clone(), Some(ModelId(2)), 0.9, &c_new)
        .unwrap();
    dep.gc_audit().unwrap();

    // Provenance.
    assert_eq!(
        client.lineage(ModelId(3)).unwrap(),
        vec![ModelId(3), ModelId(2), ModelId(1)]
    );
    let contribs = client.contributors(ModelId(3)).unwrap();
    assert_eq!(contribs.len(), 3);
    // Chronological: grandparent first.
    assert_eq!(contribs[0].0, ModelId(1));

    // Retire the parent: tensors owned by the parent but inherited by the
    // child must survive; the parent's un-inherited tensors are reclaimed.
    let before = client.stats().unwrap();
    let retired = client.retire_model(ModelId(2)).unwrap();
    // Layer 50's two tensors were never inherited by the child.
    assert_eq!(
        retired.tensors_reclaimed, 2,
        "parent's unshared layer reclaimed"
    );
    let after = client.stats().unwrap();
    assert!(after.tensor_bytes < before.tensor_bytes);
    dep.gc_audit().unwrap();

    // Child still loads completely.
    let loaded = client.load_model(ModelId(3)).unwrap();
    assert_eq!(loaded.tensors.len(), c_map.all_tensor_keys().len());

    // Retire everything: the store must drain to zero tensors.
    client.retire_model(ModelId(1)).unwrap();
    client.retire_model(ModelId(3)).unwrap();
    let empty = client.stats().unwrap();
    assert_eq!(empty.models, 0);
    assert_eq!(empty.tensors, 0);
    assert_eq!(empty.tensor_bytes, 0);
    dep.gc_audit().unwrap();
}

#[test]
fn lcp_query_prefers_longer_prefix_then_quality() {
    let dep = Deployment::in_memory(3);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(4);

    // Three stored models with different overlap against the probe.
    let short = seq(&[8, 16, 99, 4]); // LCP 2 with probe
    let long_low = seq(&[8, 16, 16, 9]); // LCP 3, low quality
    let long_high = seq(&[8, 16, 16, 7]); // LCP 3, high quality
    client
        .store_fresh(ModelId(10), &short, 0.99, &mut rng)
        .unwrap();
    client
        .store_fresh(ModelId(11), &long_low, 0.30, &mut rng)
        .unwrap();
    client
        .store_fresh(ModelId(12), &long_high, 0.80, &mut rng)
        .unwrap();

    let probe = seq(&[8, 16, 16, 4]);
    let best = client
        .query_best_ancestor(&probe)
        .unwrap()
        .into_inner()
        .unwrap();
    assert_eq!(best.model, ModelId(12), "longest prefix, then quality");
    assert_eq!(best.lcp.len(), 3);

    // A probe matching nothing at the root returns None.
    let alien = seq(&[9, 16]);
    assert!(client
        .query_best_ancestor(&alien)
        .unwrap()
        .into_inner()
        .is_none());
}

#[test]
fn concurrent_derived_stores_keep_gc_consistent() {
    let dep = Deployment::in_memory(4);
    let client = dep.client();
    let base = seq(&[8, 16, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    client
        .store_fresh(ModelId(0), &base, 0.5, &mut rng)
        .unwrap();

    // 8 workers concurrently derive children with distinct last layers.
    std::thread::scope(|s| {
        for w in 0..8u32 {
            let client = dep.client();
            s.spawn(move || {
                let child_g = seq(&[8, 16, 16, 16, 20 + w]);
                let best = client
                    .query_best_ancestor(&child_g)
                    .unwrap()
                    .into_inner()
                    .unwrap();
                let (meta, fetched) = client.fetch_prefix(&best).unwrap();
                assert!(!fetched.is_empty());
                let map = OwnerMap::derive(
                    ModelId(100 + w as u64),
                    &child_g,
                    &best.lcp,
                    &meta.owner_map,
                );
                let tensors = trained_tensors(&child_g, &map, w as u64);
                client
                    .store_model(child_g.clone(), map, Some(best.model), 0.6, &tensors)
                    .unwrap();
            });
        }
    });

    dep.gc_audit().unwrap();
    let stats = dep.client().stats().unwrap();
    assert_eq!(stats.models, 9);
    // Base prefix tensors must be referenced 9x (base + 8 children).
    let states = dep.provider_states();
    let key = TensorKey::new(ModelId(0), evostore_tensor::VertexId(1), 0);
    let host = ModelId(0).provider_for(4);
    assert_eq!(states[host].tensor_refs(key), 9);

    // Retiring the base keeps children loadable.
    dep.client().retire_model(ModelId(0)).unwrap();
    dep.gc_audit().unwrap();
    let loaded = dep.client().load_model(ModelId(104)).unwrap();
    assert!(!loaded.tensors.is_empty());
}

#[test]
fn repository_trait_full_cycle_with_fallback() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let g1 = seq(&[8, 16, 4]);
    let g2 = seq(&[8, 16, 5]);

    // Fresh store through the trait.
    let s1 = client.store_candidate(ModelId(1), &g1, None, 0.5, 11);
    assert!(s1.bytes_written > 0);
    assert!(!s1.fell_back_fresh);

    // Transfer path.
    let src = client.find_transfer_source(&g2).unwrap();
    assert_eq!(src.ancestor, ModelId(1));
    let fetched = client.fetch_transfer(&g2, &src).unwrap();
    assert!(fetched.bytes_read > 0);
    let s2 = client.store_candidate(ModelId(2), &g2, Some(&src), 0.6, 12);
    assert!(s2.bytes_written < s1.bytes_written);
    assert!(!s2.fell_back_fresh);

    // Race: retire the ancestor, then try to store a child against the
    // stale source — the store falls back to a fresh (full) write.
    let g3 = seq(&[8, 16, 6]);
    let stale = client.find_transfer_source(&g3).unwrap();
    client.retire_candidate(stale.ancestor);
    let s3 = client.store_candidate(ModelId(3), &g3, Some(&stale), 0.6, 13);
    assert!(s3.fell_back_fresh, "stale ancestor must trigger fallback");
    assert!(s3.bytes_written >= s1.bytes_written / 2);
    dep.gc_audit().unwrap();

    // Stale fetch returns None rather than an error.
    assert!(client.fetch_transfer(&g3, &stale).is_none());

    assert!(client.storage_bytes() > 0);
    assert_eq!(client.name(), "EvoStore");
}

#[test]
fn duplicate_store_rejected() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let g = seq(&[4, 8]);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    client.store_fresh(ModelId(1), &g, 0.5, &mut rng).unwrap();
    let err = client.store_fresh(ModelId(1), &g, 0.5, &mut rng);
    assert!(err.is_err());
    // The failed store must not leak bulk regions.
    assert_eq!(dep.fabric().bulk_regions(), 0);
}

#[test]
fn store_with_wrong_manifest_rejected() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let g = seq(&[4, 8, 2]);
    let map = OwnerMap::fresh(ModelId(1), &g);
    // Missing tensors: manifest will not cover the self-owned set.
    let empty: HashMap<TensorKey, TensorData> = HashMap::new();
    let err = client.store_model(g.clone(), map, None, 0.5, &empty);
    assert!(err.is_err());
    let stats = client.stats().unwrap();
    assert_eq!(stats.models, 0);
    assert_eq!(stats.tensors, 0);
}

#[test]
fn mrca_of_siblings_is_parent() {
    let dep = Deployment::in_memory(3);
    let client = dep.client();
    let base = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // Highest quality so that equal-length LCP ties resolve to the base
    // (both siblings share the same 3-vertex prefix with everything).
    client
        .store_fresh(ModelId(1), &base, 0.9, &mut rng)
        .unwrap();

    for (id, last) in [(2u64, 5u32), (3u64, 6u32)] {
        let g = seq(&[8, 16, 16, last]);
        let best = client
            .query_best_ancestor(&g)
            .unwrap()
            .into_inner()
            .unwrap();
        let (meta, _) = client.fetch_prefix(&best).unwrap();
        let map = OwnerMap::derive(ModelId(id), &g, &best.lcp, &meta.owner_map);
        let t = trained_tensors(&g, &map, id);
        client
            .store_model(g.clone(), map, Some(best.model), 0.6, &t)
            .unwrap();
    }

    assert_eq!(
        client
            .most_recent_common_ancestor(ModelId(2), ModelId(3))
            .unwrap(),
        Some(ModelId(1))
    );
    assert_eq!(
        client
            .most_recent_common_ancestor(ModelId(2), ModelId(2))
            .unwrap(),
        Some(ModelId(2))
    );
}

#[test]
fn log_backed_deployment_roundtrip() {
    let dir = std::env::temp_dir().join(format!("evostore-dep-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dep = Deployment::new(evostore_core::DeploymentConfig {
        providers: 2,
        service_threads: 2,
        backend: evostore_core::BackendKind::Log { dir: dir.clone() },
        replication: evostore_core::ReplicationPolicy::default(),
        ..Default::default()
    });
    let client = dep.client();
    let g = seq(&[8, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let tensors = random_tensors(ModelId(1), &g, &mut rng);
    client
        .store_model(
            g.clone(),
            OwnerMap::fresh(ModelId(1), &g),
            None,
            0.5,
            &tensors,
        )
        .unwrap();
    let loaded = client.load_model(ModelId(1)).unwrap();
    for (k, t) in &tensors {
        assert_eq!(&loaded.tensors[k], t);
    }
    dep.gc_audit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bulk_regions_do_not_leak() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    client.store_fresh(ModelId(1), &g, 0.5, &mut rng).unwrap();
    let _ = client.load_model(ModelId(1)).unwrap();
    let best = client
        .query_best_ancestor(&g)
        .unwrap()
        .into_inner()
        .unwrap();
    let _ = client.fetch_prefix(&best).unwrap();
    assert_eq!(dep.fabric().bulk_regions(), 0, "bulk regions leaked");
}
