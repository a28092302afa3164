//! Tests of the extended repository features: partial tensor reads,
//! architecture pattern queries, optimizer state, and crash recovery.

use evostore_core::{random_tensors, trained_tensors, Deployment, OwnerMap};
use evostore_graph::{
    flatten, Activation, ArchPattern, Architecture, CompactGraph, LayerConfig, LayerKind,
    LayerPattern,
};
use evostore_tensor::{DType, ModelId, TensorData, TensorKey, VertexId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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
fn partial_tensor_reads_match_full_reads() {
    let dep = Deployment::in_memory(3);
    let client = dep.client();
    let g = seq(&[16, 32, 8]);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
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

    // Slice the first dense kernel (16x32 f32 = 512 elements).
    let key = TensorKey::new(ModelId(1), VertexId(1), 0);
    let full = &tensors[&key];
    for (off, count) in [(0u64, 512u64), (100, 64), (511, 1), (0, 1)] {
        let slice = client.fetch_tensor_slice(key, off, count).unwrap();
        assert_eq!(slice.dtype(), DType::F32);
        assert_eq!(slice.num_elements(), count as usize);
        let esz = 4;
        assert_eq!(
            slice.bytes().as_ref(),
            &full.bytes()[off as usize * esz..(off + count) as usize * esz]
        );
    }

    // Out-of-bounds rejected.
    assert!(client.fetch_tensor_slice(key, 500, 64).is_err());
    // Unknown tensor rejected.
    let ghost = TensorKey::new(ModelId(99), VertexId(0), 0);
    assert!(client.fetch_tensor_slice(ghost, 0, 1).is_err());
    // No bulk leaks.
    assert_eq!(dep.fabric().bulk_regions(), 0);
}

#[test]
fn pattern_queries_span_providers() {
    let dep = Deployment::in_memory(4);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(2);

    // Three models with distinctive widths, spread by placement hashing.
    client
        .store_fresh(ModelId(1), &seq(&[8, 100, 4]), 0.5, &mut rng)
        .unwrap();
    client
        .store_fresh(ModelId(2), &seq(&[8, 200, 4]), 0.9, &mut rng)
        .unwrap();
    client
        .store_fresh(ModelId(3), &seq(&[8, 300, 4]), 0.7, &mut rng)
        .unwrap();

    // Everything matches the empty pattern, best quality first.
    let all = client
        .find_matching(&ArchPattern::any())
        .unwrap()
        .into_inner();
    assert_eq!(all.len(), 3);
    assert_eq!(all[0].0, ModelId(2));

    // Range query.
    let wide = client
        .find_matching(
            &ArchPattern::any().with_layer(LayerPattern::DenseUnits { min: 150, max: 250 }),
        )
        .unwrap()
        .into_inner();
    assert_eq!(wide.len(), 1);
    assert_eq!(wide[0].0, ModelId(2));

    // Sequence query: dense(300) feeding dense(4).
    let seq_q = client
        .find_matching(&ArchPattern::any().with_sequence(vec![
            LayerPattern::DenseUnits { min: 300, max: 300 },
            LayerPattern::DenseUnits { min: 4, max: 4 },
        ]))
        .unwrap()
        .into_inner();
    assert_eq!(seq_q.len(), 1);
    assert_eq!(seq_q[0].0, ModelId(3));

    // No match.
    let none = client
        .find_matching(&ArchPattern::any().with_layer(LayerPattern::Kind("attention".into())))
        .unwrap()
        .into_inner();
    assert!(none.is_empty());
}

#[test]
fn optimizer_state_lifecycle() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let g = seq(&[8, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    client.store_fresh(ModelId(1), &g, 0.5, &mut rng).unwrap();

    // No state initially.
    assert!(client.load_optimizer_state(ModelId(1)).unwrap().is_empty());

    // Attach Adam-style moments: two per parameter tensor.
    let moments: Vec<TensorData> = (0..4)
        .map(|_| TensorData::random(&mut rng, DType::F32, vec![16]))
        .collect();
    let outcome = client.store_optimizer_state(ModelId(1), &moments).unwrap();
    assert_eq!(outcome.tensors_written, 4);
    dep.gc_audit().unwrap();

    // Roundtrip, order preserved.
    let back = client.load_optimizer_state(ModelId(1)).unwrap();
    assert_eq!(back, moments);

    // Double-attach rejected.
    assert!(client.store_optimizer_state(ModelId(1), &moments).is_err());

    // Unknown model rejected.
    assert!(client.store_optimizer_state(ModelId(9), &moments).is_err());

    // Optimizer tensors do not leak into model loads.
    let loaded = client.load_model(ModelId(1)).unwrap();
    assert_eq!(loaded.tensors.len(), 4); // 2 dense layers x (W, b)

    // Retirement reclaims the state with the model.
    let before = client.stats().unwrap();
    client.retire_model(ModelId(1)).unwrap();
    assert_eq!(dep.drain_decrements(), 0);
    let after = client.stats().unwrap();
    assert_eq!(after.tensors, 0);
    assert!(after.tensor_bytes < before.tensor_bytes);
    dep.gc_audit().unwrap();
    assert!(client.load_optimizer_state(ModelId(1)).is_err());
}

/// One history on two log-backed providers holding two replicas each: a
/// model stored whole, then a second stored while its mirror is down,
/// then (when `heal`) the mirror back and a repair pass — and a restart.
fn reopen_after_an_outage(heal: bool) -> (Result<Deployment, String>, ModelId) {
    let dir = std::env::temp_dir().join(format!(
        "evostore-reopen-outage-{heal}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = evostore_core::DeploymentConfig {
        providers: 2,
        backend: evostore_core::BackendKind::Log { dir: dir.clone() },
        replication: evostore_core::ReplicationPolicy::new(2),
        ..Default::default()
    };
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let (first, second) = (ModelId(1), ModelId(2));
    {
        let dep = Deployment::new(cfg.clone());
        let client = dep.client();
        for model in [first, second] {
            let mirror = dep.provider_ids()[dep.replication().replicas(model, 2)[1]];
            let plan = dep
                .fabric()
                .install_fault_plan(evostore_rpc::FaultPlan::new(0));
            if model == second {
                plan.set_down(mirror);
            }
            let tensors = random_tensors(model, &g, &mut rng);
            client
                .store_model(g.clone(), OwnerMap::fresh(model, &g), None, 0.5, &tensors)
                .unwrap();
            plan.set_up(mirror);
        }
        if heal {
            let report = dep.repair().unwrap();
            assert_eq!(report.models_synced, 1, "{report:?}");
            dep.gc_audit().unwrap();
        }
    } // dropped: "process restart"
    let reopened = Deployment::reopen(cfg);
    let _ = std::fs::remove_dir_all(&dir);
    (reopened, second)
}

/// The strict census at restart: a record missing on a replica fails
/// `reopen` by name, and the same history healed by `repair` first
/// reopens and audits clean.
#[test]
fn reopen_requires_agreeing_replicas() {
    let (reopened, missed) = reopen_after_an_outage(false);
    let err = reopened.err().expect("a replica missed a record");
    assert!(err.contains(&missed.to_string()), "{err}");

    let (reopened, missed) = reopen_after_an_outage(true);
    let dep = reopened.expect("a repaired deployment reopens");
    dep.gc_audit().unwrap();
    assert!(dep.client().load_model(missed).is_ok());
}

#[test]
fn reopen_recovers_catalog_and_refcounts() {
    let dir = std::env::temp_dir().join(format!("evostore-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = evostore_core::DeploymentConfig {
        providers: 3,
        service_threads: 2,
        backend: evostore_core::BackendKind::Log { dir: dir.clone() },
        replication: evostore_core::ReplicationPolicy::default(),
        ..Default::default()
    };

    let parent_g = seq(&[8, 16, 16, 4]);
    let child_g = seq(&[8, 16, 16, 5]);
    let parent_tensors;

    // Session 1: a parent, a derived child, and optimizer state.
    {
        let dep = Deployment::new(cfg.clone());
        let client = dep.client();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let tensors = random_tensors(ModelId(1), &parent_g, &mut rng);
        client
            .store_model(
                parent_g.clone(),
                OwnerMap::fresh(ModelId(1), &parent_g),
                None,
                0.8,
                &tensors,
            )
            .unwrap();
        parent_tensors = Some(tensors);
        let _ = &parent_tensors;

        let best = client
            .query_best_ancestor(&child_g)
            .unwrap()
            .into_inner()
            .unwrap();
        let (meta, _) = client.fetch_prefix(&best).unwrap();
        let map = OwnerMap::derive(ModelId(2), &child_g, &best.lcp, &meta.owner_map);
        let new = trained_tensors(&child_g, &map, 7);
        client
            .store_model(child_g.clone(), map, Some(ModelId(1)), 0.9, &new)
            .unwrap();

        let moments = vec![TensorData::zeros(DType::F32, vec![8])];
        client.store_optimizer_state(ModelId(2), &moments).unwrap();
        dep.gc_audit().unwrap();
    } // deployment dropped: "process restart"

    // Session 2: reopen and verify everything.
    let dep = Deployment::reopen(cfg).expect("recovery succeeds");
    let client = dep.client();

    // Both models load; the child's inherited tensors are byte-identical
    // to what the parent stored before the restart.
    let loaded_child = client.load_model(ModelId(2)).unwrap();
    let parent_tensors = parent_tensors.unwrap();
    for (key, tensor) in &loaded_child.tensors {
        if key.owner == ModelId(1) {
            assert_eq!(tensor, &parent_tensors[key]);
        }
    }
    assert_eq!(loaded_child.parent, Some(ModelId(1)));

    // Optimizer state survived.
    let moments = client.load_optimizer_state(ModelId(2)).unwrap();
    assert_eq!(moments.len(), 1);

    // LCP queries see the recovered catalog.
    let best = client
        .query_best_ancestor(&child_g)
        .unwrap()
        .into_inner()
        .unwrap();
    assert_eq!(best.model, ModelId(2));

    // GC still works across the restart: retiring the parent keeps the
    // child loadable, retiring everything drains the store.
    client.retire_model(ModelId(1)).unwrap();
    dep.gc_audit().unwrap();
    assert!(client.load_model(ModelId(2)).is_ok());
    client.retire_model(ModelId(2)).unwrap();
    assert_eq!(dep.drain_decrements(), 0);
    let stats = client.stats().unwrap();
    assert_eq!(stats.models, 0);
    assert_eq!(stats.tensors, 0);
    dep.gc_audit().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_purges_orphaned_tensors() {
    // Simulate a crash between metadata retirement and the decrement
    // fan-out: the tensor store still holds payloads no catalog entry
    // references. Recovery must reclaim them.
    let dir = std::env::temp_dir().join(format!("evostore-orphan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = evostore_core::DeploymentConfig {
        providers: 2,
        service_threads: 1,
        backend: evostore_core::BackendKind::Log { dir: dir.clone() },
        replication: evostore_core::ReplicationPolicy::default(),
        ..Default::default()
    };
    let g = seq(&[8, 16, 4]);
    {
        let dep = Deployment::new(cfg.clone());
        let client = dep.client();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        client.store_fresh(ModelId(1), &g, 0.5, &mut rng).unwrap();
        // Crash mid-retirement: drop the metadata directly, leaving the
        // tensors stranded on disk.
        let states = dep.provider_states();
        let host = ModelId(1).provider_for(2);
        states[host]
            .handle_retire_meta(evostore_core::messages::RetireMetaRequest { model: ModelId(1) })
            .unwrap();
        // (no decrement fan-out — the "crash")
    }
    let dep = Deployment::reopen(cfg).expect("recovery succeeds");
    let stats = dep.client().stats().unwrap();
    assert_eq!(stats.models, 0);
    assert_eq!(stats.tensors, 0, "orphans must be purged");
    dep.gc_audit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_reports_an_unopenable_provider_store_as_an_error() {
    // `provider-0/meta` is a regular file where the meta log's directory
    // should be: the store cannot open, and recovery must say so rather
    // than panic.
    let dir = std::env::temp_dir().join(format!("evostore-badmeta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("provider-0")).unwrap();
    std::fs::write(dir.join("provider-0/meta"), b"not a directory").unwrap();
    let err = Deployment::reopen(evostore_core::DeploymentConfig {
        providers: 2,
        backend: evostore_core::BackendKind::Log { dir: dir.clone() },
        ..Default::default()
    })
    .err()
    .expect("reopen over a broken meta store must fail");
    assert!(err.contains("provider 0 meta store"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn caching_client_serves_repeated_transfers_locally() {
    use evostore_core::CachingClient;

    let dep = Deployment::in_memory(3);
    let client = dep.client();
    let caching = CachingClient::new(dep.client(), 64 << 20);
    let base_g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    client
        .store_fresh(ModelId(1), &base_g, 0.9, &mut rng)
        .unwrap();

    // Two children transfer the same prefix from the same popular parent.
    let child_g = seq(&[8, 16, 16, 9]);
    let best = client
        .query_best_ancestor(&child_g)
        .unwrap()
        .into_inner()
        .unwrap();

    let (_, first) = caching.fetch_prefix(&best).unwrap();
    let (h0, m0) = caching.cache().stats();
    assert_eq!(h0, 0);
    assert_eq!(m0 as usize, first.len());

    let (_, second) = caching.fetch_prefix(&best).unwrap();
    let (h1, _m1) = caching.cache().stats();
    assert_eq!(h1 as usize, second.len(), "second transfer fully cached");
    for (k, t) in &second {
        assert_eq!(t, &first[k]);
    }

    // Full-model prefetch warms the remaining tensors.
    let n = caching.prefetch_model(ModelId(1)).unwrap();
    assert_eq!(n, 6);

    // Retiring through the caching client invalidates its tensors.
    caching.retire_model(ModelId(1)).unwrap();
    assert!(caching.cache().is_empty());
    dep.gc_audit().unwrap();
}

/// A candidate off the wire may not fit the ancestor as stored. Each way
/// it can miss — a prefix vertex past the match table, a prefix vertex
/// with no match, a match past the ancestor's owner map — is a protocol
/// error from both clients' `fetch_prefix`, never a panic.
#[test]
fn a_candidate_that_misses_its_ancestor_is_a_protocol_error_in_both_clients() {
    use evostore_core::{CachingClient, EvoError};
    use evostore_graph::{LcpCandidate, LcpResult};

    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let caching = CachingClient::new(dep.client(), 64 << 20);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let ancestor = seq(&[8, 16, 16, 4]);
    client
        .store_fresh(ModelId(1), &ancestor, 0.9, &mut rng)
        .unwrap();
    let candidate = |prefix: &[u32], matches: &[Option<u32>]| LcpCandidate {
        model: ModelId(1),
        quality: 0.9,
        lcp: LcpResult {
            prefix: prefix.iter().map(|&v| VertexId(v)).collect(),
            match_in_ancestor: matches.iter().map(|m| m.map(VertexId)).collect(),
        },
    };
    let cases = [
        ("past the match table", candidate(&[0, 5], &[Some(0)])),
        ("no match", candidate(&[0, 1], &[Some(0), None])),
        (
            "past the owner map",
            candidate(&[0], &[Some(ancestor.len() as u32)]),
        ),
    ];
    for (what, best) in &cases {
        let plain = client.fetch_prefix(best).map(drop);
        let cached = caching.fetch_prefix(best).map(drop);
        for (who, got) in [("client", plain), ("caching client", cached)] {
            assert!(
                matches!(got, Err(EvoError::Protocol(_))),
                "{who}, {what}: {got:?}"
            );
        }
    }
    // A candidate that fits still transfers.
    let fits = candidate(&[0, 1], &[Some(0), Some(1)]);
    assert!(!caching.fetch_prefix(&fits).unwrap().1.is_empty());
}
