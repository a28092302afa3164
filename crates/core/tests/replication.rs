//! End-to-end tests of the replication subsystem: deterministic replica
//! placement, R-way writes, read failover, replicated retirement with a
//! replica down, and anti-entropy repair converging `gc_audit` to clean
//! after fault recovery.

use std::collections::HashMap;

use evostore_core::{
    trained_tensors, Deployment, EvoError, EvoStoreClient, OwnerMap, ReplicationPolicy,
};
use evostore_graph::{
    flatten, Activation, ArchPattern, Architecture, CompactGraph, LayerConfig, LayerKind,
    LayerPattern,
};
use evostore_obs::FlightEvent;
use evostore_rpc::{FaultPlan, RetryPolicy};
use evostore_tensor::ModelId;
use proptest::prelude::*;
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

/// The first model id (from 1) whose primary is provider `want` of `n`.
fn model_on(want: usize, n: usize) -> ModelId {
    (1..)
        .map(ModelId)
        .find(|m| m.provider_for(n) == want)
        .unwrap()
}

/// Store a parent (primary on provider 1) and a derived child (primary
/// on provider 3), so at factor 2 over 4 providers their replica chains
/// `[1, 2]` and `[3, 0]` are disjoint. Returns `(parent, child)`.
fn store_parent_and_child(client: &EvoStoreClient, seed: u64) -> (ModelId, ModelId) {
    let n = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let parent = model_on(1, n);
    let child = model_on(3, n);
    let parent_g = seq(&[8, 16, 16, 4]);
    let child_g = seq(&[8, 16, 16, 5]);
    client
        .store_fresh(parent, &parent_g, 0.8, &mut rng)
        .unwrap();
    let best = client
        .query_best_ancestor(&child_g)
        .unwrap()
        .into_inner()
        .unwrap();
    let parent_meta = client.get_meta(parent).unwrap();
    let owner_map = OwnerMap::derive(child, &child_g, &best.lcp, &parent_meta.owner_map);
    let tensors: HashMap<_, _> = trained_tensors(&child_g, &owner_map, 42);
    client
        .store_model(child_g, owner_map, Some(parent), 0.9, &tensors)
        .unwrap();
    (parent, child)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replica_sets_are_deterministic_distinct_and_clamped(
        model in any::<u64>(),
        n in 1usize..9,
        factor in 0usize..12,
    ) {
        let policy = ReplicationPolicy::new(factor);
        let model = ModelId(model);
        let set = policy.replicas(model, n);
        // Exactly min(R, n) distinct providers — graceful at n < R.
        prop_assert_eq!(set.len(), factor.max(1).min(n));
        let mut dedup = set.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), set.len(), "replicas must be distinct");
        prop_assert!(set.iter().all(|&i| i < n));
        // Primary first, then the successor chain on the ring.
        prop_assert_eq!(set[0], model.provider_for(n));
        for (pos, &idx) in set.iter().enumerate() {
            prop_assert_eq!(idx, (set[0] + pos) % n);
        }
        // Deterministic: a second derivation is identical.
        prop_assert_eq!(set, policy.replicas(model, n));
    }
}

#[test]
fn reads_fail_over_to_a_replica_when_the_primary_is_down() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let (parent, _child) = store_parent_and_child(&client, 11);

    let primary = dep.provider_ids()[parent.provider_for(4)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(primary);

    // Metadata and every tensor come back from the surviving replica.
    let loaded = client.load_model(parent).unwrap();
    assert_eq!(
        loaded.tensors.len(),
        loaded.owner_map.all_tensor_keys().len()
    );
    assert!(
        client.telemetry().read_failovers() > 0,
        "failovers must be recorded"
    );

    plan.set_up(primary);
    client.load_model(parent).unwrap();
}

/// A fetch sends one `READ` per group's primary, all at once. The group
/// whose primary is down walks on to its replica, once: the primary's
/// leg spends one retry budget, not a second one on the walk, and the
/// other group, served by its own healthy primary, files no failover.
#[test]
fn a_fetch_fails_over_only_the_group_whose_primary_is_down() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let (parent, child) = store_parent_and_child(&client, 12);
    // The child's inherited tensors are read from the parent's chain
    // `[1, 2]`, its own from `[3, 0]`.
    let keys = client.get_meta(child).unwrap().owner_map.all_tensor_keys();
    assert!(keys.iter().any(|k| k.owner == parent) && keys.iter().any(|k| k.owner == child));
    let expected = client.fetch_tensors(&keys).unwrap();

    let primary = dep.provider_ids()[parent.provider_for(4)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(primary);
    let failovers = client.telemetry().read_failovers();
    let got = client.fetch_tensors(&keys).unwrap();

    assert_eq!(got, expected, "the replica serves byte-identical tensors");
    assert_eq!(client.telemetry().read_failovers(), failovers + 1);
    assert_eq!(
        plan.stats().unavailable,
        u64::from(client.retry_policy().max_attempts),
        "the primary's READ ran one retry budget"
    );
    let filed: Vec<(u32, u32)> = client
        .flight_recorder()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            FlightEvent::Failover { from, to, .. } => Some((from, to)),
            _ => None,
        })
        .collect();
    let replica = dep.provider_ids()[(parent.provider_for(4) + 1) % 4];
    assert_eq!(filed, vec![(primary.0, replica.0)]);
    // One hop to a successor replica, one failover on the op's ledger.
    assert_eq!(client.ledger().entry("fetch").unwrap().failovers, 1);
    assert_eq!(dep.fabric().bulk_regions(), 0);
}

/// A walk skips a down primary: the primary's call spends its retry
/// budget, then the first sibling serves, and the rest of the chain is
/// never tried.
#[test]
fn a_walk_skips_a_down_primary_and_is_served_by_its_sibling() {
    let dep = Deployment::in_memory_replicated(3, 3);
    let client = dep
        .client_builder()
        .retry_policy(RetryPolicy::default().with_attempts(2))
        .build();
    let model = model_on(0, 3);
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.7, &mut rng)
        .unwrap();
    let ids = dep.provider_ids();
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(7));
    plan.set_down(ids[0]);

    let meta = client.get_meta(model).unwrap();
    assert_eq!(meta.graph.len(), 3);
    // Two attempts on the down primary (one retry), one served by its sibling.
    assert_eq!(client.telemetry().rpc.retries(), 1);
    assert_eq!(client.telemetry().read_failovers(), 1);
    let filed: Vec<(u32, u32, String)> = client
        .flight_recorder()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            FlightEvent::Failover { from, to, what, .. } => Some((from, to, what)),
            _ => None,
        })
        .collect();
    assert_eq!(
        filed,
        vec![(ids[0].0, ids[1].0, "evostore.get_meta".to_string())]
    );
}

/// A replica that missed a write answers "not found", a handler error;
/// the walk still consults its sibling. Here the primary was down during
/// the store, so the store's own walk was served by the second replica,
/// and the primary came back without the model.
#[test]
fn a_walk_tries_the_sibling_of_a_replica_that_missed_the_write() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let model = model_on(1, 4);
    let (primary, replica) = (dep.provider_ids()[1], dep.provider_ids()[2]);
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(primary);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.7, &mut rng)
        .unwrap();
    assert_eq!(client.ledger().entry("store").unwrap().failovers, 1);
    assert_eq!(client.telemetry().under_replicated_stores(), 1);
    assert_eq!(
        client.telemetry().read_failovers(),
        0,
        "a store is not a read"
    );
    plan.set_up(primary);

    let loaded = client.load_model(model).unwrap();
    assert_eq!(
        loaded.tensors.len(),
        loaded.owner_map.all_tensor_keys().len()
    );
    // GET_META and the READ group each walked past the stale primary.
    assert_eq!(client.telemetry().read_failovers(), 2);
    let filed: Vec<(u32, u32, String)> = client
        .flight_recorder()
        .events()
        .into_iter()
        .filter_map(|e| match e {
            FlightEvent::Failover { from, to, what, .. } => Some((from, to, what)),
            _ => None,
        })
        .collect();
    let hop = |what: &str| (primary.0, replica.0, what.to_string());
    assert_eq!(
        filed,
        vec![
            hop("evostore.store"),
            hop("evostore.get_meta"),
            hop("evostore.read")
        ]
    );
}

/// When every replica of a chain fails, the walk returns the last one's
/// error, and each hop it took is one failover on the op's ledger.
#[test]
fn a_walk_over_a_dead_chain_returns_the_last_replicas_error() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let model = model_on(1, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.7, &mut rng)
        .unwrap();
    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();

    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(dep.provider_ids()[1]);
    plan.set_down(dep.provider_ids()[2]);
    let last = dep.provider_ids()[2];
    for err in [
        client.get_meta(model).unwrap_err(),
        client.fetch_tensors(&keys).unwrap_err(),
    ] {
        assert!(
            matches!(err, EvoError::Unavailable { endpoint } if endpoint == last),
            "got {err}"
        );
    }
    let fetch = client.ledger().entry("fetch").unwrap();
    assert_eq!((fetch.errors, fetch.failovers), (1, 1));
    assert_eq!(client.telemetry().read_failovers(), 0);
}

/// With one replica per model there is nowhere to fail over to: a store
/// to a down provider fails and charges no failover.
#[test]
fn a_store_with_no_replica_to_fail_over_to_charges_no_failover() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let model = model_on(0, 2);
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(dep.provider_ids()[0]);
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let err = client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.7, &mut rng)
        .unwrap_err();
    assert!(err.is_transient(), "got {err}");
    let store = client.ledger().entry("store").unwrap();
    assert_eq!((store.errors, store.failovers), (1, 0));
}

/// The acceptance scenario: with factor 2 and one provider held down,
/// fetches, LCP queries, pattern queries and retirement all succeed
/// without `Degraded`/`PartialFailure`; after recovery plus `repair()`
/// (and draining the parked decrement queue) the GC audit is clean.
#[test]
fn replicated_deployment_stays_available_and_repairs_clean() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let (parent, child) = store_parent_and_child(&client, 12);

    let down_ep = dep.provider_ids()[parent.provider_for(4)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(down_ep);

    // fetch_model: both models load completely through failover.
    client.load_model(parent).unwrap();
    let loaded_child = client.load_model(child).unwrap();
    assert_eq!(
        loaded_child.tensors.len(),
        loaded_child.owner_map.all_tensor_keys().len()
    );

    // query_lcp: full coverage through the surviving replicas — the
    // answer is NOT degraded, unlike the unreplicated deployment.
    let probe = seq(&[8, 16, 16, 6]);
    let got = client.query_best_ancestor(&probe).unwrap();
    assert!(!got.is_partial(), "chains still covered: not degraded");
    assert_eq!(got.into_inner().unwrap().model, child);
    assert_eq!(client.telemetry().degraded_queries(), 0);

    // Pattern queries dedup replica answers: the child appears once.
    // (The 5-unit head exists only in the child's graph.)
    let pat = ArchPattern::any().with_layer(LayerPattern::DenseUnits { min: 5, max: 5 });
    let found = client.find_matching(&pat).unwrap();
    assert!(!found.is_partial());
    let matches = found.into_inner();
    assert_eq!(matches.iter().filter(|(m, _)| *m == child).count(), 1);

    // retire_model succeeds; legs to the down replica park.
    let outcome = client.retire_model(child).unwrap();
    assert!(
        outcome.refs_parked > 0,
        "decrements for the down replica must park"
    );
    assert!(client.get_meta(child).is_err(), "child is gone");

    // Recovery: the provider returns with stale state (missed the
    // retirement and the pin decrements). Repair converges it.
    plan.set_up(down_ep);
    let report = dep.repair().unwrap();
    assert!(report.unreachable.is_empty());
    assert_eq!(report.missing_payloads, 0);

    // The parked decrements re-issue against the repaired provider and
    // hit the retirement fence repair seeded — no double-free.
    let flushed = client.flush_pending_decrements().unwrap();
    assert_eq!(flushed, outcome.refs_parked);
    dep.gc_audit().unwrap();

    // Parent survives the churn fully loadable from either replica.
    client.load_model(parent).unwrap();
}

#[test]
fn repair_rereplicates_stores_missed_by_a_down_mirror() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(13);

    // Chain of the model: [1, 2]. Hold the mirror (2) down during the
    // store — the write succeeds on the primary, leaving debt.
    let model = model_on(1, 4);
    let mirror = dep.provider_ids()[2];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(mirror);

    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.7, &mut rng)
        .unwrap();
    assert!(
        client.telemetry().under_replicated_stores() > 0,
        "missed mirror leg must be recorded as debt"
    );

    plan.set_up(mirror);
    assert!(
        dep.gc_audit().is_err(),
        "audit must flag the under-replicated model"
    );

    let report = dep.repair().unwrap();
    assert!(
        report.models_synced >= 1,
        "mirror re-replicated: {report:?}"
    );
    assert_eq!(report.missing_payloads, 0);
    dep.gc_audit().unwrap();

    // The re-replicated copy actually serves reads: take the primary
    // down and load everything from the repaired mirror.
    plan.set_down(dep.provider_ids()[1]);
    let loaded = client.load_model(model).unwrap();
    assert_eq!(
        loaded.tensors.len(),
        loaded.owner_map.all_tensor_keys().len()
    );
}

#[test]
fn repair_is_idempotent_on_a_healthy_deployment() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    store_parent_and_child(&client, 14);

    let first = dep.repair().unwrap();
    assert_eq!(first.models_synced, 0, "{first:?}");
    assert_eq!(first.refs_adjusted, 0, "{first:?}");
    assert_eq!(first.orphans_removed, 0, "{first:?}");
    assert_eq!(first.retirements_applied, 0, "{first:?}");
    assert_eq!(first.missing_payloads, 0, "{first:?}");

    let second = dep.repair().unwrap();
    assert_eq!(second.models_synced, 0, "{second:?}");
    assert_eq!(second.refs_adjusted, 0, "{second:?}");
    dep.gc_audit().unwrap();
}

#[test]
fn queries_fail_typed_when_a_whole_chain_is_down() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    store_parent_and_child(&client, 15);

    // Providers 1 and 2 are one full chain at factor 2: models primary
    // on 1 lose both replicas, so coverage is genuinely gone.
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(dep.provider_ids()[1]);
    plan.set_down(dep.provider_ids()[2]);

    let err = client
        .query_best_ancestor(&seq(&[8, 16, 16, 6]))
        .unwrap_err();
    assert!(
        matches!(err, EvoError::PartialFailure { .. }),
        "lost chain must surface as quorum failure, got {err}"
    );
    assert!(err.is_transient());
}

#[test]
fn dropping_the_last_client_flushes_parked_decrements() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let (parent, child) = store_parent_and_child(&client, 16);

    let down_ep = dep.provider_ids()[parent.provider_for(4)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(down_ep);
    let outcome = client.retire_model(child).unwrap();
    assert!(outcome.refs_parked > 0);

    // The provider comes back while the decrements are still parked;
    // the client exits without an explicit flush.
    plan.set_up(down_ep);
    drop(client);

    // Drop drained the queue: counts converged without repair.
    dep.gc_audit().unwrap();
}
