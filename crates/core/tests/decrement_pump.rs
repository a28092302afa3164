//! The decrement pump: a retire is one client round, and the provider
//! that drops the record sends its `DECR_REFS` legs — each applied once
//! per target whichever replicas send it, retried while its target is
//! down, dropped with the pump at a restart and fenced after a repair.
//! Each test runs under both store policies.

use std::collections::HashMap;
use std::path::PathBuf;

use evostore_core::{
    methods, trained_tensors, BackendKind, Deployment, DeploymentConfig, EvoStoreClient, OwnerMap,
    ReplicationPolicy, StorePolicy,
};
use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore_obs::FlightEvent;
use evostore_rpc::{FaultAction, FaultPlan, FaultRule, Method};
use evostore_tensor::{ModelId, TensorKey};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const POLICIES: [StorePolicy; 2] = [StorePolicy::Whole, StorePolicy::ChunkedWithDelta];

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

/// Four providers keeping two replicas, under `policy`, on `backend`.
fn config(policy: StorePolicy, backend: BackendKind) -> DeploymentConfig {
    DeploymentConfig {
        providers: 4,
        replication: ReplicationPolicy::new(2),
        store_policy: policy,
        backend,
        ..Default::default()
    }
}

/// A parent (chain `[1, 2]`) and a child derived from it (chain
/// `[3, 0]`), and the keys the child inherits: retiring the child sends
/// legs to all four providers, from both of its replicas.
struct Lineage {
    parent: ModelId,
    child: ModelId,
    inherited: Vec<TensorKey>,
}

fn store_lineage(client: &EvoStoreClient, seed: u64) -> Lineage {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (parent, child) = (model_on(1, 4), model_on(3, 4));
    let child_g = seq(&[8, 16, 16, 5]);
    client
        .store_fresh(parent, &seq(&[8, 16, 16, 4]), 0.8, &mut rng)
        .unwrap();
    let best = client
        .query_best_ancestor(&child_g)
        .unwrap()
        .into_inner()
        .unwrap();
    let parent_meta = client.get_meta(parent).unwrap();
    let owner_map = OwnerMap::derive(child, &child_g, &best.lcp, &parent_meta.owner_map);
    let inherited: Vec<TensorKey> = owner_map
        .all_tensor_keys()
        .into_iter()
        .filter(|k| k.owner == parent)
        .collect();
    assert!(!inherited.is_empty());
    let tensors: HashMap<_, _> = trained_tensors(&child_g, &owner_map, seed);
    client
        .store_model(child_g, owner_map, Some(parent), 0.9, &tensors)
        .unwrap();
    Lineage {
        parent,
        child,
        inherited,
    }
}

/// Refcount of `key` on every provider hosting it.
fn hosted_refs(dep: &Deployment, key: TensorKey) -> Vec<u64> {
    dep.provider_states()
        .iter()
        .filter(|p| p.hosted_tensor_keys().contains(&key))
        .map(|p| p.tensor_refs(key))
        .collect()
}

/// Every inherited key is back to the parent's one reference on each of
/// its two replicas, and the parent loads.
fn parent_intact(dep: &Deployment, client: &EvoStoreClient, l: &Lineage, what: &str) {
    for key in &l.inherited {
        assert_eq!(hosted_refs(dep, *key), vec![1, 1], "{what}: {key}");
    }
    client.load_model(l.parent).unwrap();
}

/// The pumps' legs held, retried and dropped, over every provider.
fn pump(dep: &Deployment) -> (u64, u64, u64) {
    dep.stats().iter().fold((0, 0, 0), |(q, r, d), s| {
        (
            q + s.gc_legs_queued,
            r + s.gc_legs_retried,
            d + s.gc_legs_dropped,
        )
    })
}

/// A scratch directory for a log-backed deployment.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "evostore-decrement-pump-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (a) At r = 2 both replicas of the retired child decrement every
/// target — each applies its own leg in place and sends the other three —
/// and each of the four targets applies its decrement once.
#[test]
fn each_target_applies_a_retirements_decrement_once() {
    for policy in POLICIES {
        let dep = Deployment::new(config(policy, BackendKind::Memory));
        let client = dep.client();
        let l = store_lineage(&client, 31);
        // A zero delay counts every delivery and changes nothing else.
        let plan = dep.fabric().install_fault_plan(
            FaultPlan::new(0).rule(
                FaultRule::new(FaultAction::Delay(std::time::Duration::ZERO))
                    .on_method(methods::DecrRefs::METHOD),
            ),
        );
        client.retire_model(l.child).unwrap();
        assert_eq!(dep.drain_decrements(), 0, "{policy:?}");
        assert_eq!(
            plan.stats().delays,
            6,
            "{policy:?}: 2 senders × 3 other targets"
        );
        parent_intact(&dep, &client, &l, &format!("{policy:?}"));
        assert!(dep
            .provider_states()
            .iter()
            .all(|p| p.hosted_tensor_keys().iter().all(|k| k.owner != l.child)));
        dep.gc_audit().unwrap();
        assert_eq!(pump(&dep), (0, 0, 0), "{policy:?}");
    }
}

/// (b) With a target down the legs aimed at it retry; once it is back,
/// the counts converge and nothing applied twice.
#[test]
fn legs_to_a_down_target_retry_until_it_is_back() {
    for policy in POLICIES {
        let dep = Deployment::new(config(policy, BackendKind::Memory));
        let client = dep.client();
        let l = store_lineage(&client, 32);
        let down = dep.provider_ids()[1];
        let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
        plan.set_down(down);

        client.retire_model(l.child).unwrap();
        // Both of the child's replicas hold a leg for the down target.
        assert_eq!(dep.drain_decrements(), 2, "{policy:?}");
        assert!(dep.drain_decrements() > 0, "{policy:?}: still down");
        let (queued, retried, dropped) = pump(&dep);
        assert_eq!((queued, dropped), (2, 0), "{policy:?}");
        assert!(retried >= 4, "{policy:?}: {retried} retries");
        assert!(dep.gc_audit().is_err(), "{policy:?}: refs over-pinned");

        plan.set_up(down);
        assert_eq!(dep.drain_decrements(), 0, "{policy:?}");
        parent_intact(&dep, &client, &l, &format!("{policy:?}"));
        dep.gc_audit().unwrap();
    }
}

/// (c) A restart with legs still queued drops them: `reopen`'s census
/// installs every count from the live records, and nothing is re-sent.
#[test]
fn reopen_with_legs_queued_recounts_and_resends_nothing() {
    for policy in POLICIES {
        let dir = scratch(&format!("reopen-{policy:?}"));
        let cfg = config(policy, BackendKind::Log { dir: dir.clone() });
        let l = {
            let dep = Deployment::new(cfg.clone());
            let client = dep.client();
            let l = store_lineage(&client, 33);
            let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
            plan.set_down(dep.provider_ids()[2]);
            client.retire_model(l.child).unwrap();
            assert!(dep.drain_decrements() > 0, "{policy:?}");
            l
        };

        let dep = Deployment::reopen(cfg).expect("recovery succeeds");
        assert_eq!(pump(&dep), (0, 0, 0), "{policy:?}: nothing queued");
        dep.gc_audit().unwrap();
        assert_eq!(
            dep.fabric().stats().queued_calls,
            0,
            "{policy:?}: nothing sent"
        );
        parent_intact(&dep, &dep.client(), &l, &format!("{policy:?}"));
        drop(dep);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// (d) A leg that lands after `repair` settled the counts hits the fence
/// the pass seeded: it no-ops instead of decrementing twice.
#[test]
fn a_leg_that_lands_after_repair_hits_the_fence() {
    for policy in POLICIES {
        let dep = Deployment::new(config(policy, BackendKind::Memory));
        let client = dep.client();
        let l = store_lineage(&client, 34);
        // Provider 1 answers repair but refuses decrements.
        let refused = dep.provider_ids()[1];
        dep.fabric().install_fault_plan(
            FaultPlan::new(0).rule(
                FaultRule::new(FaultAction::Unavailable)
                    .on_endpoint(refused)
                    .on_method(methods::DecrRefs::METHOD),
            ),
        );
        client.retire_model(l.child).unwrap();

        let report = dep.repair().unwrap();
        assert_eq!(report.decrements_queued, 2, "{policy:?}: {report:?}");
        assert!(report.refs_adjusted > 0, "{policy:?}: {report:?}");
        dep.fabric().clear_fault_plan();
        assert_eq!(dep.drain_decrements(), 0, "{policy:?}");
        parent_intact(&dep, &client, &l, &format!("{policy:?}"));
        dep.gc_audit().unwrap();
    }
}

/// (e) A retire is exactly one client round: one `RETIRE_META` leg per
/// replica, and no `DECR_REFS` from the client.
#[test]
fn a_retire_is_one_client_round() {
    for policy in POLICIES {
        let dep = Deployment::new(config(policy, BackendKind::Memory));
        let client = dep.client();
        let l = store_lineage(&client, 35);
        let calls = client.telemetry().rpc.calls();
        client.retire_model(l.child).unwrap();
        assert_eq!(
            client.telemetry().rpc.calls() - calls,
            2,
            "{policy:?}: one leg per replica"
        );
        let root = dep
            .obs()
            .recorders()
            .iter()
            .flat_map(|r| r.events())
            .find_map(|e| match e {
                FlightEvent::Span(s) if s.name == "retire_model" => Some(s),
                _ => None,
            })
            .expect("the retire's root span");
        let legs: Vec<String> = dep
            .obs()
            .trace_spans(root.trace_id)
            .into_iter()
            .filter(|s| s.parent_span_id == root.span_id)
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(
            legs,
            vec![methods::RetireMeta::METHOD; 2],
            "{policy:?}: the round under the root"
        );
        assert_eq!(dep.drain_decrements(), 0);
        dep.gc_audit().unwrap();
    }
}
