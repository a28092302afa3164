//! Fault-injection tests of the resilient client: degraded LCP queries
//! under provider loss, quorum failure, retry exhaustion, bulk-region
//! fault surfaces, and eventually-consistent GC via parked decrements.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use evostore_core::messages::{ManifestEntry, ReadRangeReply, ReadTensorsReply, RefsRequest};
use evostore_core::methods;
use evostore_core::{trained_tensors, Deployment, EvoError, EvoStoreClient, OwnerMap};
use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore_rpc::{FaultAction, FaultPlan, FaultRule, Method, RetryPolicy, RpcError};
use evostore_tensor::{write_tensor, DType, ModelId, TensorData, TensorKey, VertexId};
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

/// The first model id (from 1) hashing to provider index `want` of `n`.
fn model_on(want: usize, n: usize) -> ModelId {
    (1..)
        .map(ModelId)
        .find(|m| m.provider_for(n) == want)
        .unwrap()
}

/// Store a parent and a child deriving its shared prefix, placed on
/// different providers. Returns `(parent, child)`.
fn store_parent_and_child(client: &EvoStoreClient, n: usize, seed: u64) -> (ModelId, ModelId) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let parent = model_on(1, n);
    let child = model_on(2, n);
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

#[test]
fn lcp_query_degrades_with_one_provider_down() {
    let dep = Deployment::in_memory(4);
    let client = dep.client_builder().min_quorum(2).build();
    let mut rng = ChaCha8Rng::seed_from_u64(1);

    let parent = model_on(1, 4);
    let parent_g = seq(&[8, 16, 16, 4]);
    client
        .store_fresh(parent, &parent_g, 0.8, &mut rng)
        .unwrap();

    // Take down a provider that does NOT host the parent's catalog entry.
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    let down_ep = dep.provider_ids()[0];
    plan.set_down(down_ep);

    let child_g = seq(&[8, 16, 16, 5]);
    let got = client.query_best_ancestor(&child_g).unwrap();
    assert!(got.is_partial(), "one provider was unreachable");
    assert_eq!(got.unreachable, vec![down_ep]);
    let best = got.into_inner().expect("parent is reachable");
    assert_eq!(best.model, parent);
    assert_eq!(best.lcp.len(), 3); // input + 2 shared dense layers

    assert_eq!(client.telemetry().degraded_queries(), 1);
    assert!(client.telemetry().rpc.retries() > 0, "down leg was retried");
}

#[test]
fn lcp_query_fails_typed_below_quorum() {
    let dep = Deployment::in_memory(4);
    let client = dep.client_builder().min_quorum(2).build();
    let mut rng = ChaCha8Rng::seed_from_u64(2);

    let parent = model_on(1, 4);
    client
        .store_fresh(parent, &seq(&[8, 16, 4]), 0.8, &mut rng)
        .unwrap();

    // 3 of 4 providers down, including quorum: only the parent's host
    // answers, below min_quorum = 2.
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    for idx in [0usize, 2, 3] {
        plan.set_down(dep.provider_ids()[idx]);
    }

    let err = client.query_best_ancestor(&seq(&[8, 16, 5])).unwrap_err();
    match err {
        EvoError::PartialFailure { ref failed } => {
            assert_eq!(failed.len(), 3, "three providers unreachable: {failed:?}");
        }
        other => panic!("expected PartialFailure, got {other}"),
    }
    assert!(err.is_transient(), "quorum loss is retryable later");
    assert_eq!(client.telemetry().degraded_queries(), 0);
}

#[test]
fn unary_retries_flaky_endpoint_then_exhausts_persistent_one() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(3);

    let model = ModelId(1);
    client
        .store_fresh(model, &seq(&[4, 8, 2]), 0.5, &mut rng)
        .unwrap();
    let host = dep.provider_ids()[model.provider_for(2)];

    // Flaky: the first two calls to the host fail, the third succeeds —
    // within the default 3-attempt policy.
    dep.fabric().install_fault_plan(
        FaultPlan::new(0).rule(
            FaultRule::new(FaultAction::Unavailable)
                .on_endpoint(host)
                .first(2),
        ),
    );
    let meta = client.get_meta(model).expect("recovered by retries");
    assert_eq!(meta.graph.len(), 3);
    assert_eq!(client.telemetry().rpc.retries(), 2);
    assert_eq!(client.telemetry().rpc.exhausted(), 0);

    // Persistent: every call fails; the policy exhausts and surfaces a
    // typed transient error, not a panic or a hang.
    dep.fabric().install_fault_plan(
        FaultPlan::new(0).rule(FaultRule::new(FaultAction::Unavailable).on_endpoint(host)),
    );
    let err = client.get_meta(model).unwrap_err();
    assert!(
        matches!(err, EvoError::Unavailable { endpoint } if endpoint == host),
        "got {err}"
    );
    assert!(err.is_transient());
    assert_eq!(client.telemetry().rpc.exhausted(), 1);

    // Clearing the plan restores normal service.
    dep.fabric().clear_fault_plan();
    client.get_meta(model).unwrap();
}

#[test]
fn fetch_from_down_provider_is_typed_not_panic() {
    let dep = Deployment::in_memory(2);
    let client = dep
        .client_builder()
        .retry_policy(RetryPolicy::default().with_attempts(2))
        .build();
    let mut rng = ChaCha8Rng::seed_from_u64(4);

    let model = ModelId(1);
    client
        .store_fresh(model, &seq(&[4, 8, 2]), 0.5, &mut rng)
        .unwrap();

    let host = dep.provider_ids()[model.provider_for(2)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(host);

    let err = client.load_model(model).unwrap_err();
    assert!(
        err.is_transient(),
        "down provider is a transient failure: {err}"
    );

    plan.set_up(host);
    client.load_model(model).unwrap();
}

#[test]
fn bulk_get_on_withdrawn_or_down_region_errors_cleanly() {
    let dep = Deployment::in_memory(2);
    let owner = dep.provider_ids()[0];
    let fabric = dep.fabric();

    let handle = fabric.bulk_expose_vec_owned(vec![bytes::Bytes::from_static(b"payload")], owner);
    let plan = fabric.install_fault_plan(FaultPlan::new(0));

    // Owner down: the region is unreadable but not gone.
    plan.set_down(owner);
    assert!(matches!(fabric.bulk_get_vec(handle), Err(RpcError::Unavailable(ep)) if ep == owner));
    plan.set_up(owner);
    assert_eq!(
        fabric.bulk_get_vec(handle).unwrap().to_bytes().as_ref(),
        b"payload"
    );

    // Withdrawn: permanently gone — an error, never a panic.
    assert!(fabric.bulk_release(handle));
    let err = fabric.bulk_get_vec(handle).unwrap_err();
    assert!(matches!(err, RpcError::NoSuchBulk(_)), "got {err}");
    assert!(!err.is_transient(), "withdrawal is permanent");
}

/// Regression: a pull that fails after the provider has answered must
/// still withdraw the region the provider exposed for it — `fetch_from`,
/// `fetch_tensor_slice` and `load_optimizer_state` used to return through
/// `?` ahead of `bulk_release`, leaving the region (and the record
/// buffers it pins) registered for good. A stand-in provider exposes its
/// reply regions under an owner the fault plan holds down, so each pull
/// fails in transit; the last leg pulls fine and fails in the decode.
#[test]
fn a_failed_pull_still_releases_the_providers_region() {
    let fabric = evostore_rpc::Fabric::new();
    let host = fabric.create_endpoint(1);
    let owner = fabric.create_endpoint(1).id();
    let expose = {
        let fabric = Arc::clone(&fabric);
        move |record: bytes::Bytes| fabric.bulk_expose_vec_owned(vec![record], owner).0
    };
    let key = TensorKey::new(ModelId(1), VertexId(0), 0);
    let manifest = move |len: usize| {
        vec![ManifestEntry {
            key,
            offset: 0,
            len: len as u64,
        }]
    };
    let record = write_tensor(&TensorData::zeros(DType::F32, vec![4]));
    {
        let (expose, record) = (expose.clone(), record.clone());
        host.serve(methods::Read, move |_| {
            Ok(ReadTensorsReply {
                manifest: manifest(record.len()),
                bulk: expose(record.clone()),
            })
        });
    }
    {
        let (expose, record) = (expose.clone(), record.clone());
        host.serve(methods::ReadRange, move |_| {
            Ok(ReadRangeReply {
                dtype_tag: DType::F32.tag(),
                bulk: expose(record.clone()),
            })
        });
    }
    host.serve(methods::LoadOptimizer, move |_| {
        // Not a tensor record: the pull succeeds, the decode cannot.
        let garbage = bytes::Bytes::from_static(b"not a tensor record");
        Ok(ReadTensorsReply {
            manifest: manifest(garbage.len()),
            bulk: expose(garbage),
        })
    });

    let client = EvoStoreClient::builder(Arc::clone(&fabric))
        .providers(vec![host.id()])
        .build();
    let plan = fabric.install_fault_plan(FaultPlan::new(0));
    plan.set_down(owner);

    let err = client.fetch_tensors(&[key]).unwrap_err();
    assert!(
        err.is_transient(),
        "a region in transit fault is transient: {err}"
    );
    assert_eq!(fabric.bulk_regions(), 0, "fetch_tensors leaked its region");
    let err = client.fetch_tensor_slice(key, 0, 2).unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert_eq!(
        fabric.bulk_regions(),
        0,
        "fetch_tensor_slice leaked its region"
    );
    let err = client.load_optimizer_state(ModelId(1)).unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert_eq!(
        fabric.bulk_regions(),
        0,
        "load_optimizer_state leaked its region"
    );

    plan.set_up(owner);
    let err = client.load_optimizer_state(ModelId(1)).unwrap_err();
    assert!(matches!(err, EvoError::Corrupt { .. }), "got {err}");
    assert_eq!(
        fabric.bulk_regions(),
        0,
        "a failed decode leaked its region"
    );
    assert_eq!(plan.stats().bulk_rejections, 3);
}

#[test]
fn transient_decrement_failures_park_and_flush_for_consistent_gc() {
    let n = 4;
    let dep = Deployment::in_memory(n);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(5);

    // Parent and child on different providers, so retiring the child
    // decrements refs on the parent's host (inherited prefix) and on its
    // own host (self-owned tensors).
    let parent = model_on(1, n);
    let child = model_on(2, n);
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
        .store_model(child_g.clone(), owner_map, Some(parent), 0.9, &tensors)
        .unwrap();

    // The parent's host goes down; retire the child anyway.
    let parent_host = dep.provider_ids()[parent.provider_for(n)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(parent_host);

    let outcome = client.retire_model(child).unwrap();
    assert!(
        outcome.refs_parked > 0,
        "inherited decrements must be parked"
    );
    assert_eq!(client.pending_decrement_count(), outcome.refs_parked);
    assert_eq!(
        client.telemetry().parked_decrements(),
        outcome.refs_parked as u64
    );
    // The child is gone even though GC is still pending.
    assert!(client.get_meta(child).is_err());

    // Refcounts are over-pinned until the flush — audit must fail.
    assert!(
        dep.gc_audit().is_err(),
        "parked decrements leave refs over-pinned"
    );

    // Recovery: the host comes back, the queue drains, GC converges.
    plan.set_up(parent_host);
    let flushed = client.flush_pending_decrements().unwrap();
    assert_eq!(flushed, outcome.refs_parked);
    assert_eq!(client.pending_decrement_count(), 0);
    dep.gc_audit().unwrap();

    // The parent is intact and fully loadable after the churn.
    let loaded = client.load_model(parent).unwrap();
    assert_eq!(
        loaded.tensors.len(),
        parent_meta.owner_map.all_tensor_keys().len()
    );
}

/// Regression: a store that fails after pinning rolls its pins back, and
/// a rollback leg that is still failing transiently after its retries
/// used to be dropped — leaking the pin for good. It is parked like a
/// retirement's decrement, so a flush settles it.
#[test]
fn a_failed_stores_transient_rollback_legs_park_instead_of_leaking_pins() {
    let n = 4;
    let dep = Deployment::in_memory(n);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(9);

    // The inherited tensors live on B (the parent's host); the child's
    // store targets A.
    let parent = model_on(1, n);
    let child = model_on(2, n);
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
    let inherited: usize = owner_map
        .inherited()
        .map(|(_, o)| o.tensor_keys().count())
        .sum();
    assert!(inherited > 0);
    let tensors: HashMap<_, _> = trained_tensors(&child_g, &owner_map, 42);

    let (a, b) = (dep.provider_ids()[2], dep.provider_ids()[1]);
    dep.fabric().install_fault_plan(
        FaultPlan::new(0)
            .rule(
                FaultRule::new(FaultAction::Timeout)
                    .on_endpoint(a)
                    .on_method(methods::Store::METHOD),
            )
            .rule(
                FaultRule::new(FaultAction::Unavailable)
                    .on_endpoint(b)
                    .on_method(methods::DecrRefs::METHOD),
            ),
    );
    let err = client
        .store_model(child_g, owner_map, Some(parent), 0.9, &tensors)
        .unwrap_err();
    assert!(err.is_transient(), "a timed-out store is retryable: {err}");
    assert_eq!(client.pending_decrement_count(), inherited);
    assert_eq!(client.telemetry().parked_decrements(), inherited as u64);

    dep.fabric().clear_fault_plan();
    assert_eq!(client.flush_pending_decrements().unwrap(), inherited);
    assert_eq!(client.pending_decrement_count(), 0);
    dep.gc_audit().unwrap();
}

#[test]
fn retirement_decrements_apply_once_under_dropped_replies() {
    let n = 4;
    let dep = Deployment::in_memory(n);
    let client = dep
        .client_builder()
        .retry_policy(RetryPolicy::default().with_timeout(Duration::from_millis(100)))
        .build();
    let (parent, child) = store_parent_and_child(&client, n, 7);

    // Both DECR_REFS legs of the retirement lose their first reply
    // *after* the handler ran — the duplicated-side-effect hazard: the
    // client cannot tell a lost reply from a lost request, so it retries.
    dep.fabric().install_fault_plan(
        FaultPlan::new(0).rule(
            FaultRule::new(FaultAction::DropReply)
                .on_method(methods::DecrRefs::METHOD)
                .first(2),
        ),
    );

    let outcome = client.retire_model(child).unwrap();
    assert_eq!(
        outcome.refs_parked, 0,
        "retries recovered the dropped replies"
    );
    assert!(client.telemetry().rpc.retries() >= 1);
    dep.fabric().clear_fault_plan();

    // The duplicate deliveries were suppressed provider-side (op_id
    // dedup): counts are exact. A double decrement would have reclaimed
    // the shared prefix out from under the still-stored parent.
    dep.gc_audit().unwrap();
    client.load_model(parent).unwrap();
}

#[test]
fn permanent_decrement_leg_does_not_discard_transient_legs() {
    let n = 4;
    let dep = Deployment::in_memory(n);
    let client = dep.client();
    let (parent, child) = store_parent_and_child(&client, n, 8);

    // Sabotage the child's self-owned tensors so its own host's
    // decrement leg fails *permanently* (keys no longer stored), while
    // the parent's host goes down so the inherited leg fails transiently.
    let child_meta = client.get_meta(child).unwrap();
    let self_keys: Vec<_> = child_meta
        .owner_map
        .self_owned()
        .flat_map(|v| {
            child_meta
                .owner_map
                .vertex(v)
                .tensor_keys()
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(!self_keys.is_empty());
    dep.provider_states()[child.provider_for(n)]
        .handle_decr_refs(RefsRequest::new(self_keys))
        .unwrap();

    let parent_host = dep.provider_ids()[parent.provider_for(n)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(parent_host);

    let err = client.retire_model(child).unwrap_err();
    assert!(
        !err.is_transient(),
        "self-owned leg failed permanently: {err}"
    );
    // The inherited leg's transient failure was still parked — not
    // discarded by the permanent error on the sibling leg.
    assert!(
        client.pending_decrement_count() > 0,
        "transient leg must be parked despite the permanent failure"
    );

    // Recovery drains the queue and unpins the parent-host refs.
    plan.set_up(parent_host);
    let flushed = client.flush_pending_decrements().unwrap();
    assert!(flushed > 0);
    assert_eq!(client.pending_decrement_count(), 0);
}

#[test]
fn parked_decrements_flush_opportunistically_on_next_retire() {
    let n = 4;
    let dep = Deployment::in_memory(n);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(6);

    let parent = model_on(1, n);
    let child = model_on(2, n);
    let other = model_on(3, n);
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
        .store_model(child_g.clone(), owner_map, Some(parent), 0.9, &tensors)
        .unwrap();
    client
        .store_fresh(other, &seq(&[6, 12, 3]), 0.4, &mut rng)
        .unwrap();

    let parent_host = dep.provider_ids()[parent.provider_for(n)];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(parent_host);
    let parked = client.retire_model(child).unwrap().refs_parked;
    assert!(parked > 0);

    // Next retirement drains the queue first — no explicit flush call.
    plan.set_up(parent_host);
    client.retire_model(other).unwrap();
    assert_eq!(client.pending_decrement_count(), 0);
    dep.gc_audit().unwrap();
}
