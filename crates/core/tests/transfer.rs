//! End-to-end tests of the derivative-aware transfer plane: on the
//! chunked substrate, repair of derived-model churn ships
//! chunk-negotiated deltas instead of materialized payloads, the
//! materialized fallback (reached the way production reaches it: a
//! failed negotiation leg, injected with a fault rule) converges to an
//! identical catalog, shipped chains survive provider reopen with their
//! references on their bases, a shipped delta lands only where its
//! header depth is its chain's, and repair of a deep chain is
//! idempotent; on whole records, repair ships materialized records
//! without opening a negotiation, and every chunk method is refused.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use evostore_core::messages::{
    DigestRequest, HaveChunksRequest, ReadChunksRequest, SyncChunksRequest, TransferManifestRequest,
};
use evostore_core::methods;
use evostore_core::{
    random_tensors, BackendKind, Deployment, DeploymentConfig, OwnerMap, ReplicationPolicy,
    StorePolicy,
};
use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore_rpc::{
    unary, EndpointId, FaultAction, FaultPlan, FaultRule, Method, RetryPolicy, RpcError,
};
use evostore_tensor::{ModelId, TensorData, TensorKey};
use proptest::prelude::*;
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

/// Model ids (ascending from 1) whose primary is provider `want` of `n`
/// — keeps a whole lineage on one replica chain.
fn models_on(want: usize, n: usize) -> impl Iterator<Item = ModelId> {
    (1u64..)
        .map(ModelId)
        .filter(move |m| m.provider_for(n) == want)
}

/// Parent tensors indexed by (vertex, slot) — the coordinates delta
/// encoding matches bases on.
fn by_vertex_slot(tensors: &HashMap<TensorKey, TensorData>) -> HashMap<(u32, u32), TensorData> {
    tensors
        .iter()
        .map(|(k, t)| ((k.vertex.0, k.slot), t.clone()))
        .collect()
}

/// A fine-tuned generation: every tensor of `map` (a fresh owner map,
/// so the store pins nothing and survives a down mirror) is a sparse
/// perturbation of the parent's tensor at the same vertex/slot, so the
/// provider delta-encodes it against the co-located base.
fn finetuned(
    map: &OwnerMap,
    parent_tensors: &HashMap<TensorKey, TensorData>,
    rng: &mut ChaCha8Rng,
) -> HashMap<TensorKey, TensorData> {
    let prev = by_vertex_slot(parent_tensors);
    map.all_tensor_keys()
        .into_iter()
        .map(|k| {
            let t = prev[&(k.vertex.0, k.slot)].perturbed_sparse(rng, 0.05);
            (k, t)
        })
        .collect()
}

/// The fault plan of one plane. The negotiated plane runs fault-free;
/// the materialized reference plane fails every call of `method` (the
/// first leg of a negotiation), which is exactly how a deployment ends
/// up on the materialized fallback.
fn plane_faults(negotiated: bool, method: &str) -> FaultPlan {
    let plan = FaultPlan::new(0);
    if negotiated {
        plan
    } else {
        plan.rule(FaultRule::new(FaultAction::Unavailable).on_method(method))
    }
}

/// The acceptance scenario on one plane: a parent model plus four
/// fine-tuned children on the same replica chain `[1, 2]`, all children
/// stored while the mirror is down, then repair. Returns the converged
/// deployment, the parent id and every child's expected tensors.
#[allow(clippy::type_complexity)]
fn churn_plane(
    negotiated: bool,
) -> (
    Deployment,
    ModelId,
    Vec<(ModelId, HashMap<TensorKey, TensorData>)>,
) {
    let dep = Deployment::new(DeploymentConfig {
        providers: 4,
        replication: ReplicationPolicy::new(2),
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    });
    let client = dep.client();
    let g = seq(&[8, 32, 32, 8]);
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    let mut ids = models_on(1, 4);
    let parent = ids.next().unwrap();
    let parent_tensors = random_tensors(parent, &g, &mut rng);
    client
        .store_model(
            g.clone(),
            OwnerMap::fresh(parent, &g),
            None,
            0.5,
            &parent_tensors,
        )
        .unwrap();

    // The mirror misses every derived generation.
    let mirror = dep.provider_ids()[2];
    let plan = dep
        .fabric()
        .install_fault_plan(plane_faults(negotiated, methods::TransferManifest::METHOD));
    plan.set_down(mirror);

    let mut children = Vec::new();
    for child in ids.take(4) {
        let map = OwnerMap::fresh(child, &g);
        let new = finetuned(&map, &parent_tensors, &mut rng);
        client
            .store_model(g.clone(), map, Some(parent), 0.6, &new)
            .unwrap();
        children.push((child, new));
    }
    assert!(
        client.telemetry().under_replicated_stores() > 0,
        "missed mirror legs must be recorded as debt"
    );
    plan.set_up(mirror);
    assert!(
        client.stats().unwrap().delta_stored > 0,
        "fine-tuned children must delta-encode against the parent"
    );
    let rejected_before_repair = plan.stats().unavailable;
    let report = dep.repair().unwrap();
    assert!(
        report.models_synced >= children.len(),
        "every child re-replicates: {report:?}"
    );
    assert_eq!(report.missing_payloads, 0, "{report:?}");
    assert_eq!(
        plan.stats().unavailable > rejected_before_repair,
        !negotiated,
        "only the reference plane loses its negotiation legs"
    );
    dep.gc_audit().unwrap();
    (dep, parent, children)
}

/// Per-provider catalog fingerprint: which models each provider holds
/// and which tensor keys each record references.
fn catalog_fingerprint(dep: &Deployment) -> Vec<BTreeMap<ModelId, BTreeSet<TensorKey>>> {
    dep.provider_states()
        .iter()
        .map(|p| {
            p.handle_digest(DigestRequest {})
                .unwrap()
                .models
                .into_iter()
                .map(|m| {
                    let keys = m.ref_keys.into_iter().chain(m.optimizer_keys);
                    (m.model, keys.collect())
                })
                .collect()
        })
        .collect()
}

#[test]
fn negotiated_repair_ships_deltas_not_materialized_payloads() {
    let (neg, _parent, children) = churn_plane(true);
    let (mat, _, mat_children) = churn_plane(false);

    // The negotiated plane shipped stored delta records and negotiated
    // possession before moving a byte; the reference plane lost every
    // manifest request, so it moved whole payloads and no provider ever
    // served a negotiation RPC.
    let neg_sum = neg.stats().into_iter().fold((0u64, 0u64, 0u64), |a, s| {
        (
            a.0 + s.transfer_deltas_shipped,
            a.1 + s.transfer_chunks_offered,
            a.2 + s.transfer_bytes_saved,
        )
    });
    assert!(neg_sum.0 > 0, "repair must ship stored deltas verbatim");
    assert!(neg_sum.1 > 0, "possession sets must be negotiated");
    assert!(
        neg_sum.2 > 0,
        "negotiation must save bytes over materializing"
    );
    let mat_deltas: u64 = mat.stats().iter().map(|s| s.transfer_deltas_shipped).sum();
    assert_eq!(mat_deltas, 0, "materialized plane negotiates nothing");

    // Both planes charged their legs to the `transfer` op class; the
    // negotiated plane moved a fraction of the materialized bytes.
    let nt = neg.ledger().entry("transfer").unwrap();
    let mt = mat.ledger().entry("transfer").unwrap();
    assert!(nt.ops >= children.len() as u64, "{nt:?}");
    assert!(mt.ops >= children.len() as u64, "{mt:?}");
    assert_eq!(nt.errors, 0, "{nt:?}");
    assert!(
        nt.bytes_out * 2 < mt.bytes_out,
        "negotiated repair must move far fewer bytes: {} vs {}",
        nt.bytes_out,
        mt.bytes_out
    );
    // The repair op itself absorbed the transfer legs' traffic.
    let nr = neg.ledger().entry("repair").unwrap();
    assert!(nr.ops >= 1 && nr.bytes_out >= nt.bytes_out, "{nr:?}");

    // Identical catalogs on every provider, either way the bytes moved.
    assert_eq!(catalog_fingerprint(&neg), catalog_fingerprint(&mat));

    // The repaired mirror actually serves byte-identical reads: down
    // the primary and load every child from the mirror, on both planes.
    for (dep, expected) in [(&neg, &children), (&mat, &mat_children)] {
        let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
        plan.set_down(dep.provider_ids()[1]);
        let client = dep.client();
        for (child, tensors) in expected.iter() {
            let loaded = client.load_model(*child).unwrap();
            for (key, tensor) in tensors {
                assert_eq!(&loaded.tensors[key], tensor, "{child} {key} differs");
            }
        }
    }
}

/// What one provider physically holds: (records, logical record bytes,
/// distinct chunks, logical chunked bytes, physical bytes).
fn holdings(dep: &Deployment) -> Vec<(u64, u64, u64, u64, u64)> {
    dep.stats()
        .iter()
        .map(|s| {
            (
                s.tensors,
                s.tensor_bytes,
                s.chunks,
                s.chunk_logical_bytes,
                s.chunk_physical_bytes,
            )
        })
        .collect()
}

/// Repair moves records as ropes (pulled, relayed and put without a
/// gather); what it leaves behind is pinned to what the gathering relay
/// left on the same fixture — the numbers below were read off the commit
/// before the relay changed — on both planes, with reference counts
/// audited (`churn_plane`) and every byte read back from either replica.
#[test]
fn repair_lands_the_same_bytes_whichever_way_the_records_travel() {
    // The lineage lives on chain [1, 2]: the primary delta-encodes at
    // store time; the mirror holds the same deltas after a negotiated
    // repair, reconstructed records after a materialized one.
    const EMPTY: (u64, u64, u64, u64, u64) = (0, 0, 0, 0, 0);
    const DELTAS: (u64, u64, u64, u64, u64) = (30, 12986, 30, 11666, 12986);
    const RAW: (u64, u64, u64, u64, u64) = (30, 34560, 30, 33240, 34560);
    let planes = [
        (true, [EMPTY, DELTAS, DELTAS, EMPTY]),
        (false, [EMPTY, DELTAS, RAW, EMPTY]),
    ];
    for (negotiated, pinned) in planes {
        let (dep, _parent, children) = churn_plane(negotiated);
        let held = holdings(&dep);
        assert_eq!(held, pinned, "negotiated={negotiated}");
        for down in [1, 2] {
            let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
            plan.set_down(dep.provider_ids()[down]);
            let client = dep.client();
            for (child, tensors) in &children {
                let loaded = client.load_model(*child).unwrap();
                assert_eq!(
                    &loaded.tensors, tensors,
                    "{child} with provider {down} down"
                );
            }
        }
    }
}

#[test]
fn repair_of_a_deep_chain_is_idempotent() {
    // A four-generation fine-tuning chain, one generation past the chain
    // bound, stored while the mirror is down: repair re-installs the
    // chained delta records at their stored depth (bases arrive first —
    // sync is in id order).
    let dep = Deployment::new(DeploymentConfig {
        providers: 2,
        replication: ReplicationPolicy::new(2),
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    });
    let client = dep.client();
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mut ids = models_on(0, 2);

    let base = ids.next().unwrap();
    let base_tensors = random_tensors(base, &g, &mut rng);
    client
        .store_model(
            g.clone(),
            OwnerMap::fresh(base, &g),
            None,
            0.5,
            &base_tensors,
        )
        .unwrap();

    let mirror = dep.provider_ids()[1];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(mirror);

    let mut parent = base;
    let mut prev = base_tensors;
    let mut generations = Vec::new();
    for child in ids.take(4) {
        let map = OwnerMap::fresh(child, &g);
        let new = finetuned(&map, &prev, &mut rng);
        client
            .store_model(g.clone(), map, Some(parent), 0.6, &new)
            .unwrap();
        generations.push((child, new.clone()));
        parent = child;
        prev = new;
    }
    plan.set_up(mirror);
    assert!(client.stats().unwrap().delta_stored > 0);
    let report = dep.repair().unwrap();
    assert!(report.models_synced >= generations.len(), "{report:?}");
    let deltas: u64 = dep.stats().iter().map(|s| s.transfer_deltas_shipped).sum();
    assert!(deltas > 0, "repair ships the chain as stored");
    dep.gc_audit().unwrap();

    // A further repair pass finds a fully healthy deployment.
    let second = dep.repair().unwrap();
    assert_eq!(second.models_synced, 0, "{second:?}");
    assert_eq!(second.refs_adjusted, 0, "{second:?}");
    assert_eq!(second.orphans_removed, 0, "{second:?}");
    assert_eq!(second.retirements_applied, 0, "{second:?}");
    dep.gc_audit().unwrap();

    // Every generation still reconstructs byte-identically.
    for (child, tensors) in &generations {
        let loaded = client.load_model(*child).unwrap();
        for (key, tensor) in tensors {
            assert_eq!(&loaded.tensors[key], tensor, "{child} {key} differs");
        }
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

#[test]
fn repaired_delta_chain_survives_reopen_with_its_base_retained() {
    let dir = std::env::temp_dir().join(format!("evostore-transfer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DeploymentConfig {
        providers: 2,
        replication: ReplicationPolicy::new(2),
        backend: BackendKind::Log { dir: dir.clone() },
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    };
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(53);
    let mut ids = models_on(0, 2);
    let parent = ids.next().unwrap();
    let child = ids.next().unwrap();
    let parent_tensors = random_tensors(parent, &g, &mut rng);
    let child_map = OwnerMap::fresh(child, &g);
    let child_tensors = finetuned(&child_map, &parent_tensors, &mut rng);

    // Session 1: the mirror misses the delta-encoded child; repair
    // ships the stored delta verbatim (the mirror holds the base).
    {
        let dep = Deployment::new(cfg.clone());
        let client = dep.client();
        client
            .store_model(
                g.clone(),
                OwnerMap::fresh(parent, &g),
                None,
                0.5,
                &parent_tensors,
            )
            .unwrap();
        let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
        plan.set_down(dep.provider_ids()[1]);
        client
            .store_model(g.clone(), child_map, Some(parent), 0.6, &child_tensors)
            .unwrap();
        plan.set_up(dep.provider_ids()[1]);
        assert!(client.stats().unwrap().delta_stored > 0);
        let report = dep.repair().unwrap();
        assert!(report.models_synced >= 1, "{report:?}");
        let deltas: u64 = dep.stats().iter().map(|s| s.transfer_deltas_shipped).sum();
        assert!(deltas > 0, "repair must preserve the delta encoding");
        dep.gc_audit().unwrap();
    } // dropped: "process restart"

    // The child reads back byte-identical from either replica.
    let child_reads_back = |dep: &Deployment, when: &str| {
        let client = dep.client();
        for down in [0usize, 1usize] {
            let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
            plan.set_down(dep.provider_ids()[down]);
            let loaded = client.load_model(child).unwrap();
            for (key, tensor) in &child_tensors {
                assert_eq!(
                    &loaded.tensors[key], tensor,
                    "{when}: replica {down} {key} differs"
                );
            }
            plan.set_up(dep.provider_ids()[down]);
        }
    };

    // Session 2: the mirror's recount after the restart includes the
    // reference the shipped delta holds — retiring the base on the
    // recovered deployment leaves it retained on both replicas, held by
    // its one dependent on each.
    let dep = Deployment::reopen(cfg.clone()).expect("recovery succeeds");
    let links: Vec<_> = dep
        .provider_states()
        .iter()
        .map(|p| p.delta_links().unwrap())
        .collect();
    assert!(
        links.iter().all(|l| !l.is_empty()),
        "both replicas hold deltas: {links:?}"
    );
    let retired = dep.client().retire_model(parent).unwrap();
    dep.gc_audit().unwrap();
    for (_, base) in links.iter().flatten() {
        assert_eq!(hosted_refs(&dep, *base), vec![1, 1], "retained base {base}");
    }
    child_reads_back(&dep, "parent retired");

    // Session 3: the retained bases survive another restart.
    drop(dep);
    let dep = Deployment::reopen(cfg).expect("second recovery succeeds");
    dep.gc_audit().unwrap();
    child_reads_back(&dep, "reopened");

    // Retiring the child takes the retained bases with it, counted on
    // each replica.
    let client = dep.client();
    let last = client.retire_model(child).unwrap();
    let stored = 2 * parent_tensors.len();
    assert_eq!(
        retired.tensors_reclaimed + last.tensors_reclaimed,
        stored + 2 * child_tensors.len(),
        "every record of both models, on both replicas"
    );
    assert!(last.tensors_reclaimed > 2 * child_tensors.len(), "cascade");
    assert_eq!(client.stats().unwrap().tensors, 0);
    dep.gc_audit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every delta on every provider as `(provider, delta, header depth,
/// length of its chain on that provider)`.
fn chain_depths(dep: &Deployment) -> Vec<(usize, TensorKey, u8, u8)> {
    let mut out = Vec::new();
    for (i, p) in dep.provider_states().iter().enumerate() {
        let links: HashMap<TensorKey, TensorKey> = p.delta_links().unwrap().into_iter().collect();
        let keys = links.keys().copied().collect();
        let manifest = p
            .handle_transfer_manifest(TransferManifestRequest { keys })
            .unwrap();
        for record in manifest.records {
            let (mut key, mut chain) = (record.key, 0u8);
            while let Some(base) = links.get(&key) {
                (key, chain) = (*base, chain + 1);
            }
            out.push((i, record.key, record.delta_depth, chain));
        }
    }
    out
}

/// Where a model's parent sits decides how deep its deltas go, so one
/// record can be a delta at depth 1 on one replica and stored against a
/// deeper base on another. Three providers, two replicas: P lives on
/// {0, 1}, its child B and grandchild X on {1, 2}. Provider 1 encodes B
/// against P (depth 1); provider 2 holds no P and stores B raw, so X is a
/// depth-1 delta against raw B there — and X is stored while provider 1
/// is down. Shipped as stored, X would sit on provider 1 on a chain of
/// two under a header of one; the sync refuses it and repair ships X
/// materialized instead.
#[test]
fn a_shipped_delta_lands_only_where_its_header_depth_holds() {
    let dep = Deployment::new(DeploymentConfig {
        providers: 3,
        replication: ReplicationPolicy::new(2),
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    });
    let client = dep.client();
    let g = seq(&[8, 32, 32, 8]);
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let p = models_on(0, 3).next().unwrap();
    let mut on_1 = models_on(1, 3);
    let (b, x) = (on_1.next().unwrap(), on_1.next().unwrap());

    let p_tensors = random_tensors(p, &g, &mut rng);
    client
        .store_model(g.clone(), OwnerMap::fresh(p, &g), None, 0.5, &p_tensors)
        .unwrap();
    let b_map = OwnerMap::fresh(b, &g);
    let b_tensors = finetuned(&b_map, &p_tensors, &mut rng);
    client
        .store_model(g.clone(), b_map, Some(p), 0.6, &b_tensors)
        .unwrap();
    let down = dep.provider_ids()[1];
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    plan.set_down(down);
    let x_map = OwnerMap::fresh(x, &g);
    let x_tensors = finetuned(&x_map, &b_tensors, &mut rng);
    client
        .store_model(g.clone(), x_map, Some(b), 0.7, &x_tensors)
        .unwrap();
    plan.set_up(down);
    let before = chain_depths(&dep);
    assert!(
        before.iter().any(|&(i, k, ..)| i == 1 && k.owner == b),
        "B is a delta on provider 1: {before:?}"
    );
    assert!(
        before.iter().any(|&(i, k, ..)| i == 2 && k.owner == x),
        "X is a delta on provider 2: {before:?}"
    );

    let report = dep.repair().unwrap();
    assert!(report.models_synced >= 1, "{report:?}");
    assert_eq!(report.missing_payloads, 0, "{report:?}");
    for (i, key, header, chain) in chain_depths(&dep) {
        assert_eq!(header, chain, "delta {key} on provider {i}");
    }
    dep.gc_audit().unwrap();

    // X reads back byte-identical from provider 1 alone.
    plan.set_down(dep.provider_ids()[2]);
    let loaded = client.load_model(x).unwrap();
    assert_eq!(loaded.tensors, x_tensors);
    plan.set_up(dep.provider_ids()[2]);
    let second = dep.repair().unwrap();
    assert_eq!(second.models_synced, 0, "{second:?}");
}

/// One interpreted churn step for the convergence proptest.
#[derive(Debug, Clone, Copy)]
enum Step {
    Fresh,
    Derive,
    Retire,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Fresh),
        Just(Step::Derive),
        Just(Step::Derive),
        Just(Step::Retire),
    ]
}

/// Drive one plane through `steps` with the chain-`[1, 2]` mirror down,
/// then repair and return the deployment plus the live models' expected
/// tensors. Stores and retires replay deterministically from `seed`, so
/// both planes see byte-identical inputs.
#[allow(clippy::type_complexity)]
fn interleaved_plane(
    negotiated: bool,
    steps: &[Step],
    seed: u64,
) -> Result<(Deployment, Vec<(ModelId, HashMap<TensorKey, TensorData>)>), TestCaseError> {
    let dep = Deployment::new(DeploymentConfig {
        providers: 4,
        replication: ReplicationPolicy::new(2),
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    });
    let client = dep.client();
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ids = models_on(1, 4);

    // A base stored while both replicas are up: derivations during the
    // outage can negotiate against its mirrored records.
    let base = ids.next().unwrap();
    let base_tensors = random_tensors(base, &g, &mut rng);
    client
        .store_model(
            g.clone(),
            OwnerMap::fresh(base, &g),
            None,
            0.5,
            &base_tensors,
        )
        .unwrap();
    let mut live: Vec<(ModelId, HashMap<TensorKey, TensorData>)> = vec![(base, base_tensors)];

    let mirror = dep.provider_ids()[2];
    let plan = dep
        .fabric()
        .install_fault_plan(plane_faults(negotiated, methods::TransferManifest::METHOD));
    plan.set_down(mirror);

    for step in steps {
        match step {
            Step::Fresh => {
                let m = ids.next().unwrap();
                let tensors = random_tensors(m, &g, &mut rng);
                client
                    .store_model(g.clone(), OwnerMap::fresh(m, &g), None, 0.5, &tensors)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                live.push((m, tensors));
            }
            Step::Derive => {
                let (parent, parent_tensors) = live.last().cloned().unwrap();
                let child = ids.next().unwrap();
                let map = OwnerMap::fresh(child, &g);
                let new = finetuned(&map, &parent_tensors, &mut rng);
                client
                    .store_model(g.clone(), map, Some(parent), 0.6, &new)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                live.push((child, new));
            }
            Step::Retire => {
                if live.len() > 1 {
                    let (victim, _) = live.remove(rng.random_range(0..live.len()));
                    client
                        .retire_model(victim)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
            }
        }
    }

    plan.set_up(mirror);
    dep.repair().map_err(TestCaseError::fail)?;
    client
        .flush_pending_decrements()
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    dep.gc_audit().map_err(TestCaseError::fail)?;
    Ok((dep, live))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: chunk-negotiated sync and materialized
    /// sync converge to byte-identical catalogs (and a clean GC audit)
    /// under arbitrary store/retire interleavings around an outage.
    #[test]
    fn negotiated_and_materialized_sync_converge_identically(
        steps in prop::collection::vec(step_strategy(), 1..7),
        seed in 0u64..1 << 32,
    ) {
        let (neg, expected) = interleaved_plane(true, &steps, seed)?;
        let (mat, mat_expected) = interleaved_plane(false, &steps, seed)?;

        prop_assert_eq!(catalog_fingerprint(&neg), catalog_fingerprint(&mat));
        prop_assert_eq!(expected.len(), mat_expected.len());

        // Every surviving model reads back bytewise on both planes.
        for (dep, exp) in [(&neg, &expected), (&mat, &mat_expected)] {
            let client = dep.client();
            for (model, tensors) in exp.iter() {
                let loaded = client
                    .load_model(*model)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                for (key, tensor) in tensors {
                    prop_assert_eq!(&loaded.tensors[key], tensor, "{} {} differs", model, key);
                }
            }
        }
    }
}

/// Call `method` on `target` once and assert the whole-record refusal: a
/// typed handler error naming the missing chunk layer, and no bulk region
/// left behind.
fn assert_refused<M: Method>(dep: &Deployment, target: EndpointId, method: M, req: &M::Request) {
    let regions = dep.fabric().bulk_regions();
    let no_retry = RetryPolicy::no_retry();
    let outcome = unary(dep.fabric(), target, method, req, &no_retry, None, None).err();
    assert!(
        matches!(&outcome, Some(RpcError::Handler(msg)) if msg.contains("not content-addressed")),
        "{}: {outcome:?}",
        M::METHOD
    );
    assert_eq!(
        dep.fabric().bulk_regions(),
        regions,
        "{} left a region",
        M::METHOD
    );
}

/// Whole records take one leg: repair ships them materialized over
/// `SYNC_MODEL` and never asks for a transfer manifest, so failing every
/// `TRANSFER_MANIFEST` refuses no call and the mirror still converges.
#[test]
fn whole_record_repair_ships_materialized_records_without_negotiating() {
    let dep = Deployment::in_memory_replicated(4, 2);
    let client = dep.client();
    let g = seq(&[8, 32, 32, 8]);
    let model = models_on(1, 4).next().unwrap();
    let tensors = random_tensors(model, &g, &mut ChaCha8Rng::seed_from_u64(5));

    // The mirror of chain [1, 2] misses the store.
    let mirror = dep.provider_ids()[2];
    let outage = dep.fabric().install_fault_plan(FaultPlan::new(0));
    outage.set_down(mirror);
    client
        .store_model(g.clone(), OwnerMap::fresh(model, &g), None, 0.5, &tensors)
        .unwrap();
    outage.set_up(mirror);

    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0).rule(
        FaultRule::new(FaultAction::Unavailable).on_method(methods::TransferManifest::METHOD),
    ));
    let report = dep.repair().unwrap();
    assert!(report.models_synced >= 1, "{report:?}");
    assert_eq!(report.missing_payloads, 0, "{report:?}");
    assert_eq!(plan.stats().unavailable, 0, "repair opened a negotiation");
    dep.gc_audit().unwrap();

    // The mirror serves the model byte-identical with the primary down.
    plan.set_down(dep.provider_ids()[1]);
    assert_eq!(client.load_model(model).unwrap().tensors, tensors);

    // Asked directly, a whole-record provider refuses every
    // chunk-negotiation method with a typed error, and exposes nothing.
    dep.fabric().install_fault_plan(FaultPlan::new(0));
    let keys: Vec<TensorKey> = tensors.keys().copied().collect();
    let hashes = vec![[7u8; 16]];
    let request = TransferManifestRequest { keys: keys.clone() };
    assert_refused(&dep, mirror, methods::TransferManifest, &request);
    let request = HaveChunksRequest {
        hashes: hashes.clone(),
        keys,
    };
    assert_refused(&dep, mirror, methods::HaveChunks, &request);
    let request = ReadChunksRequest {
        hashes: hashes.clone(),
    };
    assert_refused(&dep, mirror, methods::ReadChunks, &request);
    // A sync the provider would otherwise take: its model places there
    // and carries a newer stamp than the stored copy.
    let pushed = dep
        .fabric()
        .bulk_expose_vec(vec![bytes::Bytes::from(vec![7u8; 16])]);
    let request = SyncChunksRequest {
        model,
        graph: g.clone(),
        owner_map: OwnerMap::fresh(model, &g),
        parent: None,
        quality: 0.5,
        timestamp: u64::MAX / 2,
        records: Vec::new(),
        pushed: hashes,
        lens: vec![16],
        bulk: pushed.0,
    };
    assert_refused(&dep, mirror, methods::SyncChunks, &request);
    assert!(dep.fabric().bulk_release(pushed));
    assert_eq!(dep.fabric().bulk_regions(), 0);
    dep.gc_audit().unwrap();
}
