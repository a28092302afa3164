//! A dropped deployment gives everything back. Each run drives a lineage
//! through the whole stack (store, derive, load, retire, repair, a
//! watcher), then drops the watcher, the clients and the deployment, and
//! checks that no provider state, watcher state or fabric outlives them —
//! on both backends and under both storage policies.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use evostore_core::{
    random_tensors, BackendKind, CachingClient, Deployment, DeploymentConfig, ModelWatcher,
    OwnerMap, ReplicationPolicy, StorePolicy, WatchConfig,
};
use evostore_deliver::SubscriptionFilter;
use evostore_graph::{
    flatten, lcp, Activation, Architecture, CompactGraph, LayerConfig, LayerKind,
};
use evostore_tensor::{ModelId, TensorData, TensorKey, VertexId};
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

/// Two providers holding every model twice, so a derived model's delta
/// bases are always co-located with it.
fn config(backend: BackendKind, store_policy: StorePolicy) -> DeploymentConfig {
    DeploymentConfig {
        providers: 2,
        backend,
        replication: ReplicationPolicy::new(2),
        store_policy,
        ..Default::default()
    }
}

/// Store model 1, derive model 2 from it (retraining the last layer),
/// load 2, retire 1 and repair. Returns what model 2 holds.
fn drive(dep: &Deployment) -> HashMap<TensorKey, TensorData> {
    let client = dep.client();
    let g = seq(&[8, 32, 32, 8]);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let parent = OwnerMap::fresh(ModelId(1), &g);
    let t1 = random_tensors(ModelId(1), &g, &mut rng);
    client
        .store_model(g.clone(), parent.clone(), None, 0.5, &t1)
        .unwrap();
    let last = g.len() - 1;
    let mut keep = lcp(&g, &g);
    keep.prefix.retain(|v| (v.0 as usize) < last);
    keep.match_in_ancestor[last] = None;
    let child = OwnerMap::derive(ModelId(2), &g, &keep, &parent);
    let t2: HashMap<TensorKey, TensorData> = child
        .vertex(VertexId(last as u32))
        .tensor_keys()
        .map(|k| {
            let base = &t1[&TensorKey::new(ModelId(1), k.vertex, k.slot)];
            (k, base.perturbed_sparse(&mut rng, 0.05))
        })
        .collect();
    client
        .store_model(g.clone(), child, Some(ModelId(1)), 0.6, &t2)
        .unwrap();
    let loaded = client.load_model(ModelId(2)).unwrap().tensors;
    client.retire_model(ModelId(1)).unwrap();
    let report = dep.repair().unwrap();
    assert!(report.unreachable.is_empty(), "{report:?}");
    dep.gc_audit().unwrap();
    loaded
}

fn tear_down(backend: BackendKind, policy: StorePolicy) {
    let cfg = config(backend.clone(), policy);
    let dep = Deployment::new(cfg.clone());
    let client = dep.client();
    let held = drive(&dep);

    // A watcher that applies (and serves onward) one more release.
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        SubscriptionFilter::ArchPrefix(seq(&[8, 32])),
        WatchConfig::default(),
        Some(dep.obs()),
    )
    .unwrap();
    let g = seq(&[8, 32, 32, 8]);
    let t3 = random_tensors(ModelId(3), &g, &mut ChaCha8Rng::seed_from_u64(6));
    client
        .store_model(g.clone(), OwnerMap::fresh(ModelId(3), &g), None, 0.7, &t3)
        .unwrap();
    assert!(watcher.wait_until(Duration::from_secs(10), || {
        watcher.applied().iter().any(|e| e.model == ModelId(3))
    }));

    if let BackendKind::Log { dir } = &backend {
        // The live deployment owns its logs.
        let err = Deployment::reopen(cfg.clone())
            .err()
            .expect("a live log reopened");
        assert!(err.contains(&dir.display().to_string()), "{err}");
    }

    let states: Vec<_> = dep.provider_states().iter().map(Arc::downgrade).collect();
    let fabric = Arc::downgrade(dep.fabric());
    let watcher_state = watcher.state_weak();
    drop(watcher);
    drop(client);
    assert_eq!(
        dep.fabric().bulk_regions(),
        0,
        "a region outlived its reader"
    );
    drop(dep);

    for (i, state) in states.iter().enumerate() {
        assert!(
            state.upgrade().is_none(),
            "provider {i} outlived its deployment"
        );
    }
    assert!(
        watcher_state.upgrade().is_none(),
        "the watcher outlived its drop"
    );
    assert!(
        fabric.upgrade().is_none(),
        "the fabric outlived its deployment"
    );

    if let BackendKind::Log { dir } = backend {
        // The dropped deployment let go of its logs: a restart reads them.
        let dep = Deployment::reopen(cfg).unwrap();
        assert_eq!(dep.client().load_model(ModelId(2)).unwrap().tensors, held);
        drop(dep);
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn log_backend(name: &str) -> BackendKind {
    let dir = std::env::temp_dir().join(format!("evostore-teardown-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    BackendKind::Log { dir }
}

#[test]
fn a_dropped_memory_deployment_frees_everything_whole() {
    tear_down(BackendKind::Memory, StorePolicy::Whole);
}

#[test]
fn a_dropped_memory_deployment_frees_everything_chunked() {
    tear_down(BackendKind::Memory, StorePolicy::chunked_with_delta());
}

#[test]
fn a_dropped_log_deployment_frees_everything_whole() {
    tear_down(log_backend("whole"), StorePolicy::Whole);
}

#[test]
fn a_dropped_log_deployment_frees_everything_chunked() {
    tear_down(log_backend("chunked"), StorePolicy::chunked_with_delta());
}

/// A dropped client or watcher leaves nothing attached to the hub: after
/// a thousand clients built and dropped (some through the builder) and
/// one watcher attached and dropped, the hub holds what a fresh
/// deployment holds, and no series names a dropped node.
#[test]
fn dropped_clients_and_watchers_leave_nothing_on_the_hub() {
    let dep = Deployment::in_memory(2);
    let hub = dep.obs();
    let counts = || {
        (
            hub.registry().live_sources(),
            hub.recorders().len(),
            hub.slow_logs().len(),
        )
    };
    let baseline = counts();
    let baseline_series = hub.registry().snapshot().metrics.len();

    let mut dropped = std::collections::HashSet::new();
    for i in 0..1_000 {
        let client = if i % 4 == 0 {
            dep.client_builder().min_quorum(1).build()
        } else {
            dep.client()
        };
        dropped.insert(client.tracer().node().to_string());
    }
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 1 << 20),
        SubscriptionFilter::ArchPrefix(seq(&[8, 32])),
        WatchConfig::default(),
        Some(hub),
    )
    .unwrap();
    dropped.insert(format!("watcher{}", watcher.endpoint_id().0));
    dropped.insert(watcher.client().inner().tracer().node().to_string());
    drop(watcher);

    assert_eq!(counts(), baseline, "(sources, recorders, slow logs)");
    let snap = hub.registry().snapshot();
    assert_eq!(snap.metrics.len(), baseline_series);
    for m in &snap.metrics {
        assert!(
            m.labels.iter().all(|(_, v)| !dropped.contains(v)),
            "{} {:?} names a dropped node",
            m.name,
            m.labels
        );
    }
}
