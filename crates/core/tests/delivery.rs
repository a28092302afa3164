//! Delivery-plane integration tests: subscriptions, event exactly-once
//! semantics, bounded-queue loss surfacing, replay after restart, cache
//! invalidation on supersession, and broadcast-tree failover.

use std::collections::HashSet;
use std::time::Duration;

use evostore_core::{
    random_tensors, CachingClient, Deployment, EvoError, ModelWatcher, OwnerMap, WatchConfig,
};
use evostore_deliver::{EventKind, SubscriptionFilter};
use evostore_graph::{flatten, Activation, Architecture, CompactGraph, LayerConfig, LayerKind};
use evostore_rpc::{FaultAction, FaultPlan, FaultRule};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const WAIT: Duration = Duration::from_secs(10);

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

/// The family graph all tests release under, and the prefix filter that
/// matches every model sharing its first two layers.
fn family_graph() -> CompactGraph {
    seq(&[8, 16, 16, 4])
}

fn family_filter() -> SubscriptionFilter {
    SubscriptionFilter::ArchPrefix(seq(&[8, 16]))
}

fn store_family_model(client: &evostore_core::EvoStoreClient, model: ModelId, seed: u64) {
    let g = family_graph();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tensors = random_tensors(model, &g, &mut rng);
    client
        .store_model(g.clone(), OwnerMap::fresh(model, &g), None, 0.5, &tensors)
        .unwrap();
}

#[test]
fn subscribe_store_receive_exactly_once() {
    let dep = Deployment::in_memory(2);
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        family_filter(),
        WatchConfig::default(),
        Some(dep.obs()),
    )
    .unwrap();
    let writer = dep.client();

    for m in 1..=4u64 {
        store_family_model(&writer, ModelId(m), m);
    }
    assert!(
        watcher.wait_until(WAIT, || watcher.applied().len() >= 4),
        "4 store events arrive; got {:?}",
        watcher.applied()
    );

    // Exactly once: every (provider, seq) pair applied a single time,
    // and each released model appears exactly once.
    let applied = watcher.applied();
    let seqs: HashSet<(u32, u64)> = applied.iter().map(|e| (e.provider, e.seq)).collect();
    assert_eq!(seqs.len(), applied.len(), "no (provider, seq) re-applied");
    let models: HashSet<ModelId> = applied.iter().map(|e| e.model).collect();
    assert_eq!(models.len(), 4);

    // Prefetch pulled every released tensor into the cache.
    let g = family_graph();
    for m in 1..=4u64 {
        let keys = OwnerMap::fresh(ModelId(m), &g).all_tensor_keys();
        let (hits, missing) = watcher.client().cache().get_batch(&keys);
        assert!(missing.is_empty(), "model {m} fully cached");
        assert_eq!(hits.len(), keys.len());
    }
    assert!(watcher.take_errors().is_empty());

    // The provider side agrees on the ledger: published == delivered,
    // nothing dropped. An event counts as delivered once its ack is
    // back at the provider, which can trail the watcher's apply.
    assert!(watcher.wait_until(WAIT, || {
        writer.stats().unwrap().deliver.events_delivered >= 4
    }));
    let stats = writer.stats().unwrap();
    assert_eq!(stats.deliver.events_published, 4);
    assert_eq!(stats.deliver.events_delivered, 4);
    assert_eq!(stats.deliver.events_dropped, 0);
    assert!(stats.deliver.releases >= 4);
}

#[test]
fn dropped_acks_cause_duplicates_that_are_not_reapplied() {
    let dep = Deployment::in_memory(1);
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        family_filter(),
        WatchConfig::default(),
        None,
    )
    .unwrap();
    // Drop the reply of the first event push: the watcher applies the
    // events but the provider never sees the ack, so the pump re-pushes
    // the same sequence numbers.
    dep.fabric().install_fault_plan(
        FaultPlan::new(7).rule(
            FaultRule::new(FaultAction::DropReply)
                .on_endpoint(watcher.endpoint_id())
                .on_method("deliver.event")
                .first(1),
        ),
    );
    let writer = dep.client();
    store_family_model(&writer, ModelId(10), 1);
    store_family_model(&writer, ModelId(11), 2);

    assert!(
        watcher.wait_until(WAIT, || {
            watcher.applied().len() >= 2 && watcher.stats().events_duplicate >= 1
        }),
        "events applied once and the retried push deduplicated; applied={:?} stats={:?}",
        watcher.applied(),
        watcher.stats()
    );
    let applied = watcher.applied();
    let seqs: HashSet<(u32, u64)> = applied.iter().map(|e| (e.provider, e.seq)).collect();
    assert_eq!(
        seqs.len(),
        applied.len(),
        "duplicates were never re-applied"
    );
    assert_eq!(applied.len(), 2);
}

#[test]
fn queue_overflow_surfaces_typed_events_lost_and_replays() {
    let dep = Deployment::in_memory(1);
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        family_filter(),
        WatchConfig {
            queue_capacity: 2,
            prefetch: false,
            serve_peers: false,
            ..WatchConfig::default()
        },
        None,
    )
    .unwrap();
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));

    // Take the watcher down and burst more releases than its bounded
    // queue holds: the provider must drop oldest-first and remember the
    // loss point.
    plan.set_down(watcher.endpoint_id());
    let providers = dep.provider_states();
    for m in 20..30u64 {
        providers[0]
            .insert_meta_only(ModelId(m), family_graph(), 0.5)
            .unwrap();
    }
    plan.set_up(watcher.endpoint_id());

    // The first successful push carries `lost_from`; the watcher turns
    // it into a typed error and resubscribes, replaying the catalog
    // from its last applied timestamp, recovering every dropped model.
    assert!(
        watcher.wait_until(WAIT, || {
            let models: HashSet<ModelId> = watcher.applied().iter().map(|e| e.model).collect();
            (20..30).all(|m| models.contains(&ModelId(m)))
        }),
        "replay recovers all released models; applied={:?}",
        watcher.applied()
    );
    let errors = watcher.take_errors();
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, EvoError::EventsLost { .. })),
        "loss surfaced as a typed error, not a silent gap: {errors:?}"
    );
    let stats = dep.client().stats().unwrap();
    assert!(stats.deliver.events_dropped > 0, "overflow was counted");
}

#[test]
fn provider_restart_replays_from_record_timestamps() {
    let dir = std::env::temp_dir().join(format!("evostore-deliver-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = evostore_core::DeploymentConfig {
        providers: 1,
        backend: evostore_core::BackendKind::Log { dir: dir.clone() },
        ..Default::default()
    };

    // Session 1: two releases, no watcher.
    {
        let dep = Deployment::new(cfg.clone());
        let writer = dep.client();
        store_family_model(&writer, ModelId(1), 1);
        store_family_model(&writer, ModelId(2), 2);
    }

    // Session 2: the provider restarts with an empty delivery hub;
    // a watcher subscribing with a replay point receives `Stored`
    // events for every durable record newer than it, then prefetches
    // the weights (fresh sequence numbers; replay keyed on durable
    // record timestamps, not on the dead incarnation's seqs).
    let dep = Deployment::reopen(cfg).expect("recovery succeeds");
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        family_filter(),
        WatchConfig {
            replay_after: Some(0),
            ..WatchConfig::default()
        },
        None,
    )
    .unwrap();
    assert!(
        watcher.wait_until(WAIT, || watcher.applied().len() >= 2),
        "replayed events arrive after restart; applied={:?}",
        watcher.applied()
    );
    let applied = watcher.applied();
    let models: HashSet<ModelId> = applied.iter().map(|e| e.model).collect();
    assert_eq!(models, HashSet::from([ModelId(1), ModelId(2)]));
    assert!(applied.iter().all(|e| e.kind == EventKind::Stored));
    // Replay order follows write timestamps.
    assert_eq!(applied[0].model, ModelId(1));
    assert_eq!(applied[1].model, ModelId(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn events_invalidate_superseded_cache_entries() {
    let dep = Deployment::in_memory(1);
    let watcher = ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        family_filter(),
        WatchConfig::default(),
        None,
    )
    .unwrap();
    let writer = dep.client();
    let g = family_graph();

    store_family_model(&writer, ModelId(1), 1);
    let old_keys = OwnerMap::fresh(ModelId(1), &g).all_tensor_keys();
    assert!(
        watcher.wait_until(WAIT, || {
            watcher.client().cache().get_batch(&old_keys).1.is_empty()
        }),
        "v1 weights prefetched into the cache"
    );

    // A separate writer retires v1 and releases v2. The watcher must
    // evict the stale v1 tensors and pick up v2 — with no manual cache
    // management by the application.
    writer.retire_model(ModelId(1)).unwrap();
    store_family_model(&writer, ModelId(2), 2);

    let new_keys = OwnerMap::fresh(ModelId(2), &g).all_tensor_keys();
    assert!(
        watcher.wait_until(WAIT, || {
            watcher.client().cache().get_batch(&new_keys).1.is_empty()
        }),
        "v2 weights prefetched"
    );
    let (stale_hits, _) = watcher.client().cache().get_batch(&old_keys);
    assert!(
        stale_hits.is_empty(),
        "retired model's tensors evicted from the cache: {stale_hits:?}"
    );
    let retires = watcher
        .applied()
        .iter()
        .filter(|e| e.kind == EventKind::Retired)
        .count();
    assert_eq!(retires, 1);
}

#[test]
fn broadcast_tree_reforms_around_dead_interior_peer() {
    // Fanout 1 makes the tree a chain: w[0] <- w[1] <- w[2] <- ... so
    // downing a middle watcher forces its child to fail over up-chain.
    let cfg = evostore_core::DeploymentConfig {
        providers: 1,
        deliver_fanout: 1,
        ..Default::default()
    };
    let dep = Deployment::new(cfg);
    let watchers: Vec<ModelWatcher> = (0..5)
        .map(|_| {
            ModelWatcher::attach(
                CachingClient::new(dep.client(), 64 << 20),
                family_filter(),
                WatchConfig {
                    // Fail over fast: one poll round per dead peer.
                    peer_poll_attempts: 40,
                    ..WatchConfig::default()
                },
                None,
            )
            .unwrap()
        })
        .collect();
    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));

    // Down the chain's middle watcher, then release. Its own push and
    // its exposed region both fail; every other watcher must still get
    // the weights by walking its fetch chain past the hole.
    let victim = 2usize;
    plan.set_down(watchers[victim].endpoint_id());
    store_family_model(&dep.client(), ModelId(1), 1);

    let keys = OwnerMap::fresh(ModelId(1), &family_graph()).all_tensor_keys();
    for (i, w) in watchers.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert!(
            w.wait_until(WAIT, || w.client().cache().get_batch(&keys).1.is_empty()),
            "watcher {i} got the full weights despite the dead interior peer; \
             applied={:?} errors={:?}",
            w.applied(),
            w.take_errors()
        );
    }
    // The release still moved peer-to-peer where the chain was intact.
    let peer_fetches: u64 = watchers
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, w)| w.stats().peer_fetches)
        .sum();
    assert!(
        peer_fetches >= 1,
        "at least one live watcher fetched from a peer"
    );
}

#[test]
fn exactly_once_under_store_retire_churn_with_fault_window() {
    let dep = Deployment::in_memory(2);
    let watchers: Vec<ModelWatcher> = (0..2)
        .map(|_| {
            ModelWatcher::attach(
                CachingClient::new(dep.client(), 64 << 20),
                family_filter(),
                WatchConfig::default(),
                None,
            )
            .unwrap()
        })
        .collect();
    // Fault window: the first two event pushes to watcher 0 lose their
    // replies, forcing duplicate pushes mid-churn.
    dep.fabric().install_fault_plan(
        FaultPlan::new(3).rule(
            FaultRule::new(FaultAction::DropReply)
                .on_endpoint(watchers[0].endpoint_id())
                .on_method("deliver.event")
                .first(2),
        ),
    );

    let writer = dep.client();
    let mut live: Vec<ModelId> = Vec::new();
    let mut expected_events = 0u64;
    for m in 1..=15u64 {
        store_family_model(&writer, ModelId(m), m);
        live.push(ModelId(m));
        expected_events += 1;
        if m % 3 == 0 {
            let victim = live.remove(0);
            writer.retire_model(victim).unwrap();
            expected_events += 1;
        }
    }

    for (i, w) in watchers.iter().enumerate() {
        assert!(
            w.wait_until(WAIT, || w.applied().len() as u64 >= expected_events),
            "watcher {i} applied all {expected_events} events; got {}",
            w.applied().len()
        );
        let applied = w.applied();
        let seqs: HashSet<(u32, u64)> = applied.iter().map(|e| (e.provider, e.seq)).collect();
        assert_eq!(
            seqs.len(),
            applied.len(),
            "watcher {i}: every (provider, seq) applied exactly once"
        );
        assert_eq!(applied.len() as u64, expected_events);
        // No losses: faults delayed acks but never overflowed queues.
        assert!(w
            .take_errors()
            .iter()
            .all(|e| !matches!(e, EvoError::EventsLost { .. })));
    }
    // The fault window really produced duplicates, and they were absorbed.
    assert!(
        watchers[0].stats().events_duplicate >= 1,
        "dropped acks forced at least one duplicate push"
    );
}
