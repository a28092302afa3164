//! The Log read path recycles its record-sized buffers. The pool is
//! process-wide, so this file is a test binary of its own: no other test
//! takes buffers beside it.

use std::collections::{HashMap, VecDeque};

use evostore_core::{
    random_tensors, BackendKind, Deployment, DeploymentConfig, OwnerMap, ReplicationPolicy,
    StorePolicy,
};
use evostore_graph::{flatten, lcp, Activation, Architecture, LayerConfig, LayerKind};
use evostore_kv::pool;
use evostore_tensor::{ModelId, TensorData, TensorKey};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const CYCLES: u64 = 20;
const WARM_UP: u64 = 5;
const WINDOW: usize = 3;

/// A fine-tune lineage on the chunked + delta log substrate, replicated
/// twice: every cycle stores a model whose two 1 MiB layers are sparsely
/// retrained from its parent's (so they are stored as deltas), loads it,
/// drops it and retires the generation that left the window. After the
/// warm-up every record-sized buffer the reads need is one the pool took
/// back, so it allocates nothing fresh; and every load reads back the
/// bytes that were stored.
#[test]
fn a_warm_finetune_cycle_allocates_no_fresh_read_buffer() {
    let dir = std::env::temp_dir().join(format!("evostore-read-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dep = Deployment::new(DeploymentConfig {
        providers: 2,
        backend: BackendKind::Log { dir: dir.clone() },
        replication: ReplicationPolicy::new(2),
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    });
    let client = dep.client();
    // Three dense 512 x 512 f32 layers: 1 MiB of weights each.
    let mut arch = Architecture::new("finetune");
    let mut prev = arch.add_layer(LayerConfig::new(
        "in",
        LayerKind::Input { shape: vec![512] },
    ));
    for i in 0..3 {
        let dense = LayerKind::Dense {
            in_features: 512,
            units: 512,
            activation: Activation::ReLU,
        };
        prev = arch.chain(prev, LayerConfig::new(format!("d{i}"), dense));
    }
    let g = flatten(&arch).unwrap();
    let retrained_from = g.len() - 2;
    let mut rng = ChaCha8Rng::seed_from_u64(51);

    let base = ModelId(1);
    let mut stored: HashMap<TensorKey, TensorData> = random_tensors(base, &g, &mut rng);
    let mut map = OwnerMap::fresh(base, &g);
    client
        .store_model(g.clone(), map.clone(), None, 0.5, &stored)
        .unwrap();
    let mut live = VecDeque::from([base]);
    let mut fresh_after_warm_up = None;
    for cycle in 1..=CYCLES {
        let parent = *live.back().unwrap();
        let id = ModelId(1 + cycle);
        let mut frozen = lcp(&g, &g);
        frozen.prefix.retain(|v| (v.0 as usize) < retrained_from);
        for m in frozen.match_in_ancestor.iter_mut().skip(retrained_from) {
            *m = None;
        }
        map = OwnerMap::derive(id, &g, &frozen, &map);
        let tensors: HashMap<TensorKey, TensorData> = map
            .self_owned()
            .flat_map(|v| map.vertex(v).tensor_keys().collect::<Vec<_>>())
            .map(|k| {
                let was = TensorKey::new(parent, k.vertex, k.slot);
                let before = stored
                    .get(&was)
                    .expect("the parent owns the retrained layers");
                (k, before.perturbed_sparse(&mut rng, 0.02))
            })
            .collect();
        assert!(tensors.values().any(|t| t.byte_len() >= 1 << 20));
        client
            .store_model(g.clone(), map.clone(), Some(parent), 0.5, &tensors)
            .unwrap();
        stored.extend(tensors);

        let loaded = client.load_model(id).unwrap();
        assert_eq!(loaded.tensors.len(), map.all_tensor_keys().len());
        for (key, tensor) in &loaded.tensors {
            assert!(
                stored[key] == *tensor,
                "cycle {cycle}: {key} read back changed"
            );
        }
        drop(loaded);

        live.push_back(id);
        if live.len() > WINDOW {
            client.retire_model(live.pop_front().unwrap()).unwrap();
        }
        if cycle == WARM_UP {
            fresh_after_warm_up = Some(pool::stats().fresh);
        }
    }
    let stats = pool::stats();
    assert!(stats.recycled > 0, "{stats:?}");
    assert_eq!(
        Some(stats.fresh),
        fresh_after_warm_up,
        "a warm cycle allocated a fresh read buffer: {stats:?}"
    );
    assert!(stats.retained_bytes as usize <= pool::RETAINED_CAP);
    // The deployment exports the pool's counters as they stand.
    let snap = dep.metrics_snapshot();
    for (name, want) in [
        ("evostore_kv_pool_recycled_total", stats.recycled),
        ("evostore_kv_pool_fresh_total", stats.fresh),
    ] {
        assert_eq!(snap.counter_total(name), want, "{name}");
    }
    assert!(snap.find("evostore_kv_pool_retained_bytes").is_some());
    dep.gc_audit().unwrap();
    drop(client);
    drop(dep);
    let _ = std::fs::remove_dir_all(&dir);
}
