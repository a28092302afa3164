//! The raw-record cache of the chunked + delta substrate, end to end and
//! under both backends: a just-stored derived model is read, and its
//! child encoded, from the raw records its store left in the cache; an
//! entry never outlives the record under its key.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;

use evostore_core::messages::ReadTensorsRequest;
use evostore_core::provider::RAW_CACHE_CAP;
use evostore_core::{
    methods, random_tensors, BackendKind, Deployment, DeploymentConfig, OwnerMap, ProviderStats,
    ReplicationPolicy, StorePolicy,
};
use evostore_graph::{
    flatten, lcp, Activation, Architecture, CompactGraph, LayerConfig, LayerKind,
};
use evostore_rpc::{unary, RetryPolicy};
use evostore_tensor::{ModelId, TensorData, TensorKey};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

type Tensors = HashMap<TensorKey, TensorData>;

/// A chunked + delta deployment of `providers` providers keeping
/// `replicas` copies, in memory or on logs under a fresh directory (the
/// second value, removed by the caller).
fn deployment(
    log: bool,
    providers: usize,
    replicas: usize,
    name: &str,
) -> (Deployment, Option<PathBuf>) {
    let dir = log.then(|| {
        let dir =
            std::env::temp_dir().join(format!("evostore-raw-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let backend = match &dir {
        Some(dir) => BackendKind::Log { dir: dir.clone() },
        None => BackendKind::Memory,
    };
    let dep = Deployment::new(DeploymentConfig {
        providers,
        backend,
        replication: ReplicationPolicy::new(replicas),
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    });
    (dep, dir)
}

/// A sequential dense network: `layers` layers of `width` x `width`.
fn dense(width: u32, layers: usize) -> CompactGraph {
    let mut arch = Architecture::new("dense");
    let mut prev = arch.add_layer(LayerConfig::new(
        "in",
        LayerKind::Input { shape: vec![width] },
    ));
    for i in 0..layers {
        let dense = LayerKind::Dense {
            in_features: width,
            units: width,
            activation: Activation::ReLU,
        };
        prev = arch.chain(prev, LayerConfig::new(format!("d{i}"), dense));
    }
    flatten(&arch).unwrap()
}

/// `tensors` under `owner`, each sparsely perturbed.
fn finetuned(tensors: &Tensors, owner: ModelId, rng: &mut ChaCha8Rng) -> Tensors {
    tensors
        .iter()
        .map(|(k, t)| {
            let key = TensorKey::new(owner, k.vertex, k.slot);
            (key, t.perturbed_sparse(rng, 0.05))
        })
        .collect()
}

fn stats_of(dep: &Deployment) -> ProviderStats {
    dep.client().stats().unwrap()
}

/// (a) A child is read from the cache — a load and a range read, with no
/// delta decoded — then retired until it is reclaimed: a raw `READ` of
/// its key then fails as not stored, and nothing is left in the cache. The
/// same id stored again with other bytes loads as those bytes.
#[test]
fn a_read_never_serves_bytes_its_key_no_longer_holds() {
    for log in [false, true] {
        let (dep, dir) = deployment(log, 1, 1, "invalidate");
        let client = dep.client();
        let g = dense(32, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let (parent, child) = (ModelId(1), ModelId(2));
        let parent_tensors = random_tensors(parent, &g, &mut rng);
        let store = |model, parent, tensors: &Tensors| {
            client
                .store_model(g.clone(), OwnerMap::fresh(model, &g), parent, 0.5, tensors)
                .unwrap();
        };
        store(parent, None, &parent_tensors);
        assert_eq!(
            stats_of(&dep).raw_cache_bytes,
            0,
            "a root store is not kept"
        );

        let child_tensors = finetuned(&parent_tensors, child, &mut rng);
        store(child, Some(parent), &child_tensors);
        let stats = stats_of(&dep);
        assert!(
            stats.delta_stored > 0,
            "log {log}: the child is stored as deltas"
        );
        assert!(
            stats.raw_cache_bytes > 0,
            "log {log}: the child is kept raw"
        );
        assert_eq!(client.load_model(child).unwrap().tensors, child_tensors);
        let key = *child_tensors.keys().max().unwrap();
        let slice = client.fetch_tensor_slice(key, 1, 3).unwrap();
        assert_eq!(slice.bytes()[..], child_tensors[&key].bytes()[4..16]);
        assert_eq!(
            stats_of(&dep).delta_reconstructs,
            0,
            "log {log}: served from the cache"
        );

        let before = stats_of(&dep).tensors;
        client.retire_model(child).unwrap();
        assert_eq!(dep.drain_decrements(), 0);
        assert_eq!(before - stats_of(&dep).tensors, child_tensors.len() as u64);
        assert_eq!(stats_of(&dep).raw_cache_bytes, 0, "log {log}");
        let read = unary(
            dep.fabric(),
            dep.provider_ids()[0],
            methods::Read,
            &ReadTensorsRequest { keys: vec![key] },
            &RetryPolicy::no_retry(),
            None,
            None,
        );
        let err = read.expect_err("a reclaimed key reads as not stored");
        assert!(err.to_string().contains("not stored"), "log {log}: {err}");
        assert!(client.fetch_tensor_slice(key, 1, 3).is_err(), "log {log}");

        let again = finetuned(&parent_tensors, child, &mut rng);
        assert_ne!(again, child_tensors);
        store(child, Some(parent), &again);
        assert_eq!(
            client.load_model(child).unwrap().tensors,
            again,
            "log {log}"
        );
        dep.gc_audit().unwrap();
        drop(client);
        drop(dep);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

const CYCLES: u64 = 20;
const WINDOW: usize = 3;

/// (b) A fine-tune lineage replicated twice: every cycle stores a model
/// whose two 1 MiB layers are sparsely retrained from its parent's, loads
/// it and retires the generation that left the window. Every load reads
/// back the bytes stored. From the second cycle on, every base the
/// encoder needs is in the cache (its parent's store put it there) and
/// every load decodes no delta; no cache holds more than its cap.
#[test]
fn a_lineage_loads_and_derives_from_the_cache() {
    for log in [false, true] {
        let (dep, dir) = deployment(log, 2, 2, "lineage");
        let client = dep.client();
        let g = dense(512, 3);
        let retrained_from = g.len() - 2;
        let mut rng = ChaCha8Rng::seed_from_u64(52);

        let base = ModelId(1);
        let mut stored: Tensors = random_tensors(base, &g, &mut rng);
        let mut map = OwnerMap::fresh(base, &g);
        client
            .store_model(g.clone(), map.clone(), None, 0.5, &stored)
            .unwrap();
        let mut live = VecDeque::from([base]);
        for cycle in 1..=CYCLES {
            let parent = *live.back().unwrap();
            let id = ModelId(1 + cycle);
            let mut frozen = lcp(&g, &g);
            frozen.prefix.retain(|v| (v.0 as usize) < retrained_from);
            for m in frozen.match_in_ancestor.iter_mut().skip(retrained_from) {
                *m = None;
            }
            map = OwnerMap::derive(id, &g, &frozen, &map);
            let tensors: Tensors = map
                .self_owned()
                .flat_map(|v| map.vertex(v).tensor_keys().collect::<Vec<_>>())
                .map(|k| {
                    let before = &stored[&TensorKey::new(parent, k.vertex, k.slot)];
                    (k, before.perturbed_sparse(&mut rng, 0.02))
                })
                .collect();
            let before = stats_of(&dep);
            client
                .store_model(g.clone(), map.clone(), Some(parent), 0.5, &tensors)
                .unwrap();
            let derived = stats_of(&dep);
            stored.extend(tensors.iter().map(|(k, t)| (*k, t.clone())));

            let loaded = client.load_model(id).unwrap();
            assert_eq!(loaded.tensors.len(), map.all_tensor_keys().len());
            for (key, tensor) in &loaded.tensors {
                assert!(
                    stored[key] == *tensor,
                    "log {log}, cycle {cycle}: {key} read back changed"
                );
            }
            let after = stats_of(&dep);
            if cycle > 1 {
                // Both replicas encode every retrained tensor.
                let bases = 2 * tensors.len() as u64;
                assert_eq!(
                    (
                        derived.raw_cache_base_hits - before.raw_cache_base_hits,
                        derived.raw_cache_base_misses - before.raw_cache_base_misses,
                    ),
                    (bases, 0),
                    "log {log}, cycle {cycle}: every base comes from the cache"
                );
                assert_eq!(
                    after.delta_reconstructs, derived.delta_reconstructs,
                    "log {log}, cycle {cycle}: the load decoded a delta"
                );
            }
            for state in dep.provider_states() {
                assert!(state.stats().raw_cache_bytes as usize <= RAW_CACHE_CAP);
            }

            live.push_back(id);
            if live.len() > WINDOW {
                client.retire_model(live.pop_front().unwrap()).unwrap();
            }
        }
        let stats = stats_of(&dep);
        assert!(
            stats.delta_stored > 0,
            "log {log}: the lineage is stored as deltas"
        );
        assert!(stats.raw_cache_bytes > 0, "log {log}");
        // The deployment exports the caches' series.
        let snap = dep.metrics_snapshot();
        for (name, want) in [
            ("evostore_raw_cache_base_hits", stats.raw_cache_base_hits),
            (
                "evostore_raw_cache_base_misses",
                stats.raw_cache_base_misses,
            ),
        ] {
            assert_eq!(snap.counter_total(name), want, "{name}");
        }
        assert!(snap.find("evostore_raw_cache_bytes").is_some());
        dep.gc_audit().unwrap();
        drop(client);
        drop(dep);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
