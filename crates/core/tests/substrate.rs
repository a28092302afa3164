//! End-to-end tests of the content-addressed chunked tensor substrate:
//! cross-model chunk dedup, parent-delta encoding of derived models,
//! GC safety of delta bases, the chain bound, and persistent recovery.

use std::collections::HashMap;

use evostore_core::messages::{ManifestEntry, ReadTensorsRequest, StoreModelRequest};
use evostore_core::{
    methods, random_tensors, BackendKind, Deployment, DeploymentConfig, OwnerMap,
    ReplicationPolicy, StorePolicy,
};
use evostore_graph::{
    flatten, lcp, Activation, Architecture, CompactGraph, LayerConfig, LayerKind,
};
use evostore_obs::FlightEvent;
use evostore_rpc::{unary, BulkHandle, FaultPlan, Method, RetryPolicy};
use evostore_tensor::{write_tensor, ModelId, TensorData, TensorKey, BORROW_MIN_BYTES};
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

/// One-provider deployment under the given storage policy (delta bases
/// must be co-located with their dependents, which a single provider
/// guarantees for every placement).
fn dep_with(policy: StorePolicy) -> Deployment {
    Deployment::new(DeploymentConfig {
        providers: 1,
        store_policy: policy,
        ..Default::default()
    })
}

/// Owner map for `child` deriving from `parent_map` over the *same*
/// graph, retraining (owning) the last `own_last` vertices.
fn suffix_map(
    child: ModelId,
    g: &CompactGraph,
    parent_map: &OwnerMap,
    own_last: usize,
) -> OwnerMap {
    let mut l = lcp(g, g);
    let n = g.len();
    l.prefix.retain(|v| (v.0 as usize) < n - own_last);
    for i in n - own_last..n {
        l.match_in_ancestor[i] = None;
    }
    OwnerMap::derive(child, g, &l, parent_map)
}

/// Sparsely perturbed copies of the previous generation's tensors for
/// every self-owned key of `map` — a stand-in for fine-tuning, so the
/// derived payloads are byte-similar to their bases.
fn finetuned(
    map: &OwnerMap,
    prev: &HashMap<u32, TensorData>,
    rng: &mut ChaCha8Rng,
) -> HashMap<TensorKey, TensorData> {
    map.self_owned()
        .flat_map(|v| map.vertex(v).tensor_keys().collect::<Vec<_>>())
        .map(|k| (k, prev[&k.slot].perturbed_sparse(rng, 0.05)))
        .collect()
}

#[test]
fn unrelated_models_share_chunks_and_retire_safely() {
    let dep = dep_with(StorePolicy::chunked_with_delta());
    let client = dep.client();
    let g = seq(&[8, 32, 32, 8]);

    // Two unrelated models (no parent link) with byte-identical
    // parameters: same seed, fresh owner maps.
    let t1 = random_tensors(ModelId(1), &g, &mut ChaCha8Rng::seed_from_u64(9));
    let t2 = random_tensors(ModelId(2), &g, &mut ChaCha8Rng::seed_from_u64(9));
    client
        .store_model(g.clone(), OwnerMap::fresh(ModelId(1), &g), None, 0.5, &t1)
        .unwrap();
    client
        .store_model(g.clone(), OwnerMap::fresh(ModelId(2), &g), None, 0.5, &t2)
        .unwrap();

    // The second model's payload bytes dedup against the first's chunks.
    let stats = client.stats().unwrap();
    assert!(stats.chunks > 0, "chunked policy must materialize chunks");
    assert!(
        stats.chunk_dedup_hits > 0,
        "identical payloads must share chunks"
    );
    assert!(
        stats.chunk_physical_bytes < stats.chunk_logical_bytes,
        "physical {} must undercut logical {}",
        stats.chunk_physical_bytes,
        stats.chunk_logical_bytes
    );
    dep.gc_audit().unwrap();

    // Retiring one sharer must not free chunks the survivor references.
    client.retire_model(ModelId(2)).unwrap();
    dep.gc_audit().unwrap();
    let loaded = client.load_model(ModelId(1)).unwrap();
    for (key, tensor) in &t1 {
        assert_eq!(&loaded.tensors[key], tensor, "tensor {key} differs");
    }
    assert!(client.load_model(ModelId(2)).is_err());
}

#[test]
fn delta_chain_roundtrips_bytewise() {
    let dep = dep_with(StorePolicy::chunked_with_delta());
    let client = dep.client();
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(11);

    let base_tensors = random_tensors(ModelId(1), &g, &mut rng);
    client
        .store_model(
            g.clone(),
            OwnerMap::fresh(ModelId(1), &g),
            None,
            0.5,
            &base_tensors,
        )
        .unwrap();

    // Five generations, each fine-tuning the last layer of its parent.
    // With MAX_CHAIN_DEPTH = 3, generation 4 falls back to raw and
    // generation 5 starts a fresh chain on top of it.
    let last_v = g.len() - 1;
    let mut parent_map = OwnerMap::fresh(ModelId(1), &g);
    let mut prev: HashMap<u32, TensorData> = base_tensors
        .iter()
        .filter(|(k, _)| k.vertex.0 as usize == last_v)
        .map(|(k, t)| (k.slot, t.clone()))
        .collect();
    let mut expected: Vec<HashMap<TensorKey, TensorData>> = vec![base_tensors.clone()];
    for generation in 1..=5u64 {
        let child = ModelId(generation + 1);
        let map = suffix_map(child, &g, &parent_map, 1);
        let new = finetuned(&map, &prev, &mut rng);
        client
            .store_model(g.clone(), map.clone(), Some(ModelId(generation)), 0.6, &new)
            .unwrap();
        prev = new.iter().map(|(k, t)| (k.slot, t.clone())).collect();
        let mut exp = expected[generation as usize - 1].clone();
        exp.retain(|k, _| k.vertex.0 as usize != last_v);
        exp.extend(new);
        expected.push(exp);
        parent_map = map;
    }

    let stats = client.stats().unwrap();
    assert!(
        stats.delta_stored > 0,
        "fine-tuned generations must produce delta records"
    );

    // Every generation reconstructs byte-identically through the chain.
    for (i, exp) in expected.iter().enumerate() {
        let loaded = client.load_model(ModelId(i as u64 + 1)).unwrap();
        assert_eq!(loaded.tensors.len(), exp.len());
        for (key, tensor) in exp {
            assert_eq!(&loaded.tensors[key], tensor, "gen {i} tensor {key} differs");
        }
    }
    assert!(client.stats().unwrap().delta_reconstructs > 0);
    dep.gc_audit().unwrap();
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
fn retiring_a_delta_base_retains_it_until_its_last_dependent_goes() {
    let dep = dep_with(StorePolicy::chunked_with_delta());
    let client = dep.client();
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(13);

    let base_tensors = random_tensors(ModelId(1), &g, &mut rng);
    client
        .store_model(
            g.clone(),
            OwnerMap::fresh(ModelId(1), &g),
            None,
            0.5,
            &base_tensors,
        )
        .unwrap();
    let parent_map = OwnerMap::fresh(ModelId(1), &g);
    let last_v = g.len() - 1;
    let prev: HashMap<u32, TensorData> = base_tensors
        .iter()
        .filter(|(k, _)| k.vertex.0 as usize == last_v)
        .map(|(k, t)| (k.slot, t.clone()))
        .collect();
    let map = suffix_map(ModelId(2), &g, &parent_map, 1);
    let new = finetuned(&map, &prev, &mut rng);
    client
        .store_model(g.clone(), map, Some(ModelId(1)), 0.6, &new)
        .unwrap();
    let links = dep.provider_states()[0].delta_links().unwrap();
    assert!(!links.is_empty());

    // Retiring the parent leaves each delta's base in place, held by the
    // one delta encoded against it; only the retrained tensors no delta
    // holds are reclaimed.
    let retired = client.retire_model(ModelId(1)).unwrap();
    dep.gc_audit().unwrap();
    assert_eq!(retired.tensors_reclaimed, new.len() - links.len());
    for (delta, base) in &links {
        assert_eq!(base.owner, ModelId(1), "{delta}");
        assert_eq!(hosted_refs(&dep, *base), vec![1], "retained base {base}");
    }

    let loaded = client.load_model(ModelId(2)).unwrap();
    for (key, tensor) in &new {
        assert_eq!(&loaded.tensors[key], tensor, "tensor {key} differs");
    }
    // Inherited prefix tensors survive the parent's retirement verbatim.
    for (key, tensor) in &base_tensors {
        if key.vertex.0 as usize != last_v {
            assert_eq!(&loaded.tensors[key], tensor, "prefix {key} differs");
        }
    }

    // Retiring the child reclaims its own tensors, the inherited prefix
    // and, by cascade, the retained bases.
    let retired = client.retire_model(ModelId(2)).unwrap();
    assert_eq!(retired.tensors_reclaimed, base_tensors.len() + links.len());
    assert_eq!(client.stats().unwrap().tensors, 0);
    dep.gc_audit().unwrap();
}

#[test]
fn chunked_delta_deployment_survives_reopen_with_its_bases_retained() {
    let dir = std::env::temp_dir().join(format!("evostore-substrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DeploymentConfig {
        providers: 1,
        backend: BackendKind::Log { dir: dir.clone() },
        store_policy: StorePolicy::chunked_with_delta(),
        ..Default::default()
    };
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let base_tensors = random_tensors(ModelId(1), &g, &mut rng);
    let last_v = g.len() - 1;
    let parent_map = OwnerMap::fresh(ModelId(1), &g);
    let map = suffix_map(ModelId(2), &g, &parent_map, 1);
    let prev: HashMap<u32, TensorData> = base_tensors
        .iter()
        .filter(|(k, _)| k.vertex.0 as usize == last_v)
        .map(|(k, t)| (k.slot, t.clone()))
        .collect();
    let new = finetuned(&map, &prev, &mut rng);

    // Session 1: a base model and a delta-encoded derived model.
    {
        let dep = Deployment::new(cfg.clone());
        let client = dep.client();
        client
            .store_model(
                g.clone(),
                OwnerMap::fresh(ModelId(1), &g),
                None,
                0.5,
                &base_tensors,
            )
            .unwrap();
        client
            .store_model(g.clone(), map.clone(), Some(ModelId(1)), 0.6, &new)
            .unwrap();
        assert!(client.stats().unwrap().delta_stored > 0);
        dep.gc_audit().unwrap();
    } // dropped: "process restart"

    // Session 2: chunk refcounts and the deltas' references on their
    // bases are rebuilt from the fanned log; both models reconstruct
    // bytewise.
    let dep = Deployment::reopen(cfg.clone()).expect("recovery succeeds");
    let client = dep.client();
    let parent = client.load_model(ModelId(1)).unwrap();
    for (key, tensor) in &base_tensors {
        assert_eq!(&parent.tensors[key], tensor, "parent {key} differs");
    }
    let child_reads_back = |client: &evostore_core::EvoStoreClient, when: &str| {
        let child = client.load_model(ModelId(2)).unwrap();
        for (key, tensor) in &new {
            assert_eq!(&child.tensors[key], tensor, "{when}: child {key} differs");
        }
    };
    child_reads_back(&client, "reopened");
    dep.gc_audit().unwrap();

    // The recovered references hold the bases: retiring the parent
    // leaves each base held by its one dependent.
    let links = dep.provider_states()[0].delta_links().unwrap();
    assert!(!links.is_empty());
    client.retire_model(ModelId(1)).unwrap();
    dep.gc_audit().unwrap();
    for (_, base) in &links {
        assert_eq!(hosted_refs(&dep, *base), vec![1], "retained base {base}");
    }
    child_reads_back(&client, "parent retired");

    // Session 3: the retained bases survive another restart.
    drop(client);
    drop(dep);
    let dep = Deployment::reopen(cfg).expect("second recovery succeeds");
    let client = dep.client();
    child_reads_back(&client, "reopened with retained bases");
    dep.gc_audit().unwrap();
    for (_, base) in &links {
        assert_eq!(hosted_refs(&dep, *base), vec![1], "recovered base {base}");
    }

    // Retiring the child takes the retained bases with it.
    let retired = client.retire_model(ModelId(2)).unwrap();
    assert_eq!(retired.tensors_reclaimed, base_tensors.len() + links.len());
    assert_eq!(client.stats().unwrap().tensors, 0);
    dep.gc_audit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fork side of `par::map`'s inline rule, end to end: every other
/// test here moves tensors of a few KB, which the payload path walks
/// inline. Two generations of 1 MiB layers on the chunked+delta
/// substrate share out all five per-tensor loops (client serialize and
/// decode; provider validate, delta-encode, gather + reconstruct) — and
/// must read back the stored bytes, charge the ops' ledgers, and keep
/// each op's spans in one tree.
#[test]
fn forked_payload_path_roundtrips_and_attributes() {
    let dep = dep_with(StorePolicy::chunked_with_delta());
    let client = dep.client();
    let g = seq(&[512, 512, 512, 512]);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let before = client.stats().unwrap();

    let base_tensors = random_tensors(ModelId(1), &g, &mut rng);
    assert!(base_tensors.values().any(|t| t.byte_len() >= 1 << 20));
    let base_map = OwnerMap::fresh(ModelId(1), &g);
    client
        .store_model(g.clone(), base_map.clone(), None, 0.5, &base_tensors)
        .unwrap();
    // The child fine-tunes the last two layers: two 1 MiB weights and
    // their biases, all four stored as deltas.
    let child_map = suffix_map(ModelId(2), &g, &base_map, 2);
    let child_new: HashMap<TensorKey, TensorData> = child_map
        .self_owned()
        .flat_map(|v| child_map.vertex(v).tensor_keys().collect::<Vec<_>>())
        .map(|k| {
            let base = &base_tensors[&TensorKey::new(ModelId(1), k.vertex, k.slot)];
            (k, base.perturbed_sparse(&mut rng, 0.02))
        })
        .collect();
    client
        .store_model(g.clone(), child_map, Some(ModelId(1)), 0.6, &child_new)
        .unwrap();

    let loaded = client.load_model(ModelId(2)).unwrap();
    let mut expected = base_tensors.clone();
    expected.retain(|k, _| {
        !child_new
            .keys()
            .any(|c| (c.vertex, c.slot) == (k.vertex, k.slot))
    });
    expected.extend(child_new.clone());
    assert_eq!(loaded.tensors.len(), expected.len());
    for (key, tensor) in &expected {
        assert_eq!(&loaded.tensors[key], tensor, "tensor {key} differs");
    }

    let stats = client.stats().unwrap();
    let deltas = child_new.len() as u64;
    assert_eq!(
        stats.delta_stored, deltas,
        "every fine-tuned tensor is a delta"
    );
    assert!(stats.delta_reconstructs >= deltas);
    if stats.par_helpers > 0 {
        assert_eq!(
            stats.validate_par_batches, 2,
            "both manifests were validated across the pool"
        );
        // Per store: serialize + validate (+ delta-encode for the
        // child); per load: provider gather + client decode.
        assert!(
            stats.par_forked_total - before.par_forked_total >= 7,
            "forked {} -> {}",
            before.par_forked_total,
            stats.par_forked_total
        );
    } else {
        assert_eq!(stats.validate_par_batches, 0);
        assert_eq!(stats.par_forked_total, 0, "one core: nothing is shared out");
    }

    // Ledgers: what a helper charged landed in the op that forked.
    let payload: u64 = expected.values().map(|t| t.byte_len() as u64).sum();
    let fetch = client.ledger().entry("fetch").expect("fetch ledger entry");
    assert!(
        fetch.bytes_in >= payload,
        "fetch charged {}",
        fetch.bytes_in
    );
    assert_eq!(fetch.chunks_touched, expected.len() as u64);
    let provider = &dep.provider_states()[0];
    let read = provider
        .ledger()
        .entry(methods::Read::METHOD)
        .expect("provider READ ledger entry");
    assert_eq!(
        read.bytes_out, fetch.bytes_in,
        "both ends count the same records"
    );
    assert_eq!(
        read.delta_chain_depth_max, 1,
        "the reconstruct's chain walk reached the READ's ledger cell"
    );

    // Spans: the load's trace is one tree under the client's root.
    let root = dep
        .obs()
        .recorders()
        .iter()
        .flat_map(|r| r.events())
        .find_map(|e| match e {
            FlightEvent::Span(s) if s.name == "fetch_tensors" => Some(s),
            _ => None,
        })
        .expect("client root span");
    let spans = dep.obs().trace_spans(root.trace_id);
    assert!(spans.iter().any(|s| s.name == "kv.read_tensors"));
    for span in &spans {
        assert!(
            span.span_id == root.span_id || spans.iter().any(|p| p.span_id == span.parent_span_id),
            "span {} of the load hangs under nothing",
            span.name
        );
    }

    // Retiring the base leaves its dependents as they are, and the child
    // still reads back byte-identical through the retained bases.
    client.retire_model(ModelId(1)).unwrap();
    dep.gc_audit().unwrap();
    let loaded = client.load_model(ModelId(2)).unwrap();
    for (key, tensor) in &expected {
        assert_eq!(
            &loaded.tensors[key], tensor,
            "tensor {key} differs after the base retired"
        );
    }
}

/// A graph whose weights sit on both sides of the borrow threshold: a
/// 64 KiB and a 256 KiB dense layer are stored as ropes around the
/// caller's buffers, the 16 KiB layer and every bias as copied records.
fn mixed_sizes() -> CompactGraph {
    seq(&[64, 256, 256, 16])
}

fn is_borrowed(t: &TensorData) -> bool {
    t.byte_len() >= BORROW_MIN_BYTES
}

/// (a) of the borrowed-record tests: under `whole` + memory a tensor
/// above the threshold is never copied — the pool holds the caller's
/// buffer, a load hands that same buffer back, and a range read is a view
/// into it — while a tensor below it is copied exactly as before.
#[test]
fn borrowed_records_share_the_callers_buffer() {
    let dep = dep_with(StorePolicy::whole());
    let client = dep.client();
    let g = mixed_sizes();
    let tensors = random_tensors(ModelId(1), &g, &mut ChaCha8Rng::seed_from_u64(31));
    assert!(tensors.values().any(is_borrowed) && !tensors.values().all(is_borrowed));
    client
        .store_model(
            g.clone(),
            OwnerMap::fresh(ModelId(1), &g),
            None,
            0.5,
            &tensors,
        )
        .unwrap();

    // What the pool holds, as a raw READ exposes it.
    let mut keys: Vec<TensorKey> = tensors.keys().copied().collect();
    keys.sort();
    let reply = unary(
        dep.fabric(),
        dep.provider_ids()[0],
        methods::Read,
        &ReadTensorsRequest { keys: keys.clone() },
        &RetryPolicy::no_retry(),
        None,
        None,
    )
    .unwrap();
    let region = dep.fabric().bulk_get_vec(BulkHandle(reply.bulk)).unwrap();
    dep.fabric().bulk_release(BulkHandle(reply.bulk));
    for entry in &reply.manifest {
        let t = &tensors[&entry.key];
        let record = region
            .slice_rope(entry.offset as usize, entry.len as usize)
            .unwrap();
        if is_borrowed(t) {
            assert_eq!(record.len(), 3, "{}: head, payload, check", entry.key);
            assert_eq!(record[1].as_ptr(), t.bytes().as_ptr(), "{}", entry.key);
        } else {
            assert_eq!(record.len(), 1, "{}: one copied record", entry.key);
        }
        assert_eq!(evostore_tensor::rope::flatten(&record), write_tensor(t));
    }

    let loaded = client.load_model(ModelId(1)).unwrap();
    for (key, t) in &tensors {
        let back = &loaded.tensors[key];
        assert_eq!(back, t);
        assert_eq!(
            back.bytes().as_ptr() == t.bytes().as_ptr(),
            is_borrowed(t),
            "{key}: {} bytes",
            t.byte_len()
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.zero_copy_reads, 2 * tensors.len() as u64);
    assert_eq!(stats.copy_fallback_reads, 0);

    // A partial read of a borrowed record is a view into the caller's
    // buffer: the record is not flattened to serve a few elements.
    let (key, t) = tensors.iter().find(|(_, t)| is_borrowed(t)).unwrap();
    let esz = t.dtype().size_of();
    let part = client.fetch_tensor_slice(*key, 10, 5).unwrap();
    assert_eq!(part.bytes()[..], t.bytes()[10 * esz..15 * esz]);
    assert_eq!(part.bytes().as_ptr(), t.bytes()[10 * esz..].as_ptr());
    // Out of range — by count, and by a count that overflows — is refused.
    let n = t.num_elements() as u64;
    assert!(client.fetch_tensor_slice(*key, n - 1, 2).is_err());
    assert!(client.fetch_tensor_slice(*key, 1, u64::MAX).is_err());
    assert!(client.fetch_tensor_slice(*key, u64::MAX / 2, 4).is_err());
    dep.gc_audit().unwrap();
}

/// (c): store → derive → load → retire → `gc_audit` over borrowed
/// records on both substrates — whole and chunked + delta records,
/// memory and log backends, one and two replicas — and, where
/// there is a log to reopen, once more after a restart.
#[test]
fn borrowed_records_roundtrip_on_every_substrate() {
    let g = mixed_sizes();
    let root = std::env::temp_dir().join(format!("evostore-borrowed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let policies = [
        ("whole", StorePolicy::whole()),
        ("delta", StorePolicy::chunked_with_delta()),
    ];
    for (name, policy) in policies {
        for persistent in [false, true] {
            for replicas in [1, 2] {
                let what = format!("{name}, log {persistent}, {replicas} replicas");
                let backend = match persistent {
                    false => BackendKind::Memory,
                    true => BackendKind::Log {
                        dir: root.join(format!("{name}-{replicas}")),
                    },
                };
                let cfg = DeploymentConfig {
                    providers: replicas,
                    backend,
                    replication: ReplicationPolicy::new(replicas),
                    store_policy: policy,
                    ..Default::default()
                };
                let mut dep = Deployment::new(cfg.clone());
                let mut rng = ChaCha8Rng::seed_from_u64(37);

                let base = random_tensors(ModelId(1), &g, &mut rng);
                let base_map = OwnerMap::fresh(ModelId(1), &g);
                // The child fine-tunes the last two layers: the 256 KiB
                // weight (borrowed) and the 16 KiB one (copied).
                let child_map = suffix_map(ModelId(2), &g, &base_map, 2);
                let tuned: HashMap<TensorKey, TensorData> = child_map
                    .self_owned()
                    .flat_map(|v| child_map.vertex(v).tensor_keys().collect::<Vec<_>>())
                    .map(|k| {
                        let base = &base[&TensorKey::new(ModelId(1), k.vertex, k.slot)];
                        (k, base.perturbed_sparse(&mut rng, 0.02))
                    })
                    .collect();
                assert!(tuned.values().any(is_borrowed));
                let mut child = base.clone();
                child.retain(|k, _| {
                    !tuned
                        .keys()
                        .any(|t| (t.vertex, t.slot) == (k.vertex, k.slot))
                });
                child.extend(tuned.clone());

                let client = dep.client();
                client
                    .store_model(g.clone(), base_map, None, 0.5, &base)
                    .unwrap();
                client
                    .store_model(g.clone(), child_map, Some(ModelId(1)), 0.6, &tuned)
                    .unwrap();
                if name == "delta" {
                    assert!(client.stats().unwrap().delta_stored > 0, "{what}");
                }
                dep.gc_audit().unwrap();
                if persistent {
                    drop(client);
                    drop(dep);
                    dep = Deployment::reopen(cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
                }
                let client = dep.client();
                assert_eq!(
                    client.load_model(ModelId(1)).unwrap().tensors,
                    base,
                    "{what}"
                );
                assert_eq!(
                    client.load_model(ModelId(2)).unwrap().tensors,
                    child,
                    "{what}"
                );

                // The base's retirement leaves the child whole (shared
                // layers pinned, delta bases retained), the child's
                // leaves nothing.
                client.retire_model(ModelId(1)).unwrap();
                dep.gc_audit().unwrap();
                assert_eq!(
                    client.load_model(ModelId(2)).unwrap().tensors,
                    child,
                    "{what}"
                );
                client.retire_model(ModelId(2)).unwrap();
                dep.gc_audit().unwrap();
                let stats = client.stats().unwrap();
                assert_eq!(stats.tensors, 0, "{what}: tensors left behind");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Every file under `dir`, by relative path.
fn tree(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    fn walk(
        root: &std::path::Path,
        dir: &std::path::Path,
        out: &mut std::collections::BTreeMap<String, Vec<u8>>,
    ) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let name = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = std::collections::BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// The stored format did not move: a push of contiguous records — what
/// the previous build's client sent, spelled out here by hand — and this
/// build's borrowed push leave byte-identical tensor logs, and a log
/// written from contiguous records reopens and loads through the rope
/// read path.
#[test]
fn contiguous_and_borrowed_pushes_store_identical_bytes() {
    let g = mixed_sizes();
    let tensors = random_tensors(ModelId(1), &g, &mut ChaCha8Rng::seed_from_u64(41));
    let root = std::env::temp_dir().join(format!("evostore-samebytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (name, policy) in [
        ("whole", StorePolicy::whole()),
        ("delta", StorePolicy::chunked_with_delta()),
    ] {
        let cfg = |side: &str| DeploymentConfig {
            providers: 1,
            backend: BackendKind::Log {
                dir: root.join(format!("{name}-{side}")),
            },
            store_policy: policy,
            ..Default::default()
        };
        {
            // One contiguous record per tensor, one segment each.
            let dep = Deployment::new(cfg("contiguous"));
            let mut keys: Vec<&TensorKey> = tensors.keys().collect();
            keys.sort();
            let records: Vec<bytes::Bytes> =
                keys.iter().map(|k| write_tensor(&tensors[*k])).collect();
            let mut offset = 0;
            let manifest = keys
                .iter()
                .zip(&records)
                .map(|(key, record)| {
                    let entry = ManifestEntry {
                        key: **key,
                        offset,
                        len: record.len() as u64,
                    };
                    offset += entry.len;
                    entry
                })
                .collect();
            let bulk = dep.fabric().bulk_expose_vec(records);
            unary(
                dep.fabric(),
                dep.provider_ids()[0],
                methods::Store,
                &StoreModelRequest {
                    model: ModelId(1),
                    graph: g.clone(),
                    owner_map: OwnerMap::fresh(ModelId(1), &g),
                    parent: None,
                    quality: 0.5,
                    manifest,
                    bulk: bulk.0,
                    timestamp: None,
                },
                &RetryPolicy::no_retry(),
                None,
                None,
            )
            .unwrap();
            dep.fabric().bulk_release(bulk);

            let dep = Deployment::new(cfg("borrowed"));
            dep.client()
                .store_model(
                    g.clone(),
                    OwnerMap::fresh(ModelId(1), &g),
                    None,
                    0.5,
                    &tensors,
                )
                .unwrap();
        }
        let contiguous = tree(&root.join(format!("{name}-contiguous/provider-0/tensors")));
        let borrowed = tree(&root.join(format!("{name}-borrowed/provider-0/tensors")));
        assert!(contiguous.values().map(Vec::len).sum::<usize>() > 300 * 1024);
        assert!(contiguous == borrowed, "{name}: tensor logs differ");

        let dep = Deployment::reopen(cfg("contiguous")).unwrap();
        assert_eq!(
            dep.client().load_model(ModelId(1)).unwrap().tensors,
            tensors
        );
        dep.gc_audit().unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// One step of a lineage history.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Store an unrelated model.
    Fresh,
    /// Derive from the `i`-th live model, retraining its last `own`
    /// layers as sparse perturbations (so they store as deltas).
    Derive { i: usize, own: usize },
    /// Retire the `i`-th live model, mid-chain bases included.
    Retire { i: usize },
    /// Drop the deployment and reopen it from its logs.
    Reopen,
    /// Store an unrelated model while provider 1 is down, bring it back
    /// and `repair()`.
    Outage,
}

/// A live model: its id, owner map and every tensor it reads back.
type Live = (ModelId, OwnerMap, HashMap<TensorKey, TensorData>);

/// One seeded history of at most 24 steps on 2 providers holding 2
/// replicas each in log stores under `policy`. After every step every
/// live model loads byte-identical and `gc_audit` passes. Returns how
/// many retained bases (held by a delta, named by no live model) the
/// steps left, summed over the steps.
fn lineage_history(
    policy: StorePolicy,
    seed: u64,
    history: &mut Vec<Step>,
) -> Result<usize, String> {
    let dir = std::env::temp_dir().join(format!(
        "evostore-lineage-{}-{policy:?}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DeploymentConfig {
        providers: 2,
        replication: ReplicationPolicy::new(2),
        backend: BackendKind::Log { dir: dir.clone() },
        store_policy: policy,
        ..Default::default()
    };
    let g = seq(&[8, 16, 16, 4]);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dep = Deployment::new(cfg.clone());
    let mut live: Vec<Live> = Vec::new();
    let mut next_id = 1u64;
    let mut retained = 0;
    for _ in 0..24 {
        let step = match rng.random_range(0..10u32) {
            _ if live.is_empty() => Step::Fresh,
            0 | 1 => Step::Fresh,
            2..=5 => Step::Derive {
                i: rng.random_range(0..live.len()),
                own: rng.random_range(1..3usize),
            },
            6 | 7 => Step::Retire {
                i: rng.random_range(0..live.len()),
            },
            8 => Step::Reopen,
            _ => Step::Outage,
        };
        history.push(step);
        match step {
            Step::Fresh => {
                let model = ModelId(next_id);
                next_id += 1;
                let map = OwnerMap::fresh(model, &g);
                let tensors = random_tensors(model, &g, &mut rng);
                dep.client()
                    .store_model(g.clone(), map.clone(), None, 0.5, &tensors)
                    .map_err(|e| format!("store {model}: {e}"))?;
                live.push((model, map, tensors));
            }
            Step::Derive { i, own } => {
                let (parent, parent_map, mut tensors) = live[i].clone();
                let child = ModelId(next_id);
                next_id += 1;
                let map = suffix_map(child, &g, &parent_map, own);
                let prev: HashMap<(u32, u32), &TensorData> = tensors
                    .iter()
                    .map(|(k, t)| ((k.vertex.0, k.slot), t))
                    .collect();
                let new: HashMap<TensorKey, TensorData> = map
                    .self_owned()
                    .flat_map(|v| map.vertex(v).tensor_keys().collect::<Vec<_>>())
                    .map(|k| {
                        (
                            k,
                            prev[&(k.vertex.0, k.slot)].perturbed_sparse(&mut rng, 0.05),
                        )
                    })
                    .collect();
                dep.client()
                    .store_model(g.clone(), map.clone(), Some(parent), 0.6, &new)
                    .map_err(|e| format!("derive {child} from {parent}: {e}"))?;
                tensors
                    .retain(|k, _| !new.keys().any(|n| (n.vertex, n.slot) == (k.vertex, k.slot)));
                tensors.extend(new);
                live.push((child, map, tensors));
            }
            Step::Retire { i } => {
                let (model, ..) = live.remove(i);
                dep.client()
                    .retire_model(model)
                    .map_err(|e| format!("retire {model}: {e}"))?;
            }
            Step::Reopen => {
                drop(dep);
                dep = Deployment::reopen(cfg.clone())?;
            }
            Step::Outage => {
                let model = ModelId(next_id);
                next_id += 1;
                let map = OwnerMap::fresh(model, &g);
                let tensors = random_tensors(model, &g, &mut rng);
                let down = dep.provider_ids()[1];
                let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
                plan.set_down(down);
                let stored = dep
                    .client()
                    .store_model(g.clone(), map.clone(), None, 0.5, &tensors);
                plan.set_up(down);
                stored.map_err(|e| format!("store {model} with provider 1 down: {e}"))?;
                let report = dep.repair()?;
                if report.models_synced == 0 || report.missing_payloads > 0 {
                    return Err(format!("repair after the outage: {report:?}"));
                }
                live.push((model, map, tensors));
            }
        }
        let client = dep.client();
        for (model, _, tensors) in &live {
            let loaded = client
                .load_model(*model)
                .map_err(|e| format!("load {model}: {e}"))?;
            if &loaded.tensors != tensors {
                return Err(format!("{model} does not read back byte-identical"));
            }
        }
        dep.gc_audit()?;
        for state in dep.provider_states() {
            retained += state
                .delta_links()?
                .iter()
                .filter(|(_, base)| live.iter().all(|(m, ..)| *m != base.owner))
                .count();
        }
    }
    drop(dep);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(retained)
}

/// The lineage model test: 16 seeded histories of fresh stores,
/// derivations from any live model, retirements of any live model,
/// restarts and outages healed by repair, under both store
/// policies — so both repair legs (materialized records, negotiated
/// chunks) run under the same checks. Deterministic, with no threads or
/// sleeps of its own; a failure prints its policy, seed and history.
#[test]
fn lineage_histories_keep_every_live_model_and_every_count() {
    for policy in [StorePolicy::whole(), StorePolicy::chunked_with_delta()] {
        let mut retained = 0;
        for seed in 0..16 {
            let mut history = Vec::new();
            match lineage_history(policy, seed, &mut history) {
                Ok(r) => retained += r,
                Err(e) => panic!("{policy:?}, seed {seed}, history {history:?}: {e}"),
            }
        }
        if policy != StorePolicy::Whole {
            assert!(retained > 0, "no history retained a base");
        }
    }
}
