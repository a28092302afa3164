//! Criterion micro-benchmarks and design-choice ablations.
//!
//! Covers the ablations called out in DESIGN.md:
//! 1. owner-map reads vs delta-chain reconstruction,
//! 2. leaf-layer flattening cost,
//! 3. Algorithm 1 (frontier LCP) vs the naive fixpoint,
//! 4. provider-side collective LCP vs client-side iterative pull,
//! 5. consolidated incremental store vs full store,
//! 6. KV backend comparison (pool vs log),
//! 7. contiguous vs borrowed tensor records across sizes (the sweep
//!    `BORROW_MIN_BYTES` is read from),
//! 8. the call engine: echo `fan_out` vs `broadcast` by leg count, and
//!    `unary` at one leg,
//! 9. the control codec: encode and decode of the four messages every
//!    small op carries, on `catalog_churn`'s tiny attention models,
//! 10. the substrate's delta path: the encoder by change density, a
//!     decode, a depth-3 chain copied vs applied in place, and a chunked
//!     read from the log store,
//! 11. the dispatch lane: a unary echo queued for a 1-thread endpoint's
//!     service thread vs run on the caller's thread, hot and after idle.

use std::collections::HashMap;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use evostore_core::messages::{
    LcpBatchRequest, ManifestEntry, ModelMetaReply, ReadTensorsReply, StoreModelRequest,
};
use evostore_core::{random_tensors, trained_tensors, Deployment, OwnerMap};
use evostore_graph::{flatten, lcp, lcp_fixpoint, CompactGraph, GenomeSpace};
use evostore_kv::{ChunkedStore, KvBackend, LogStore, MemPoolStore, DEFAULT_CHUNK_SIZE};
use evostore_rpc::{broadcast, decode, encode, fan_out, unary, EndpointId, Fabric, RetryPolicy};
use evostore_tensor::{
    apply_delta, decode_delta, encode_delta, read_tensor_segments, validate_segments, write_tensor,
    write_tensor_borrowed, DType, ModelId, Record, TensorData, TensorKey, VertexId,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn sample_graphs(n: usize, seed: u64) -> Vec<CompactGraph> {
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut genome = space.sample(&mut rng);
    (0..n)
        .map(|i| {
            if i % 10 == 0 {
                genome = space.sample(&mut rng);
            } else {
                genome = space.mutate(&genome, &mut rng);
            }
            flatten(&space.materialize(&genome)).unwrap()
        })
        .collect()
}

/// Ablation 3: Algorithm 1 vs the O(V^2) fixpoint.
fn bench_lcp(c: &mut Criterion) {
    let graphs = sample_graphs(2, 1);
    let (g, a) = (&graphs[0], &graphs[1]);
    let mut group = c.benchmark_group("lcp");
    group.bench_function("frontier_algorithm1", |b| b.iter(|| lcp(g, a)));
    group.bench_function("naive_fixpoint", |b| b.iter(|| lcp_fixpoint(g, a)));

    // Catalog scan: the per-query work of one provider.
    let catalog = sample_graphs(500, 2);
    let probe = &catalog[250];
    group.bench_function("scan_500_graphs", |b| {
        b.iter(|| catalog.iter().map(|a| lcp(probe, a).len()).max().unwrap())
    });
    group.finish();
}

/// Ablation 2: flattening cost (nested -> compact).
fn bench_flatten(c: &mut Criterion) {
    let space = GenomeSpace::attn_like();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let genome = space.sample(&mut rng);
    let arch = space.materialize(&genome);
    c.bench_function("flatten/attn_genome", |b| {
        b.iter(|| flatten(&arch).unwrap())
    });
}

/// Ablation 1: one owner-map read vs walking a lineage of delta maps.
fn bench_owner_map(c: &mut Criterion) {
    // Build a chain of K derived models over the same architecture
    // (suffix retrained each generation), then resolve all tensor keys of
    // the newest model (a) via its single owner map, (b) by walking the
    // delta chain the way a naive incremental store would.
    let graphs = sample_graphs(1, 4);
    let g = &graphs[0];
    let chain_len = 32usize;

    let mut full_maps: Vec<OwnerMap> = Vec::new();
    let mut deltas: Vec<HashMap<u32, (ModelId, VertexId, u32)>> = Vec::new();
    let first = OwnerMap::fresh(ModelId(0), g);
    deltas.push(
        g.vertex_ids()
            .map(|v| (v.0, (ModelId(0), v, first.vertex(v).slots)))
            .collect(),
    );
    full_maps.push(first);
    for k in 1..chain_len {
        let prev = full_maps.last().unwrap();
        // Retrain the last quarter of vertices each generation.
        let mut r = lcp(g, g);
        let keep = g.len() * 3 / 4;
        r.prefix.truncate(keep);
        for v in keep..g.len() {
            r.match_in_ancestor[v] = None;
        }
        let map = OwnerMap::derive(ModelId(k as u64), g, &r, prev);
        deltas.push(
            map.self_owned()
                .map(|v| (v.0, (ModelId(k as u64), v, map.vertex(v).slots)))
                .collect(),
        );
        full_maps.push(map);
    }
    let newest = full_maps.last().unwrap();

    let mut group = c.benchmark_group("owner_map");
    group.bench_function("single_map_read", |b| {
        b.iter(|| newest.all_tensor_keys().len())
    });
    group.bench_function(BenchmarkId::new("delta_chain_walk", chain_len), |b| {
        b.iter(|| {
            // Resolve each vertex by walking the chain newest -> oldest.
            let mut resolved = 0usize;
            for v in g.vertex_ids() {
                for delta in deltas.iter().rev() {
                    if let Some((owner, ov, slots)) = delta.get(&v.0) {
                        let keys: Vec<TensorKey> = (0..*slots)
                            .map(|s| TensorKey::new(*owner, *ov, s))
                            .collect();
                        resolved += keys.len();
                        break;
                    }
                }
            }
            resolved
        })
    });
    group.bench_function("derive_from_ancestor", |b| {
        let r = lcp(g, g);
        b.iter(|| OwnerMap::derive(ModelId(999), g, &r, newest))
    });
    group.finish();
}

/// KV backends under the provider's access pattern.
fn bench_kv(c: &mut Criterion) {
    let value = Bytes::from(vec![7u8; 64 * 1024]);
    let mut group = c.benchmark_group("kv");
    group.sample_size(20);

    group.bench_function("mempool_put_get", |b| {
        let store = MemPoolStore::new();
        let mut i = 0u64;
        b.iter(|| {
            let key = i.to_le_bytes();
            store.put(&key, value.clone()).unwrap();
            let got = store.get(&key).unwrap();
            i += 1;
            got.len()
        })
    });

    let dir = std::env::temp_dir().join(format!("evostore-bench-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    group.bench_function("logstore_put_get", |b| {
        let store = LogStore::open(&dir).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let key = i.to_le_bytes();
            store.put(&key, value.clone()).unwrap();
            let got = store.get(&key).unwrap();
            i += 1;
            got.len()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// Ablation 7: the two record encodings at each size — `encode` alone,
/// and `cycle`, a record's whole life on the memory substrate (encode,
/// provider-side validate, pool put, resident read, decode, delete). The
/// copy the contiguous encoding pays grows with the payload; what the
/// borrowed one pays (a second small buffer, a segment list in the pool,
/// three segments where there was one) does not. `BORROW_MIN_BYTES` sits
/// where the first overtakes the second.
fn bench_record_encoding(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut group = c.benchmark_group("record_encoding");
    type Encoder = fn(&TensorData) -> Record;
    let encoders: [(&str, Encoder); 2] = [
        ("contiguous", |t| Record::Contiguous(write_tensor(t))),
        ("borrowed", |t| Record::Borrowed(write_tensor_borrowed(t))),
    ];
    for bytes in [256usize, 4 << 10, 64 << 10, 256 << 10, 2 << 20] {
        let t = TensorData::random(&mut rng, DType::F32, vec![bytes / 4]);
        for (name, encode) in encoders {
            group.bench_function(BenchmarkId::new(format!("encode_{name}"), bytes), |b| {
                b.iter(|| encode(&t))
            });
            let pool = MemPoolStore::new();
            group.bench_function(BenchmarkId::new(format!("cycle_{name}"), bytes), |b| {
                b.iter(|| {
                    let record = encode(&t);
                    validate_segments(record.segments()).unwrap();
                    pool.put_segments(b"k", record.segments().to_vec()).unwrap();
                    let back = read_tensor_segments(&pool.get_resident(b"k").unwrap()).unwrap();
                    pool.delete(b"k").unwrap();
                    back.byte_len()
                })
            });
        }
    }
    group.finish();
}

/// Ablation 5: consolidated incremental store vs full store, plus the
/// owner-map-guided load path, on a live deployment.
fn bench_store_load(c: &mut Criterion) {
    let dep = Deployment::in_memory(4);
    let client = dep.client();
    let graphs = sample_graphs(1, 5);
    let g = graphs[0].clone();
    let mut rng = ChaCha8Rng::seed_from_u64(6);

    let mut group = c.benchmark_group("store_load");
    group.sample_size(10);

    let mut next_id = 1u64;
    {
        let client = client.clone();
        let g2 = g.clone();
        group.bench_function("store_full_model", |b| {
            b.iter_batched(
                || {
                    let id = ModelId(next_id);
                    next_id += 1;
                    let map = OwnerMap::fresh(id, &g2);
                    let tensors = random_tensors(id, &g2, &mut rng);
                    (map, tensors)
                },
                |(map, tensors)| {
                    client
                        .store_model(g2.clone(), map, None, 0.5, &tensors)
                        .unwrap()
                },
                BatchSize::PerIteration,
            )
        });
    }

    // Seed one ancestor for the incremental path.
    let base = ModelId(1_000_000);
    let mut rng2 = ChaCha8Rng::seed_from_u64(7);
    client.store_fresh(base, &g, 0.9, &mut rng2).unwrap();
    let best = client
        .query_best_ancestor(&g)
        .unwrap()
        .into_inner()
        .unwrap();
    let meta = client.get_meta(best.model).unwrap();
    let mut next_id2 = 2_000_000u64;
    {
        let client = client.clone();
        let g2 = g.clone();
        group.bench_function("store_incremental_25pct", |b| {
            b.iter_batched(
                || {
                    let id = ModelId(next_id2);
                    next_id2 += 1;
                    let mut r = best.lcp.clone();
                    let keep = g2.len() * 3 / 4;
                    r.prefix.truncate(keep);
                    for v in keep..g2.len() {
                        r.match_in_ancestor[v] = None;
                    }
                    let map = OwnerMap::derive(id, &g2, &r, &meta.owner_map);
                    let tensors = trained_tensors(&g2, &map, id.0);
                    (map, tensors)
                },
                |(map, tensors)| {
                    client
                        .store_model(g2.clone(), map, Some(best.model), 0.5, &tensors)
                        .unwrap()
                },
                BatchSize::PerIteration,
            )
        });
    }

    group.bench_function("load_model", |b| {
        b.iter(|| client.load_model(base).unwrap().tensors.len())
    });
    group.finish();
}

/// Ablation 4: broadcast/reduce LCP query vs iterating providers and
/// pulling metadata client-side.
fn bench_collective_query(c: &mut Criterion) {
    let providers = 8usize;
    let dep = Deployment::in_memory(providers);
    let states = dep.provider_states();
    let catalog = sample_graphs(400, 7);
    for (i, g) in catalog.iter().enumerate() {
        let model = ModelId(i as u64);
        states[model.provider_for(providers)]
            .insert_meta_only(model, g.clone(), 0.5)
            .unwrap();
    }
    let client = dep.client();
    let probe = catalog[200].clone();

    let mut group = c.benchmark_group("metadata_query");
    group.sample_size(30);
    group.bench_function("broadcast_reduce", |b| {
        b.iter(|| {
            client
                .query_best_ancestor(&probe)
                .unwrap()
                .into_inner()
                .unwrap()
                .model
        })
    });
    group.bench_function("client_side_iterative", |b| {
        // The naive pattern: fetch each model's metadata to the client and
        // compute the LCP locally, serially.
        b.iter(|| {
            let mut best_len = 0usize;
            let mut best_model = ModelId(0);
            for i in 0..catalog.len() {
                let meta = client.get_meta(ModelId(i as u64)).unwrap();
                let r = lcp(&probe, &meta.graph);
                if r.len() > best_len {
                    best_len = r.len();
                    best_model = ModelId(i as u64);
                }
            }
            best_model
        })
    });
    group.finish();
}

evostore_rpc::rpc_methods! {
    /// Replies with its request.
    Echo = "echo": String => String;
    /// The same, run on the caller's thread.
    CallerEcho = "caller_echo": String => String, lane = Caller;
}

/// Ablation 8: what one collective costs its caller on an idle fabric —
/// an echo `fan_out` (a body per leg) and `broadcast` (one body for
/// every leg) at 1, 2 and 3 legs, and `unary` (the same engine at one
/// leg), no handler work.
fn bench_collective(c: &mut Criterion) {
    let fabric = Fabric::new();
    let eps: Vec<_> = (0..3)
        .map(|_| {
            let ep = fabric.create_endpoint(2);
            ep.serve(Echo, Ok);
            ep
        })
        .collect();
    let ids: Vec<EndpointId> = eps.iter().map(|ep| ep.id()).collect();
    let policy = RetryPolicy::default();
    let body = "ping".to_string();
    let mut group = c.benchmark_group("collective");
    group.bench_function(BenchmarkId::new("unary", 1), |b| {
        b.iter(|| unary(&fabric, ids[0], Echo, &body, &policy, None, None).unwrap())
    });
    for legs in 1..=ids.len() {
        let targets = &ids[..legs];
        let reqs: Vec<(EndpointId, String)> = targets.iter().map(|&t| (t, body.clone())).collect();
        group.bench_function(BenchmarkId::new("fan_out", legs), |b| {
            b.iter(|| fan_out(&fabric, &reqs, Echo, &policy, None, None).len())
        });
        group.bench_function(BenchmarkId::new("broadcast", legs), |b| {
            b.iter(|| {
                broadcast(&fabric, targets, Echo, &body, &policy, None, None)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

/// Ablation 11: what the lane costs one unary call on an idle 1-thread
/// endpoint — an echo queued for the service thread vs the same echo run
/// on the caller's thread, hot (back to back) and after 200 µs idle
/// (the service thread has gone to sleep on its queue; untimed).
fn bench_rpc(c: &mut Criterion) {
    let fabric = Fabric::new();
    let ep = fabric.create_endpoint(1);
    ep.serve(Echo, Ok);
    ep.serve(CallerEcho, Ok);
    let policy = RetryPolicy::default();
    let body = "ping".to_string();
    let idle = || std::thread::sleep(std::time::Duration::from_micros(200));
    let mut group = c.benchmark_group("rpc");
    group.bench_function("queued_echo", |b| {
        b.iter(|| unary(&fabric, ep.id(), Echo, &body, &policy, None, None).unwrap())
    });
    group.bench_function("caller_lane_echo", |b| {
        b.iter(|| unary(&fabric, ep.id(), CallerEcho, &body, &policy, None, None).unwrap())
    });
    group.bench_function("queued_echo_after_idle", |b| {
        b.iter_batched(
            idle,
            |_| unary(&fabric, ep.id(), Echo, &body, &policy, None, None).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("caller_lane_echo_after_idle", |b| {
        b.iter_batched(
            idle,
            |_| unary(&fabric, ep.id(), CallerEcho, &body, &policy, None, None).unwrap(),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// Ablation 9: the control codec alone. One model of `catalog_churn`'s
/// space (the attention space at width 16, ten cells) in the four
/// messages a small op encodes or decodes: the query a client sends to
/// every provider, the store request, the metadata reply of `get_meta`,
/// and the read reply of every load.
fn bench_codec(c: &mut Criterion) {
    let space = GenomeSpace {
        input_dim: 16,
        widths: vec![16],
        attn_dims: vec![16],
        attn_heads: vec![2, 4],
        min_cells: 10,
        max_cells: 10,
        ..GenomeSpace::attn_like()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let graph = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
    let model = ModelId(2_917);
    let owner_map = OwnerMap::fresh(model, &graph);
    let mut offset = 0;
    let manifest: Vec<ManifestEntry> = graph
        .vertex_ids()
        .flat_map(|v| graph.param_specs(v).into_iter().map(move |spec| (v, spec)))
        .map(|(v, spec)| {
            let len = spec.byte_len() as u64 + 64;
            offset += len;
            ManifestEntry {
                key: TensorKey::new(model, v, spec.slot),
                offset: offset - len,
                len,
            }
        })
        .collect();

    let mut group = c.benchmark_group("codec");
    macro_rules! pair {
        ($name:literal, $ty:ty, $msg:expr) => {{
            let msg: $ty = $msg;
            let body = encode(&msg).unwrap();
            group.bench_function(BenchmarkId::new("encode", $name), |b| {
                b.iter(|| encode(criterion::black_box(&msg)).unwrap())
            });
            group.bench_function(BenchmarkId::new("decode", $name), |b| {
                b.iter(|| decode::<$ty>(criterion::black_box(&body)).unwrap())
            });
        }};
    }
    pair!(
        "lcp_batch_request",
        LcpBatchRequest,
        LcpBatchRequest {
            graphs: vec![graph.clone()],
        }
    );
    pair!(
        "store_model_request",
        StoreModelRequest,
        StoreModelRequest {
            model,
            graph: graph.clone(),
            owner_map: owner_map.clone(),
            parent: Some(ModelId(1_004)),
            quality: 0.734_375,
            manifest: manifest.clone(),
            bulk: 9_001,
            timestamp: None,
        }
    );
    pair!(
        "model_meta_reply",
        ModelMetaReply,
        ModelMetaReply {
            graph,
            owner_map,
            parent: Some(ModelId(1_004)),
            quality: 0.734_375,
            timestamp: 52_113,
        }
    );
    pair!(
        "read_tensors_reply",
        ReadTensorsReply,
        ReadTensorsReply {
            manifest,
            bulk: 9_002,
        }
    );
    group.finish();
}

/// Ablation 10: the substrate's delta path on a 1 MiB `f32` layer. The
/// encoder against the parent's record when 2 % of the words changed
/// (`sparse`, a `replicated_finetune` retrain), when every word's low
/// byte did (`dense`), and against unrelated bytes (`unrelated`, which
/// declines); decoding one delta; reconstructing a depth-3 chain by
/// copying decodes (`copying`) and by applying each delta in turn to one
/// buffer (`in_place`); and reading the raw base back from a chunked log
/// store.
fn bench_delta(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let layer = TensorData::random(&mut rng, DType::F32, vec![256, 1024]);
    let base = write_tensor(&layer);
    let mut dense = base.to_vec();
    for word in dense[64..].chunks_exact_mut(4) {
        word[0] ^= 0x5A;
    }
    let unrelated = write_tensor(&TensorData::random(&mut rng, DType::F32, vec![256, 1024]));
    let key = [3u8; 16];
    let mut chain = Vec::new();
    let mut tuned = layer.clone();
    let mut prev = base.clone();
    for depth in 1..=3 {
        tuned = tuned.perturbed_sparse(&mut rng, 0.02);
        let rec = write_tensor(&tuned);
        chain.push(encode_delta(&rec, &prev, key, depth).expect("a sparse delta wins"));
        prev = rec;
    }
    let sparse = write_tensor(&layer.perturbed_sparse(&mut rng, 0.02));

    let mut group = c.benchmark_group("delta");
    for (name, rec) in [
        ("sparse", &sparse[..]),
        ("dense", &dense[..]),
        ("unrelated", &unrelated[..]),
    ] {
        group.bench_function(BenchmarkId::new("encode", name), |b| {
            b.iter(|| encode_delta(rec, &base, key, 1))
        });
    }
    group.bench_function(BenchmarkId::new("decode", "sparse"), |b| {
        b.iter(|| decode_delta(&chain[0], &base).unwrap())
    });
    group.bench_function(BenchmarkId::new("chain_3", "copying"), |b| {
        b.iter(|| {
            chain
                .iter()
                .try_fold(base.clone(), |raw, delta| decode_delta(delta, &raw))
                .unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("chain_3", "in_place"), |b| {
        b.iter(|| {
            let mut raw = base.to_vec();
            for delta in &chain {
                apply_delta(delta, &mut raw).unwrap();
            }
            raw
        })
    });
    let dir = std::env::temp_dir().join(format!("evostore-bench-chunks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ChunkedStore::open(LogStore::open(&dir).unwrap(), DEFAULT_CHUNK_SIZE).unwrap();
    store.put(b"base", base.clone()).unwrap();
    group.bench_function("chunked_log_get", |b| {
        b.iter(|| store.get(b"base").unwrap())
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(
    benches,
    bench_lcp,
    bench_flatten,
    bench_owner_map,
    bench_kv,
    bench_record_encoding,
    bench_store_load,
    bench_collective_query,
    bench_collective,
    bench_rpc,
    bench_codec,
    bench_delta
);
criterion_main!(benches);
