//! Outside-in layer replay.
//!
//! No file under `crates/` carries spans for the layers below the client
//! call, so a traced run measures them from outside: for every eighth op
//! it calls each layer's public functions on the op's own inputs, under
//! child spans of the op's root span. Layers the workload's deployment
//! really uses for the op are recorded *on path* and attributed to it;
//! the others are still probed (their speed on this workload's inputs is
//! a per-layer metric) but attributed to nothing.
//!
//! The replay runs serially on the calling thread against standalone
//! instances of the layers, so it sees neither the providers' queueing
//! nor their rayon fan-out: the difference between an op's root span and
//! its on-path children is reported as `core.client.unattributed_share_*`.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use evostore_core::messages::{
    LcpBatchReply, LcpBatchRequest, LcpCandidate, LcpQueryReply, LcpQueryRequest, ManifestEntry,
    ModelMetaReply, StoreModelRequest,
};
use evostore_core::{OwnerMap, ReplicationPolicy};
use evostore_graph::{
    flatten, lcp, ArchIndex, ArchPattern, Architecture, CompactGraph, IndexQueryStats, LcpResult,
    SnapshotCell,
};
use evostore_kv::{ChunkedStore, KvBackend, LogStore, MemPoolStore, RefCountedStore};
use evostore_rpc::{Endpoint, Fabric};
use evostore_tensor::{
    decode_delta, encode_delta, read_tensor, validate_record, write_tensor, ContentHash, ModelId,
    TensorData, TensorKey,
};

use crate::harness::{RunCfg, TempDir};
use crate::metrics::ProbeCounters;
use crate::trace::{OpRef, Tracer};

/// The shape of the workload's deployment: which layers it puts on an
/// op's path, and how the catalog is spread over providers.
#[derive(Debug, Clone, Copy)]
pub struct PathSet {
    /// `BackendKind::Memory` (else `Log`).
    pub memory: bool,
    /// `StorePolicy::chunked_with_delta()` (else whole records).
    pub chunked_delta: bool,
    pub providers: usize,
    pub replication: ReplicationPolicy,
}

impl PathSet {
    /// In-memory providers, whole records, one replica.
    pub fn memory(providers: usize) -> PathSet {
        PathSet {
            memory: true,
            chunked_delta: false,
            providers,
            replication: ReplicationPolicy::default(),
        }
    }
}

/// Tensors of a parent model by `(vertex, slot)`: the delta bases of a
/// fine-tuned child. Ordered, because the generator walks it while
/// drawing from the seeded stream.
pub type Bases = std::collections::BTreeMap<(u32, u32), TensorData>;

pub struct StoreInputs<'a> {
    pub graph: &'a CompactGraph,
    pub map: &'a OwnerMap,
    pub parent: Option<ModelId>,
    pub quality: f64,
    pub tensors: &'a HashMap<TensorKey, TensorData>,
    /// Present when the tensors are fine-tuned from these.
    pub bases: Option<&'a Bases>,
    /// The LCP and ancestor map the owner map was derived from.
    pub derived_from: Option<(&'a LcpResult, &'a OwnerMap)>,
    pub rpc_calls: u64,
}

pub struct LoadInputs<'a> {
    pub meta: &'a ModelMetaReply,
    pub tensors: &'a HashMap<TensorKey, TensorData>,
    pub bases: Option<&'a Bases>,
    pub rpc_calls: u64,
}

/// Standalone instances of every layer, fed by the replays.
pub struct Probes {
    path: PathSet,
    mem: RefCountedStore<MemPoolStore>,
    chunk: ChunkedStore<MemPoolStore>,
    /// `None` only while [`Probes::finish`] reopens the directory.
    log: Option<LogStore>,
    log_dir: TempDir,
    fabric: Arc<Fabric>,
    echo: Option<Endpoint>,
    /// Shadow of each provider's catalog index, kept in step by the
    /// workload so index probes walk the same populations. Providers walk
    /// their shards side by side, so the replay attributes one shard's
    /// walk to the op and probes the others off path.
    shards: Vec<ArchIndex>,
    graphs: HashMap<ModelId, Arc<CompactGraph>>,
    snapshot: SnapshotCell<ArchIndex>,
    /// Raw and encoded bytes of every replayed delta.
    delta_raw_bytes: u64,
    delta_encoded_bytes: u64,
    /// Encoded control messages of the replayed ops.
    message_bytes: u64,
    message_ops: u64,
    graph_json_bytes: u64,
    graph_json_count: u64,
    store_req_bytes: u64,
    store_req_count: u64,
}

impl Probes {
    pub fn new(cfg: &RunCfg, path: PathSet) -> Probes {
        let log_dir = TempDir::create(cfg, "probe-log");
        let fabric = Fabric::new();
        let echo = fabric.create_endpoint(1);
        echo.register("echo", Ok);
        Probes {
            path,
            mem: RefCountedStore::new(MemPoolStore::new()),
            chunk: ChunkedStore::open_default(MemPoolStore::new())
                .expect("open the probe chunk store"),
            log: Some(LogStore::open(log_dir.path()).expect("open the probe log store")),
            log_dir,
            fabric,
            echo: Some(echo),
            shards: (0..path.providers).map(|_| ArchIndex::new()).collect(),
            graphs: HashMap::new(),
            snapshot: SnapshotCell::new(Arc::new(ArchIndex::new())),
            delta_raw_bytes: 0,
            delta_encoded_bytes: 0,
            message_bytes: 0,
            message_ops: 0,
            graph_json_bytes: 0,
            graph_json_count: 0,
            store_req_bytes: 0,
            store_req_count: 0,
        }
    }

    /// Mirror a catalog insert; timed as `graph.index.insert` and
    /// `graph.snapshot.store` when it belongs to a replayed op.
    pub fn catalog_insert(
        &mut self,
        tracer: &mut Tracer,
        op: Option<OpRef>,
        model: ModelId,
        graph: &CompactGraph,
        quality: f64,
    ) {
        let graph = Arc::new(graph.clone());
        self.graphs.insert(model, Arc::clone(&graph));
        let replicas = self.replicas(model);
        for (i, &shard) in replicas.iter().enumerate() {
            let index = &mut self.shards[shard];
            let graph = Arc::clone(&graph);
            match op {
                // Replicas insert side by side: one is the op's path.
                Some(op) => tracer.child(op, "graph.index.insert", i == 0, 1, 0, || {
                    index.insert(model, graph, quality)
                }),
                None => index.insert(model, graph, quality),
            }
        }
        if let Some(op) = op {
            self.publish(tracer, op, replicas[0]);
        }
    }

    /// Mirror a catalog removal.
    pub fn catalog_remove(&mut self, tracer: &mut Tracer, op: Option<OpRef>, model: ModelId) {
        self.graphs.remove(&model);
        let replicas = self.replicas(model);
        for &shard in &replicas {
            self.shards[shard].remove(model);
        }
        if let Some(op) = op {
            self.publish(tracer, op, replicas[0]);
        }
    }

    /// The providers holding `model`'s record.
    fn replicas(&self, model: ModelId) -> Vec<usize> {
        self.path.replication.replicas(model, self.path.providers)
    }

    /// What a catalog mutation pays to publish on one provider: copy the
    /// index and swap the snapshot in.
    fn publish(&mut self, tracer: &mut Tracer, op: OpRef, shard: usize) {
        let (index, snapshot) = (&self.shards[shard], &self.snapshot);
        tracer.child(op, "graph.snapshot.store", true, 1, 0, || {
            snapshot.store(Arc::new(index.clone()))
        });
    }

    /// Walk every provider's shard for `graph`; the first walk is the
    /// op's path. Returns the best answer over all shards.
    fn walk(
        &self,
        tracer: &mut Tracer,
        op: OpRef,
        name: &'static str,
        graph: &CompactGraph,
    ) -> (Option<ModelId>, IndexQueryStats) {
        let mut best: Option<(usize, ModelId)> = None;
        let mut total = IndexQueryStats::default();
        for (i, index) in self.shards.iter().enumerate() {
            let (found, stats) =
                tracer.child(op, name, i == 0, 1, 0, || index.best_ancestor(graph));
            total = total.merge(stats);
            if let Some(c) = found {
                if best.is_none_or(|(len, _)| c.lcp.len() > len) {
                    best = Some((c.lcp.len(), c.model));
                }
            }
        }
        (best.map(|b| b.1), total)
    }

    fn round_trips(&self, tracer: &mut Tracer, op: OpRef, calls: u64) {
        let Some(echo) = &self.echo else { return };
        let (fabric, id) = (&self.fabric, echo.id());
        let body = Bytes::from_static(b"{}");
        tracer.child(op, "rpc.fabric.call_rtt", true, calls, 0, || {
            for _ in 0..calls {
                fabric
                    .call(id, "echo", body.clone())
                    .expect("echo endpoint answers");
            }
        });
    }

    fn bulk(&self, tracer: &mut Tracer, op: OpRef, records: &[Bytes]) {
        let fabric = &self.fabric;
        let bytes = records.iter().map(|r| r.len() as u64).sum();
        tracer.child(op, "rpc.fabric.bulk", true, 1, bytes, || {
            let handle = fabric.bulk_expose_vec(records.to_vec());
            let region = fabric.bulk_get_vec(handle).expect("region just exposed");
            fabric.bulk_release(handle);
            region.len()
        });
    }

    /// Put, get and drop `records` on each standalone store. `store` says
    /// whether the op writes (a store) or reads (a load).
    fn kv(
        &self,
        tracer: &mut Tracer,
        op: OpRef,
        keys: &[[u8; 16]],
        records: &[Bytes],
        store: bool,
    ) {
        let n = records.len() as u64;
        let bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
        let p = self.path;
        let whole_mem = p.memory && !p.chunked_delta;

        let mem = &self.mem;
        tracer.child(op, "kv.mempool.put", store && whole_mem, n, bytes, || {
            for (k, r) in keys.iter().zip(records) {
                mem.put(k, r.clone(), 1).expect("mempool put");
            }
        });
        tracer.child(op, "kv.mempool.get", !store && whole_mem, n, bytes, || {
            for k in keys {
                mem.get(k).expect("mempool get");
            }
        });
        // Pinning an inherited tensor and dropping it again.
        tracer.child(op, "kv.refcount.incr_decr", false, 2 * n, 0, || {
            for k in keys {
                mem.incr(k).expect("incr");
                mem.decr(k).expect("decr");
            }
        });
        for k in keys {
            mem.decr(k).expect("reclaim probe record");
        }

        let chunk = &self.chunk;
        tracer.child(
            op,
            "kv.chunkstore.put",
            store && p.chunked_delta,
            n,
            bytes,
            || {
                for (k, r) in keys.iter().zip(records) {
                    chunk.put(k, r.clone()).expect("chunk store put");
                }
            },
        );
        tracer.child(
            op,
            "kv.chunkstore.get",
            !store && p.chunked_delta,
            n,
            bytes,
            || {
                for k in keys {
                    chunk.get(k).expect("chunk store get");
                }
            },
        );
        for k in keys {
            chunk.delete(k).expect("drop probe record");
        }

        let log = self.log.as_ref().expect("probe log store is open");
        tracer.child(op, "kv.logstore.put", store && !p.memory, n, bytes, || {
            for (k, r) in keys.iter().zip(records) {
                log.put(k, r.clone()).expect("log store put");
            }
        });
        tracer.child(op, "kv.logstore.get", !store && !p.memory, n, bytes, || {
            for k in keys {
                log.get(k).expect("log store get");
            }
        });
        for k in keys {
            log.delete(k).expect("drop probe record");
        }
    }

    /// Encode each record against its base and decode it again.
    fn delta(
        &mut self,
        tracer: &mut Tracer,
        op: OpRef,
        tensors: &[(&TensorKey, &TensorData)],
        records: &[Bytes],
        bases: &Bases,
        store: bool,
    ) {
        let on = self.path.chunked_delta;
        let pairs: Vec<(&Bytes, Bytes, [u8; 16])> = tensors
            .iter()
            .zip(records)
            .filter_map(|((key, _), rec)| {
                let base = bases.get(&(key.vertex.0, key.slot))?;
                Some((rec, write_tensor(base), key.encode()))
            })
            .collect();
        if pairs.is_empty() {
            return;
        }
        let raw: u64 = pairs.iter().map(|(r, _, _)| r.len() as u64).sum();
        let n = pairs.len() as u64;
        let encoded = tracer.child(op, "tensor.delta.encode", on && store, n, raw, || {
            pairs
                .iter()
                .map(|(rec, base, key)| encode_delta(rec, base, *key, 1))
                .collect::<Vec<_>>()
        });
        self.delta_raw_bytes += raw;
        self.delta_encoded_bytes += encoded
            .iter()
            .zip(&pairs)
            .map(|(e, (rec, _, _))| e.as_ref().map_or(rec.len(), |b| b.len()) as u64)
            .sum::<u64>();
        tracer.child(op, "tensor.delta.decode", on && !store, n, raw, || {
            for (e, (_, base, _)) in encoded.iter().zip(&pairs) {
                if let Some(blob) = e {
                    decode_delta(blob, base).expect("delta decodes against its base");
                }
            }
        });
    }

    pub fn replay_store(&mut self, tracer: &mut Tracer, op: OpRef, inp: &StoreInputs) {
        let mut tensors: Vec<(&TensorKey, &TensorData)> = inp.tensors.iter().collect();
        tensors.sort_by_key(|(k, _)| **k);
        let n = tensors.len() as u64;
        let payload: u64 = tensors.iter().map(|(_, t)| t.byte_len() as u64).sum();

        let records: Vec<Bytes> = tracer.child(op, "tensor.ser.write", true, n, payload, || {
            tensors.iter().map(|(_, t)| write_tensor(t)).collect()
        });
        tracer.child(op, "tensor.ser.validate", true, n, payload, || {
            for r in &records {
                validate_record(r).expect("record just written");
            }
        });
        tracer.child(
            op,
            "tensor.hash.records",
            self.path.chunked_delta,
            n,
            payload,
            || {
                records
                    .iter()
                    .fold(0u128, |acc, r| acc ^ ContentHash::of_bytes(r).0)
            },
        );
        if let Some(bases) = inp.bases {
            self.delta(tracer, op, &tensors, &records, bases, true);
        }

        let mut offset = 0u64;
        let manifest = tensors
            .iter()
            .zip(&records)
            .map(|((key, _), r)| {
                let entry = ManifestEntry {
                    key: **key,
                    offset,
                    len: r.len() as u64,
                };
                offset += r.len() as u64;
                entry
            })
            .collect();
        let req = StoreModelRequest {
            model: inp.map.model,
            graph: inp.graph.clone(),
            owner_map: inp.map.clone(),
            parent: inp.parent,
            quality: inp.quality,
            manifest,
            bulk: 1,
            timestamp: None,
        };
        let encoded = tracer.child(op, "core.messages.store_req_encode", true, 1, 0, || {
            serde_json::to_vec(&req).expect("request encodes")
        });
        tracer.child(op, "core.messages.store_req_decode", true, 1, 0, || {
            serde_json::from_slice::<StoreModelRequest>(&encoded).expect("request decodes")
        });
        self.store_req_bytes += encoded.len() as u64;
        self.store_req_count += 1;
        self.message_bytes += encoded.len() as u64;
        self.message_ops += 1;

        if let Some((lcp, ancestor_map)) = inp.derived_from {
            // The caller derives the map before `store_model`, so this is
            // part of the cycle, not of the store op.
            tracer.child(op, "core.owner_map.derive", false, 1, 0, || {
                OwnerMap::derive(inp.map.model, inp.graph, lcp, ancestor_map)
            });
        }

        let keys: Vec<[u8; 16]> = tensors.iter().map(|(k, _)| k.encode()).collect();
        self.kv(tracer, op, &keys, &records, true);
        self.round_trips(tracer, op, inp.rpc_calls);
        self.bulk(tracer, op, &records);
    }

    pub fn replay_load(&mut self, tracer: &mut Tracer, op: OpRef, inp: &LoadInputs) {
        let mut tensors: Vec<(&TensorKey, &TensorData)> = inp.tensors.iter().collect();
        tensors.sort_by_key(|(k, _)| **k);
        let n = tensors.len() as u64;
        let payload: u64 = tensors.iter().map(|(_, t)| t.byte_len() as u64).sum();
        let records: Vec<Bytes> = tensors.iter().map(|(_, t)| write_tensor(t)).collect();

        let meta = serde_json::to_vec(inp.meta).expect("meta reply encodes");
        tracer.child(op, "core.messages.meta_reply_decode", true, 1, 0, || {
            serde_json::from_slice::<ModelMetaReply>(&meta).expect("meta reply decodes")
        });
        self.message_bytes += meta.len() as u64;
        self.message_ops += 1;

        let keys: Vec<[u8; 16]> = tensors.iter().map(|(k, _)| k.encode()).collect();
        self.kv(tracer, op, &keys, &records, false);
        if let Some(bases) = inp.bases {
            self.delta(tracer, op, &tensors, &records, bases, false);
        }
        tracer.child(op, "tensor.ser.read", true, n, payload, || {
            for r in &records {
                read_tensor(r.clone()).expect("record just written");
            }
        });
        self.round_trips(tracer, op, inp.rpc_calls);
        self.bulk(tracer, op, &records);
    }

    /// A single `query_best_ancestor`: request codec, index walk, reply
    /// codec. `arch` is the nested architecture `graph` was flattened
    /// from, when the workload still has it.
    pub fn replay_query(
        &mut self,
        tracer: &mut Tracer,
        op: OpRef,
        graph: &CompactGraph,
        arch: Option<&Architecture>,
        rpc_calls: u64,
    ) {
        if let Some(arch) = arch {
            tracer.child(op, "graph.flatten", false, 1, 0, || {
                flatten(arch).expect("architecture flattened before")
            });
        }
        let req = LcpQueryRequest {
            graph: graph.clone(),
        };
        let encoded = tracer.child(op, "graph.json.encode", true, 1, 0, || {
            serde_json::to_vec(&req).expect("query encodes")
        });
        tracer.child(op, "graph.json.decode", true, 1, 0, || {
            serde_json::from_slice::<LcpQueryRequest>(&encoded).expect("query decodes")
        });
        self.graph_json_bytes += encoded.len() as u64;
        self.graph_json_count += 1;

        let snapshot = &self.snapshot;
        tracer.child(op, "graph.snapshot.load", true, 1, 0, || snapshot.load());
        let (best, stats) = self.walk(tracer, op, "graph.index.query", graph);
        let reply = self.lcp_reply(graph, best, stats);
        if let Some(ancestor) = best.and_then(|b| self.graphs.get(&b)) {
            // Contained in the index walk above; timed alone for its own
            // per-layer metric.
            tracer.child(op, "graph.lcp.pair", false, 1, 0, || lcp(graph, ancestor));
        }
        let reply_json = serde_json::to_vec(&reply).expect("reply encodes");
        tracer.child(op, "core.messages.lcp_reply_decode", true, 1, 0, || {
            serde_json::from_slice::<LcpQueryReply>(&reply_json).expect("reply decodes")
        });
        self.message_bytes += (encoded.len() + reply_json.len()) as u64;
        self.message_ops += 1;
        self.round_trips(tracer, op, rpc_calls);
    }

    fn lcp_reply(
        &self,
        graph: &CompactGraph,
        best: Option<ModelId>,
        stats: IndexQueryStats,
    ) -> LcpQueryReply {
        LcpQueryReply {
            best: best.and_then(|m| self.graphs.get(&m).map(|g| (m, g))).map(
                |(model, ancestor)| LcpCandidate {
                    model,
                    quality: 0.5,
                    lcp: lcp(graph, ancestor),
                },
            ),
            scanned: stats.scanned as usize,
            stats,
        }
    }

    /// A batched `query_best_ancestors` envelope.
    pub fn replay_query_batch(
        &mut self,
        tracer: &mut Tracer,
        op: OpRef,
        graphs: &[CompactGraph],
        rpc_calls: u64,
    ) {
        let n = graphs.len() as u64;
        let req = LcpBatchRequest {
            graphs: graphs.to_vec(),
        };
        let encoded = tracer.child(op, "core.messages.lcp_batch_encode", true, n, 0, || {
            serde_json::to_vec(&req).expect("batch encodes")
        });
        tracer.child(op, "core.messages.lcp_batch_decode", true, n, 0, || {
            serde_json::from_slice::<LcpBatchRequest>(&encoded).expect("batch decodes")
        });
        let reply = LcpBatchReply {
            replies: graphs
                .iter()
                .map(|g| {
                    let (best, stats) = self.walk(tracer, op, "graph.index.query_batch", g);
                    self.lcp_reply(g, best, stats)
                })
                .collect(),
        };
        let reply_json = serde_json::to_vec(&reply).expect("batch reply encodes");
        tracer.child(
            op,
            "core.messages.lcp_batch_reply_decode",
            true,
            n,
            0,
            || serde_json::from_slice::<LcpBatchReply>(&reply_json).expect("batch reply decodes"),
        );
        self.message_bytes += (encoded.len() + reply_json.len()) as u64;
        self.message_ops += 1;
        self.round_trips(tracer, op, rpc_calls);
    }

    pub fn replay_pattern(
        &mut self,
        tracer: &mut Tracer,
        op: OpRef,
        pattern: &ArchPattern,
        rpc_calls: u64,
    ) {
        for (i, index) in self.shards.iter().enumerate() {
            tracer.child(op, "graph.index.match_pattern", i == 0, 1, 0, || {
                index.match_pattern(pattern)
            });
        }
        self.round_trips(tracer, op, rpc_calls);
    }

    /// A retire: one reference dropped per tensor key, on every replica.
    pub fn replay_retire(
        &mut self,
        tracer: &mut Tracer,
        op: OpRef,
        keys: &[TensorKey],
        rpc_calls: u64,
    ) {
        let mem = &self.mem;
        let encoded: Vec<[u8; 16]> = keys.iter().map(|k| k.encode()).collect();
        for k in &encoded {
            mem.put(k, Bytes::from_static(b"probe"), 1).expect("put");
        }
        tracer.child(
            op,
            "kv.refcount.incr_decr",
            true,
            2 * keys.len() as u64,
            0,
            || {
                for k in &encoded {
                    mem.incr(k).expect("incr");
                    mem.decr(k).expect("decr");
                }
            },
        );
        for k in &encoded {
            mem.decr(k).expect("reclaim probe record");
        }
        self.round_trips(tracer, op, rpc_calls);
    }

    /// Close the probes: hand back their counters, and time
    /// `LogStore::open` replaying what the replays left in the probe's own
    /// directory.
    pub fn finish(mut self) -> ProbeCounters {
        drop(self.log.take());
        let start = std::time::Instant::now();
        let reopened = LogStore::open(self.log_dir.path());
        let logstore_open_ms = start.elapsed().as_secs_f64() * 1e3;
        drop(reopened);
        ProbeCounters {
            delta_raw_bytes: self.delta_raw_bytes,
            delta_encoded_bytes: self.delta_encoded_bytes,
            message_bytes: self.message_bytes,
            message_ops: self.message_ops,
            graph_json_bytes: self.graph_json_bytes,
            graph_json_count: self.graph_json_count,
            store_req_bytes: self.store_req_bytes,
            store_req_count: self.store_req_count,
            logstore_open_ms,
        }
    }
}

impl Drop for Probes {
    fn drop(&mut self) {
        if let Some(echo) = self.echo.take() {
            self.fabric.shutdown_endpoint(echo);
        }
    }
}
