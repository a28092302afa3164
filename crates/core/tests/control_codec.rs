//! The control codec's contract. Every request and reply encodes to the
//! bytes the codec wrote at commit `c6955c2` (captured below), so logs
//! and peers of either side read each other; every golden decodes back
//! to the same bytes; no truncated or corrupted body panics a decoder;
//! and a body nested past the reader's limit is a typed error, not a
//! dead provider.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use evostore_core::messages::*;
use evostore_core::{methods, Deployment, OwnerMap, ProviderStats, VertexOwner};
use evostore_deliver::{EventKind, EventPush, ModelEvent, SubscribeRequest, SubscriptionFilter};
use evostore_graph::{
    flatten, Activation, ArchPattern, Architecture, CompactGraph, IndexQueryStats, LayerConfig,
    LayerKind, LayerPattern, LcpResult,
};
use evostore_obs::{Exemplar, HistogramSummary, Metric, MetricValue, RegistrySnapshot};
use evostore_rpc::{Method, RpcError};
use evostore_tensor::{DType, ModelId, TensorData, TensorKey, VertexId};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// Shapes no wire message has today, so that the corpus pins them too.
#[derive(Serialize, Deserialize)]
struct Shapes {
    by_id: BTreeMap<u64, i64>,
    by_model: BTreeMap<ModelId, Vec<i32>>,
    pair: Pair,
    unit: Marker,
    kinds: Vec<Kind>,
    big: u128,
    small: u128,
    floats: Vec<f64>,
    text: String,
    letter: char,
    nothing: Option<String>,
}

#[derive(Serialize, Deserialize)]
struct Pair(i8, String);

#[derive(Serialize, Deserialize)]
struct Marker;

#[derive(Serialize, Deserialize)]
enum Kind {
    Plain,
    Wrapped(i64),
    Both(u8, Option<bool>),
    Named { depth: i16, tag: Option<String> },
}

const ESCAPES: &str = "q\"b\\s/n\nr\rt\tc\u{1}f\u{1f}ü€😀";

fn key(owner: u64, vertex: u32, slot: u32) -> TensorKey {
    TensorKey::new(ModelId(owner), VertexId(vertex), slot)
}

/// Input → dense → {activation, add}, activation → add: a residual join,
/// layer names that need every escape, and a struct, unit and
/// newtype-carrying set of layer kinds.
fn graph() -> CompactGraph {
    let mut a = Architecture::new("golden");
    let input = a.add_layer(LayerConfig::new(
        "in",
        LayerKind::Input { shape: vec![4, 2] },
    ));
    let dense = a.chain(
        input,
        LayerConfig::new(
            ESCAPES,
            LayerKind::Dense {
                in_features: 8,
                units: 3,
                activation: Activation::GeLU,
            },
        ),
    );
    let act = a.chain(
        dense,
        LayerConfig::new(
            "act",
            LayerKind::Act {
                activation: Activation::Tanh,
            },
        ),
    );
    let add = a.chain(act, LayerConfig::new("add", LayerKind::Add));
    a.connect(dense, add);
    flatten(&a).expect("the golden architecture flattens")
}

fn owner_map() -> OwnerMap {
    OwnerMap {
        model: ModelId(7),
        vertices: vec![
            VertexOwner {
                owner: ModelId(3),
                owner_vertex: VertexId(0),
                slots: 0,
            },
            VertexOwner {
                owner: ModelId(7),
                owner_vertex: VertexId(1),
                slots: 2,
            },
        ],
    }
}

fn manifest() -> Vec<ManifestEntry> {
    vec![
        ManifestEntry {
            key: key(7, 1, 0),
            offset: 0,
            len: 120,
        },
        ManifestEntry {
            key: key(7, 1, 1),
            offset: 120,
            len: 36,
        },
    ]
}

fn index_stats() -> IndexQueryStats {
    IndexQueryStats {
        candidates: 9,
        scanned: 2,
        memo_hits: 1,
        deduped: 4,
        pruned: 3,
        prefiltered: 0,
        answered: 1,
    }
}

fn pattern() -> ArchPattern {
    ArchPattern {
        require_layers: vec![
            LayerPattern::Any,
            LayerPattern::Kind("dense".into()),
            LayerPattern::DenseUnits { min: 2, max: 64 },
            LayerPattern::Uses(Activation::ReLU),
        ],
        min_vertices: 1,
        max_vertices: 40,
        min_params: 0,
        max_params: usize::MAX,
        sequence: vec![LayerPattern::AnyOf(vec![
            LayerPattern::AttentionHeads { min: 2 },
            LayerPattern::AllOf(vec![LayerPattern::Kind(ESCAPES.into())]),
        ])],
    }
}

fn transfer_record() -> TransferRecord {
    TransferRecord {
        key: key(7, 1, 0),
        total: 4096,
        hashes: vec![[0u8; 16], [255u8; 16]],
        delta_base: Some(key(3, 1, 0)),
        delta_depth: 2,
    }
}

fn shapes() -> Shapes {
    Shapes {
        by_id: BTreeMap::from([(0, -1), (18_446_744_073_709_551_615, i64::MIN), (42, 7)]),
        by_model: BTreeMap::from([(ModelId(5), vec![-3, 0, i32::MAX])]),
        pair: Pair(-128, "pair".into()),
        unit: Marker,
        kinds: vec![
            Kind::Plain,
            Kind::Wrapped(-9),
            Kind::Both(1, None),
            Kind::Both(2, Some(true)),
            Kind::Named {
                depth: -2,
                tag: Some(ESCAPES.into()),
            },
        ],
        big: u128::MAX - 1,
        small: 12,
        floats: vec![0.0, 2.0, -2.5, 0.1, 1e-7, 1e16, 123456.789],
        text: ESCAPES.into(),
        letter: 'ß',
        nothing: None,
    }
}

/// One golden: the value built in code, its captured bytes, and a
/// decoder that re-encodes what it decodes.
struct Case {
    name: &'static str,
    golden: &'static str,
    encoded: String,
    reencode: fn(&[u8]) -> Result<String, String>,
}

fn reencode<T: Serialize + DeserializeOwned>(bytes: &[u8]) -> Result<String, String> {
    let value: T = serde_json::from_slice(bytes).map_err(|e| e.to_string())?;
    serde_json::to_string(&value).map_err(|e| e.to_string())
}

fn case<T: Serialize + DeserializeOwned>(
    name: &'static str,
    golden: &'static str,
    value: T,
) -> Case {
    Case {
        name,
        golden,
        encoded: serde_json::to_string(&value).expect("the corpus encodes"),
        reencode: reencode::<T>,
    }
}

fn corpus() -> Vec<Case> {
    vec![
        case("compact_graph", GRAPH, graph()),
        case("owner_map", OWNER_MAP, owner_map()),
        case(
            "store_request",
            STORE_REQUEST,
            StoreModelRequest {
                model: ModelId(7),
                graph: graph(),
                owner_map: owner_map(),
                parent: Some(ModelId(3)),
                quality: 0.8125,
                manifest: manifest(),
                bulk: 11,
                timestamp: None,
            },
        ),
        case(
            "store_reply",
            STORE_REPLY,
            StoreModelReply {
                timestamp: 44,
                bytes_stored: 156,
            },
        ),
        case(
            "meta_reply",
            META_REPLY,
            ModelMetaReply {
                graph: graph(),
                owner_map: owner_map(),
                parent: None,
                quality: 1.0,
                timestamp: 44,
            },
        ),
        case(
            "read_request",
            READ_REQUEST,
            ReadTensorsRequest {
                keys: vec![key(7, 1, 0), key(3, 0, 1)],
            },
        ),
        case(
            "read_reply",
            READ_REPLY,
            ReadTensorsReply {
                manifest: manifest(),
                bulk: u64::MAX,
            },
        ),
        case(
            "refs_request",
            REFS_REQUEST,
            RefsRequest::with_op_id(
                RefsRequest::retirement_op_id(ModelId(7), 44, 1),
                vec![key(7, 1, 0)],
            ),
        ),
        case(
            "lcp_batch_request",
            LCP_BATCH_REQUEST,
            LcpBatchRequest {
                graphs: vec![graph(), graph()],
            },
        ),
        case(
            "lcp_batch_reply",
            LCP_BATCH_REPLY,
            LcpBatchReply {
                replies: vec![
                    LcpQueryReply {
                        best: Some(LcpCandidate {
                            model: ModelId(3),
                            quality: 0.5,
                            lcp: LcpResult {
                                prefix: vec![VertexId(0), VertexId(1)],
                                match_in_ancestor: vec![Some(VertexId(0)), Some(VertexId(1)), None],
                            },
                        }),
                        scanned: 2,
                        stats: index_stats(),
                    },
                    LcpQueryReply {
                        best: None,
                        scanned: 0,
                        stats: IndexQueryStats::default(),
                    },
                ],
            },
        ),
        case(
            "pattern_batch_request",
            PATTERN_BATCH_REQUEST,
            PatternBatchRequest {
                patterns: vec![pattern(), ArchPattern::any()],
            },
        ),
        case(
            "pattern_batch_reply",
            PATTERN_BATCH_REPLY,
            PatternBatchReply {
                replies: vec![PatternQueryReply {
                    matches: vec![(ModelId(3), 0.25), (ModelId(9), 3.0)],
                    scanned: 2,
                    stats: index_stats(),
                }],
            },
        ),
        case(
            "retire_reply",
            RETIRE_REPLY,
            RetireMetaReply {
                owner_map: owner_map(),
                timestamp: 45,
            },
        ),
        case("stats_request", STATS_REQUEST, StatsRequest {}),
        case(
            "stats_reply",
            STATS_REPLY,
            ProviderStats {
                models: 2,
                query_stats: index_stats(),
                ..ProviderStats::default()
            },
        ),
        case(
            "digest_reply",
            DIGEST_REPLY,
            DigestReply {
                provider_index: 1,
                models: vec![ModelDigest {
                    model: ModelId(7),
                    timestamp: 44,
                    ref_keys: vec![key(3, 0, 0), key(7, 1, 1)],
                    optimizer_keys: vec![],
                }],
                tombstones: vec![Tombstone {
                    model: ModelId(2),
                    record_timestamp: 5,
                    retired_at: 9,
                }],
            },
        ),
        case(
            "sync_refs_request",
            SYNC_REFS_REQUEST,
            SyncRefsRequest {
                entries: vec![(key(7, 1, 0), 2), (key(7, 1, 1), 0)],
                prune_unlisted: false,
            },
        ),
        case(
            "obs_snapshot_reply",
            OBS_SNAPSHOT_REPLY,
            RegistrySnapshot {
                metrics: vec![
                    Metric::counter("evostore_client_ops", 12).with_label("op", ESCAPES),
                    Metric::gauge("evostore_provider_models", 2.0),
                    Metric::gauge("evostore_load", -0.375),
                    Metric {
                        name: "evostore_client_store_us".into(),
                        labels: vec![("client".into(), "0".into())],
                        value: MetricValue::Histogram(HistogramSummary {
                            count: 3,
                            sum_us: 900,
                            p50_us: 250,
                            p95_us: 400,
                            p99_us: 400,
                            max_us: 410,
                            exemplars: vec![Exemplar {
                                trace_id: u64::MAX,
                                span_id: 1,
                                value_us: 410,
                            }],
                        }),
                    },
                ],
            },
        ),
        case(
            "transfer_manifest_reply",
            TRANSFER_MANIFEST_REPLY,
            TransferManifestReply {
                records: vec![transfer_record()],
            },
        ),
        case(
            "have_chunks_reply",
            HAVE_CHUNKS_REPLY,
            HaveChunksReply {
                have_chunks: vec![true, false],
                have_records: vec![],
            },
        ),
        case(
            "sync_chunks_request",
            SYNC_CHUNKS_REQUEST,
            SyncChunksRequest {
                model: ModelId(7),
                graph: graph(),
                owner_map: owner_map(),
                parent: Some(ModelId(3)),
                quality: 0.8125,
                timestamp: 44,
                records: vec![transfer_record()],
                pushed: vec![[7u8; 16]],
                lens: vec![4096],
                bulk: 3,
            },
        ),
        case(
            "subscribe_request",
            SUBSCRIBE_REQUEST,
            SubscribeRequest {
                filter: SubscriptionFilter::NewVersionOf(ModelId(3)),
                subscriber: 4,
                queue_capacity: 64,
                replay_after: Some(0),
            },
        ),
        case(
            "subscribe_prefix_request",
            SUBSCRIBE_PREFIX_REQUEST,
            SubscribeRequest {
                filter: SubscriptionFilter::ArchPrefix(graph()),
                subscriber: 4,
                queue_capacity: 64,
                replay_after: None,
            },
        ),
        case(
            "event_push",
            EVENT_PUSH,
            EventPush {
                sub_id: 1,
                provider: 2,
                lost_from: Some(3),
                events: vec![
                    ModelEvent {
                        seq: 3,
                        kind: EventKind::Stored,
                        model: ModelId(7),
                        parent: Some(ModelId(3)),
                        quality: 0.8125,
                        timestamp: 44,
                        fetch_chain: vec![9, 2],
                    },
                    ModelEvent {
                        seq: 4,
                        kind: EventKind::Retired,
                        model: ModelId(3),
                        parent: None,
                        quality: 0.0,
                        timestamp: 45,
                        fetch_chain: vec![],
                    },
                ],
            },
        ),
        case(
            "tensor",
            TENSOR,
            TensorData::from_bytes(
                DType::U8,
                vec![2, 3],
                Bytes::from_static(&[0, 1, 0x7f, 0x80, 0xab, 0xff]),
            )
            .expect("six bytes fill a 2x3 u8 tensor"),
        ),
        case("shapes", SHAPES, shapes()),
    ]
}

#[test]
fn every_golden_is_reproduced_byte_for_byte_and_round_trips() {
    for case in corpus() {
        assert_eq!(case.encoded, case.golden, "{}: encoding changed", case.name);
        assert_eq!(
            (case.reencode)(case.golden.as_bytes()).as_deref(),
            Ok(case.golden),
            "{}: decode + encode is not the identity",
            case.name
        );
    }
}

/// Every truncation and every single-bit flip of every golden decodes to
/// an error or to some value; none panics.
#[test]
fn truncated_and_corrupted_goldens_never_panic() {
    for case in corpus() {
        let golden = case.golden.as_bytes();
        let mut inputs: Vec<Vec<u8>> = (0..golden.len()).map(|n| golden[..n].to_vec()).collect();
        for at in 0..golden.len() {
            for bit in 0..8 {
                let mut flipped = golden.to_vec();
                flipped[at] ^= 1 << bit;
                inputs.push(flipped);
            }
        }
        for input in &inputs {
            let outcome = catch_unwind(AssertUnwindSafe(|| (case.reencode)(input)));
            assert!(
                outcome.is_ok(),
                "{}: decoding {:?} panicked",
                case.name,
                String::from_utf8_lossy(input)
            );
        }
    }
}

/// 100 000 opening brackets, on their own, under a field the type does
/// not know, and inside a recursive pattern.
fn deep_bodies() -> Vec<(&'static str, String)> {
    let deep = "[".repeat(100_000);
    let mut nested_pattern = String::from(r#"{"patterns":[{"require_layers":["#);
    nested_pattern.push_str(&r#"{"AnyOf":["#.repeat(50_000));
    vec![
        (methods::LcpBatch::METHOD, deep.clone()),
        (
            methods::LcpBatch::METHOD,
            format!(r#"{{"graphs":[],"extra":{deep}"#),
        ),
        (methods::MatchPatternBatch::METHOD, nested_pattern),
    ]
}

#[test]
fn nesting_past_the_limit_is_a_decode_error_and_the_provider_keeps_serving() {
    let dep = Deployment::in_memory(1);
    let provider = dep.provider_ids()[0];
    for (method, body) in deep_bodies() {
        let outcome = dep.fabric().call(provider, method, Bytes::from(body));
        assert!(
            matches!(&outcome, Err(RpcError::Handler(msg)) if msg.starts_with("decode: ")),
            "{method}: {outcome:?}"
        );
    }
    let answer = dep
        .client()
        .query_best_ancestor(&graph())
        .expect("the provider still answers");
    assert!(answer.unreachable.is_empty());
}

const GRAPH: &str = r##"{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[4,2]}}},"sig":156504843126741732561642819546282345627},{"config":{"name":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","kind":{"Dense":{"in_features":8,"units":3,"activation":"GeLU"}}},"sig":233530489642929389382108615980277169898},{"config":{"name":"act","kind":{"Act":{"activation":"Tanh"}}},"sig":11301446409666449482532069974776916740},{"config":{"name":"add","kind":"Add"},"sig":279349696638550368180563159326634149307}],"out_edges":[[1],[2,3],[3],[]],"in_degree":[0,1,1,2]}"##;
const OWNER_MAP: &str = r##"{"model":7,"vertices":[{"owner":3,"owner_vertex":0,"slots":0},{"owner":7,"owner_vertex":1,"slots":2}]}"##;
const STORE_REQUEST: &str = r##"{"model":7,"graph":{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[4,2]}}},"sig":156504843126741732561642819546282345627},{"config":{"name":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","kind":{"Dense":{"in_features":8,"units":3,"activation":"GeLU"}}},"sig":233530489642929389382108615980277169898},{"config":{"name":"act","kind":{"Act":{"activation":"Tanh"}}},"sig":11301446409666449482532069974776916740},{"config":{"name":"add","kind":"Add"},"sig":279349696638550368180563159326634149307}],"out_edges":[[1],[2,3],[3],[]],"in_degree":[0,1,1,2]},"owner_map":{"model":7,"vertices":[{"owner":3,"owner_vertex":0,"slots":0},{"owner":7,"owner_vertex":1,"slots":2}]},"parent":3,"quality":0.8125,"manifest":[{"key":{"owner":7,"vertex":1,"slot":0},"offset":0,"len":120},{"key":{"owner":7,"vertex":1,"slot":1},"offset":120,"len":36}],"bulk":11,"timestamp":null}"##;
const STORE_REPLY: &str = r##"{"timestamp":44,"bytes_stored":156}"##;
const META_REPLY: &str = r##"{"graph":{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[4,2]}}},"sig":156504843126741732561642819546282345627},{"config":{"name":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","kind":{"Dense":{"in_features":8,"units":3,"activation":"GeLU"}}},"sig":233530489642929389382108615980277169898},{"config":{"name":"act","kind":{"Act":{"activation":"Tanh"}}},"sig":11301446409666449482532069974776916740},{"config":{"name":"add","kind":"Add"},"sig":279349696638550368180563159326634149307}],"out_edges":[[1],[2,3],[3],[]],"in_degree":[0,1,1,2]},"owner_map":{"model":7,"vertices":[{"owner":3,"owner_vertex":0,"slots":0},{"owner":7,"owner_vertex":1,"slots":2}]},"parent":null,"quality":1,"timestamp":44}"##;
const READ_REQUEST: &str =
    r##"{"keys":[{"owner":7,"vertex":1,"slot":0},{"owner":3,"vertex":0,"slot":1}]}"##;
const READ_REPLY: &str = r##"{"manifest":[{"key":{"owner":7,"vertex":1,"slot":0},"offset":0,"len":120},{"key":{"owner":7,"vertex":1,"slot":1},"offset":120,"len":36}],"bulk":18446744073709551615}"##;
const REFS_REQUEST: &str =
    r##"{"op_id":9294399986928699631,"keys":[{"owner":7,"vertex":1,"slot":0}]}"##;
const LCP_BATCH_REQUEST: &str = r##"{"graphs":[{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[4,2]}}},"sig":156504843126741732561642819546282345627},{"config":{"name":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","kind":{"Dense":{"in_features":8,"units":3,"activation":"GeLU"}}},"sig":233530489642929389382108615980277169898},{"config":{"name":"act","kind":{"Act":{"activation":"Tanh"}}},"sig":11301446409666449482532069974776916740},{"config":{"name":"add","kind":"Add"},"sig":279349696638550368180563159326634149307}],"out_edges":[[1],[2,3],[3],[]],"in_degree":[0,1,1,2]},{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[4,2]}}},"sig":156504843126741732561642819546282345627},{"config":{"name":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","kind":{"Dense":{"in_features":8,"units":3,"activation":"GeLU"}}},"sig":233530489642929389382108615980277169898},{"config":{"name":"act","kind":{"Act":{"activation":"Tanh"}}},"sig":11301446409666449482532069974776916740},{"config":{"name":"add","kind":"Add"},"sig":279349696638550368180563159326634149307}],"out_edges":[[1],[2,3],[3],[]],"in_degree":[0,1,1,2]}]}"##;
const LCP_BATCH_REPLY: &str = r##"{"replies":[{"best":{"model":3,"quality":0.5,"lcp":{"prefix":[0,1],"match_in_ancestor":[0,1,null]}},"scanned":2,"stats":{"candidates":9,"scanned":2,"memo_hits":1,"deduped":4,"pruned":3,"prefiltered":0,"answered":1}},{"best":null,"scanned":0,"stats":{"candidates":0,"scanned":0,"memo_hits":0,"deduped":0,"pruned":0,"prefiltered":0,"answered":0}}]}"##;
const PATTERN_BATCH_REQUEST: &str = r##"{"patterns":[{"require_layers":["Any",{"Kind":"dense"},{"DenseUnits":{"min":2,"max":64}},{"Uses":"ReLU"}],"min_vertices":1,"max_vertices":40,"min_params":0,"max_params":18446744073709551615,"sequence":[{"AnyOf":[{"AttentionHeads":{"min":2}},{"AllOf":[{"Kind":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀"}]}]}]},{"require_layers":[],"min_vertices":0,"max_vertices":0,"min_params":0,"max_params":0,"sequence":[]}]}"##;
const PATTERN_BATCH_REPLY: &str = r##"{"replies":[{"matches":[[3,0.25],[9,3]],"scanned":2,"stats":{"candidates":9,"scanned":2,"memo_hits":1,"deduped":4,"pruned":3,"prefiltered":0,"answered":1}}]}"##;
const RETIRE_REPLY: &str = r##"{"owner_map":{"model":7,"vertices":[{"owner":3,"owner_vertex":0,"slots":0},{"owner":7,"owner_vertex":1,"slots":2}]},"timestamp":45}"##;
const STATS_REQUEST: &str = r##"{}"##;
const STATS_REPLY: &str = r##"{"models":2,"distinct_archs":0,"index_cone_keys":0,"index_postings":0,"tensors":0,"tensor_bytes":0,"metadata_bytes":0,"query_stats":{"candidates":9,"scanned":2,"memo_hits":1,"deduped":4,"pruned":3,"prefiltered":0,"answered":1},"tensor_kv":{"puts":0,"gets":0,"misses":0,"deletes":0,"bytes_written":0,"bytes_read":0},"meta_kv":{"puts":0,"gets":0,"misses":0,"deletes":0,"bytes_written":0,"bytes_read":0},"bulk_segments_exposed":0,"zero_copy_reads":0,"copy_fallback_reads":0,"validate_par_batches":0,"par_forked_total":0,"par_inline_total":0,"par_helpers":0,"delta_stored":0,"delta_reconstructs":0,"chunks":0,"chunk_dedup_hits":0,"chunk_logical_bytes":0,"chunk_physical_bytes":0,"snapshot_publications":0,"snapshot_reads":0,"snapshot_retired":0,"batch_envelopes":0,"batch_queries":0,"deliver":{"subscriptions":0,"events_published":0,"events_delivered":0,"events_dropped":0,"event_pushes":0,"push_failures":0,"releases":0,"tree_depth":0,"tree_width":0},"transfer_chunks_offered":0,"transfer_chunks_sent":0,"transfer_chunks_skipped":0,"transfer_deltas_shipped":0,"transfer_bytes_saved":0}"##;
const DIGEST_REPLY: &str = r##"{"provider_index":1,"models":[{"model":7,"timestamp":44,"ref_keys":[{"owner":3,"vertex":0,"slot":0},{"owner":7,"vertex":1,"slot":1}],"optimizer_keys":[]}],"tombstones":[{"model":2,"record_timestamp":5,"retired_at":9}]}"##;
const SYNC_REFS_REQUEST: &str = r##"{"entries":[[{"owner":7,"vertex":1,"slot":0},2],[{"owner":7,"vertex":1,"slot":1},0]],"prune_unlisted":false}"##;
const OBS_SNAPSHOT_REPLY: &str = r##"{"metrics":[{"name":"evostore_client_ops","labels":[["op","q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀"]],"value":{"Counter":12}},{"name":"evostore_provider_models","labels":[],"value":{"Gauge":2}},{"name":"evostore_load","labels":[],"value":{"Gauge":-0.375}},{"name":"evostore_client_store_us","labels":[["client","0"]],"value":{"Histogram":{"count":3,"sum_us":900,"p50_us":250,"p95_us":400,"p99_us":400,"max_us":410,"exemplars":[{"trace_id":18446744073709551615,"span_id":1,"value_us":410}]}}}]}"##;
const TRANSFER_MANIFEST_REPLY: &str = r##"{"records":[{"key":{"owner":7,"vertex":1,"slot":0},"total":4096,"hashes":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[255,255,255,255,255,255,255,255,255,255,255,255,255,255,255,255]],"delta_base":{"owner":3,"vertex":1,"slot":0},"delta_depth":2}]}"##;
const HAVE_CHUNKS_REPLY: &str = r##"{"have_chunks":[true,false],"have_records":[]}"##;
const SYNC_CHUNKS_REQUEST: &str = r##"{"model":7,"graph":{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[4,2]}}},"sig":156504843126741732561642819546282345627},{"config":{"name":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","kind":{"Dense":{"in_features":8,"units":3,"activation":"GeLU"}}},"sig":233530489642929389382108615980277169898},{"config":{"name":"act","kind":{"Act":{"activation":"Tanh"}}},"sig":11301446409666449482532069974776916740},{"config":{"name":"add","kind":"Add"},"sig":279349696638550368180563159326634149307}],"out_edges":[[1],[2,3],[3],[]],"in_degree":[0,1,1,2]},"owner_map":{"model":7,"vertices":[{"owner":3,"owner_vertex":0,"slots":0},{"owner":7,"owner_vertex":1,"slots":2}]},"parent":3,"quality":0.8125,"timestamp":44,"records":[{"key":{"owner":7,"vertex":1,"slot":0},"total":4096,"hashes":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[255,255,255,255,255,255,255,255,255,255,255,255,255,255,255,255]],"delta_base":{"owner":3,"vertex":1,"slot":0},"delta_depth":2}],"pushed":[[7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7]],"lens":[4096],"bulk":3}"##;
const SUBSCRIBE_REQUEST: &str =
    r##"{"filter":{"NewVersionOf":3},"subscriber":4,"queue_capacity":64,"replay_after":0}"##;
const SUBSCRIBE_PREFIX_REQUEST: &str = r##"{"filter":{"ArchPrefix":{"vertices":[{"config":{"name":"in","kind":{"Input":{"shape":[4,2]}}},"sig":156504843126741732561642819546282345627},{"config":{"name":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","kind":{"Dense":{"in_features":8,"units":3,"activation":"GeLU"}}},"sig":233530489642929389382108615980277169898},{"config":{"name":"act","kind":{"Act":{"activation":"Tanh"}}},"sig":11301446409666449482532069974776916740},{"config":{"name":"add","kind":"Add"},"sig":279349696638550368180563159326634149307}],"out_edges":[[1],[2,3],[3],[]],"in_degree":[0,1,1,2]}},"subscriber":4,"queue_capacity":64,"replay_after":null}"##;
const EVENT_PUSH: &str = r##"{"sub_id":1,"provider":2,"lost_from":3,"events":[{"seq":3,"kind":"Stored","model":7,"parent":3,"quality":0.8125,"timestamp":44,"fetch_chain":[9,2]},{"seq":4,"kind":"Retired","model":3,"parent":null,"quality":0,"timestamp":45,"fetch_chain":[]}]}"##;
const TENSOR: &str = r##"{"dtype":"U8","shape":[2,3],"data":"00017f80abff"}"##;
const SHAPES: &str = r##"{"by_id":{"0":-1,"42":7,"18446744073709551615":-9223372036854775808},"by_model":{"5":[-3,0,2147483647]},"pair":[-128,"pair"],"unit":null,"kinds":["Plain",{"Wrapped":-9},{"Both":[1,null]},{"Both":[2,true]},{"Named":{"depth":-2,"tag":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀"}}],"big":340282366920938463463374607431768211454,"small":12,"floats":[0,2,-2.5,0.1,0.0000001,10000000000000000,123456.789],"text":"q\"b\\s/n\nr\rt\tc\u0001f\u001fü€😀","letter":"ß","nothing":null}"##;
