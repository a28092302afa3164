//! Observability integration: trace propagation across client → fabric →
//! provider (on the live fabric and under the virtual clock), KV
//! byte-count round trips through STATS, the unified metrics export, the
//! slow-op log, and the flight-recorder postmortem dump.

use std::sync::Arc;
use std::time::Duration;

use evostore_core::methods;
use evostore_core::par::ParStats;
use evostore_core::provider::{index_query_rows, kv_rows};
use evostore_core::telemetry::ClientStats;
use evostore_core::{
    trained_tensors, CachingClient, Deployment, DeploymentConfig, EvoStoreClient, ModelWatcher,
    OwnerMap, ProviderStats, WatchConfig, WatchStats,
};
use evostore_deliver::{DeliverStats, SubscriptionFilter};
use evostore_graph::{
    flatten, Activation, ArchPattern, Architecture, CompactGraph, LayerConfig, LayerKind,
};
use evostore_obs::{FlightEvent, FlightRecorder, SpanRecord, TimeSource};
use evostore_rpc::{FabricStats, FaultAction, FaultPlan, FaultRule, Method, RpcStats};
use evostore_sim::{SimClock, SimTime};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const READ: &str = methods::Read::METHOD;
const STORE: &str = methods::Store::METHOD;

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

fn spans_of(rec: &FlightRecorder) -> Vec<SpanRecord> {
    rec.events()
        .into_iter()
        .filter_map(|e| match e {
            FlightEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect()
}

fn all_spans(dep: &Deployment) -> Vec<SpanRecord> {
    dep.obs()
        .recorders()
        .iter()
        .flat_map(|r| spans_of(r))
        .collect()
}

/// Store one model and fetch it back with a one-shot injected Timeout on
/// the READ dispatch, so the fetch costs exactly two attempts. Returns
/// the client for span assertions.
fn fetch_with_one_timeout(dep: &Deployment, seed: u64) -> EvoStoreClient {
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let model = ModelId(1);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.9, &mut rng)
        .unwrap();
    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();
    dep.fabric().install_fault_plan(
        FaultPlan::new(0).rule(
            FaultRule::new(FaultAction::Timeout)
                .on_method(READ)
                .first(1),
        ),
    );
    let got = client.fetch_tensors(&keys).unwrap();
    assert_eq!(got.len(), keys.len());
    client
}

/// Satellite: a fetch with one injected Timeout and a retry yields a span
/// tree with two attempt spans under one trace id — the failed dispatch
/// and the successful retry — plus the provider handler and its kv child
/// joining the same trace.
#[test]
fn fetch_trace_covers_retry_attempts_and_provider_kv() {
    let dep = Deployment::in_memory(2);
    let client = fetch_with_one_timeout(&dep, 7);

    let client_spans = spans_of(client.flight_recorder());
    let root = client_spans
        .iter()
        .find(|s| s.name == "fetch_tensors")
        .expect("client root span");
    assert_eq!(root.parent_span_id, 0);
    assert_eq!(root.trace_id, root.span_id);
    assert!(root.is_ok());

    let attempts: Vec<&SpanRecord> = client_spans
        .iter()
        .filter(|s| s.name == READ && s.trace_id == root.trace_id)
        .collect();
    assert_eq!(attempts.len(), 2, "one timed-out attempt plus the retry");
    assert_eq!(attempts.iter().filter(|s| !s.is_ok()).count(), 1);
    assert_eq!(attempts.iter().filter(|s| s.is_ok()).count(), 1);
    for a in &attempts {
        assert_eq!(a.parent_span_id, root.span_id, "attempts hang off the root");
        assert!(a.endpoint.is_some(), "attempt spans carry their target");
    }

    // The provider-side handler span joins the same trace (its context
    // rode the RPC envelope), with the kv read nested under it.
    let all = all_spans(&dep);
    let handler = all
        .iter()
        .find(|s| s.name == READ && s.node.starts_with("provider") && s.trace_id == root.trace_id)
        .expect("provider handler span in the client's trace");
    assert!(handler.endpoint.is_some());
    let ok_attempt = attempts.iter().find(|s| s.is_ok()).unwrap();
    assert_eq!(
        handler.parent_span_id, ok_attempt.span_id,
        "handler span is a child of the attempt that reached it"
    );
    let kv = all
        .iter()
        .find(|s| s.name == "kv.read_tensors" && s.trace_id == root.trace_id)
        .expect("kv span in the client's trace");
    assert_eq!(kv.parent_span_id, handler.span_id);
}

/// Satellite: the same span tree under a virtual clock — every span on
/// every node is stamped from the simulation's time, not the wall clock.
#[test]
fn spans_stamp_from_the_virtual_clock_under_simulation() {
    let clock = Arc::new(SimClock::starting_at(SimTime::from_secs(5.0)));
    let dep = Deployment::new(DeploymentConfig {
        providers: 2,
        clock: Some(clock.clone() as Arc<dyn TimeSource>),
        ..Default::default()
    });
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let model = ModelId(1);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.9, &mut rng)
        .unwrap();
    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();

    let store_root = spans_of(client.flight_recorder())
        .into_iter()
        .find(|s| s.name == "store_model")
        .expect("store root span");
    assert_eq!(store_root.start_us, 5_000_000);
    assert_eq!(store_root.end_us, 5_000_000, "virtual time did not advance");

    clock.advance_to(SimTime::from_secs(6.5));
    dep.fabric().install_fault_plan(
        FaultPlan::new(0).rule(
            FaultRule::new(FaultAction::Timeout)
                .on_method(READ)
                .first(1),
        ),
    );
    let got = client.fetch_tensors(&keys).unwrap();
    assert_eq!(got.len(), keys.len());

    let client_spans = spans_of(client.flight_recorder());
    let root = client_spans
        .iter()
        .find(|s| s.name == "fetch_tensors")
        .expect("fetch root span");
    let attempts: Vec<&SpanRecord> = client_spans
        .iter()
        .filter(|s| s.name == READ && s.trace_id == root.trace_id)
        .collect();
    assert_eq!(attempts.len(), 2);
    for s in std::iter::once(&root).chain(attempts.iter()) {
        assert_eq!(s.start_us, 6_500_000, "{} stamped off-sim", s.name);
        assert_eq!(s.end_us, 6_500_000, "{} stamped off-sim", s.name);
    }
    let handler = all_spans(&dep)
        .into_iter()
        .find(|s| s.name == READ && s.node.starts_with("provider") && s.trace_id == root.trace_id)
        .expect("provider handler span");
    assert_eq!(handler.start_us, 6_500_000);
    assert_eq!(handler.end_us, 6_500_000);
}

/// Satellite: the KV byte counters carried in STATS replies round-trip
/// exactly — the bytes a store wrote land in `tensor_kv.bytes_written`
/// across providers, visible per-provider via `Deployment::stats()` and
/// merged via the client's STATS broadcast.
#[test]
fn kv_byte_counters_round_trip_through_stats() {
    let dep = Deployment::in_memory(3);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let model = ModelId(1);
    let out = client
        .store_fresh(model, &seq(&[8, 16, 16, 4]), 0.9, &mut rng)
        .unwrap();
    assert!(out.bytes_written > 0);

    let per_provider = dep.stats();
    let written: u64 = per_provider.iter().map(|s| s.tensor_kv.bytes_written).sum();
    assert_eq!(
        written, out.bytes_written,
        "every byte the store reported written is accounted to a provider's tensor kv"
    );
    let merged = client.stats().unwrap();
    assert_eq!(merged.tensor_kv.bytes_written, out.bytes_written);
    assert!(
        merged.meta_kv.bytes_written > 0,
        "the catalog record was persisted through the meta kv"
    );

    // Reads: fetching the model back moves at least its payload bytes
    // (records carry a small header on top of the payload).
    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();
    let got = client.fetch_tensors(&keys).unwrap();
    let payload: u64 = got.values().map(|t| t.byte_len() as u64).sum();
    assert!(payload > 0);
    let read: u64 = dep.stats().iter().map(|s| s.tensor_kv.bytes_read).sum();
    assert!(
        read >= payload,
        "kv reads ({read}) cover the fetched payload ({payload})"
    );
}

/// Tentpole: one export surface. Every pre-existing telemetry island —
/// client histograms and counters, provider catalog gauges, index query
/// stats, kv byte counters, flight-recorder tallies — appears in the
/// unified snapshot, and the counters match their native sources.
#[test]
fn metrics_snapshot_unifies_every_island() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let parent = model_on(0, 2);
    client
        .store_fresh(parent, &seq(&[8, 16, 16, 4]), 0.8, &mut rng)
        .unwrap();
    client.query_best_ancestor(&seq(&[8, 16, 16, 5])).unwrap();
    let keys = client.get_meta(parent).unwrap().owner_map.all_tensor_keys();
    client.fetch_tensors(&keys).unwrap();

    let snap = dep.metrics_snapshot();
    for name in [
        // Client island (ClientTelemetry::metrics).
        "evostore_client_query_latency_us",
        "evostore_client_fetch_latency_us",
        "evostore_client_store_latency_us",
        "evostore_client_retire_latency_us",
        "evostore_client_rpc_calls",
        "evostore_client_rpc_retries",
        "evostore_client_rpc_timeouts",
        "evostore_client_rpc_exhausted",
        "evostore_client_degraded_queries",
        "evostore_client_parked_decrements",
        "evostore_client_read_failovers",
        "evostore_client_under_replicated_stores",
        "evostore_client_index_scanned",
        "evostore_client_index_memo_hits",
        "evostore_client_index_deduped",
        "evostore_client_index_pruned",
        "evostore_client_bulk_segments_exposed",
        // Provider catalog gauges.
        "evostore_provider_models",
        "evostore_provider_distinct_archs",
        "evostore_provider_tensors",
        "evostore_provider_tensor_bytes",
        "evostore_provider_metadata_bytes",
        // Provider-side index stats.
        "evostore_index_distinct_architectures",
        "evostore_index_cone_keys",
        "evostore_index_postings",
        "evostore_index_candidates",
        "evostore_index_scanned",
        "evostore_index_memo_hits",
        "evostore_index_deduped",
        "evostore_index_pruned",
        // Zero-copy data-plane counters.
        "evostore_datapath_bulk_segments_exposed",
        "evostore_datapath_zero_copy_reads",
        "evostore_datapath_copy_fallback_reads",
        "evostore_datapath_validate_par_batches",
        // Fork-join pool (process-wide).
        "evostore_par_forked_total",
        "evostore_par_inline_total",
        "evostore_par_helpers",
        // KV counters, per store.
        "evostore_kv_puts",
        "evostore_kv_gets",
        "evostore_kv_misses",
        "evostore_kv_deletes",
        "evostore_kv_bytes_written",
        "evostore_kv_bytes_read",
        // Flight recorder tallies.
        "evostore_obs_flight_events",
        "evostore_obs_flight_dropped",
    ] {
        assert!(snap.find(name).is_some(), "{name} missing from snapshot");
    }

    // Zero counters lost: the unified numbers equal the native sources.
    assert_eq!(
        snap.counter_total("evostore_client_rpc_calls"),
        client.telemetry().rpc.calls()
    );
    let stats = dep.stats();
    let written: u64 = stats.iter().map(|s| s.tensor_kv.bytes_written).sum();
    let kv_written: u64 = snap
        .find_all("evostore_kv_bytes_written")
        .iter()
        .filter(|m| m.labels.iter().any(|(k, v)| k == "store" && v == "tensors"))
        .map(|m| match m.value {
            evostore_obs::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    assert_eq!(kv_written, written);

    // Both expositions carry the series.
    let text = dep.metrics_text();
    assert!(text.contains("# TYPE evostore_kv_bytes_written counter"));
    assert!(text.contains("store=\"tensors\""));
    assert!(text.contains("evostore_client_fetch_latency_us{"));
    let json = snap.to_json();
    assert!(json.contains("evostore_provider_models"));
}

/// Regression (zero-copy data plane): serving memory-resident tensors as
/// `Bytes` clones must not perturb the byte accounting that
/// `kv_byte_counters_round_trip_through_stats` pinned in PR 4. The fetch
/// here is explicitly verified to have taken the zero-copy path
/// (`zero_copy_reads > 0`, vectored segments exposed) and the kv read
/// counters still cover the fetched payload; the store-side written
/// bytes still reconcile exactly with the client's report.
#[test]
fn zero_copy_reads_preserve_byte_accounting() {
    let dep = Deployment::in_memory(3);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let model = ModelId(1);
    let out = client
        .store_fresh(model, &seq(&[8, 16, 16, 4]), 0.9, &mut rng)
        .unwrap();

    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();
    let got = client.fetch_tensors(&keys).unwrap();
    let payload: u64 = got.values().map(|t| t.byte_len() as u64).sum();

    let stats = dep.stats();
    let zero_copy: u64 = stats.iter().map(|s| s.zero_copy_reads).sum();
    let fallback: u64 = stats.iter().map(|s| s.copy_fallback_reads).sum();
    assert_eq!(
        zero_copy,
        keys.len() as u64,
        "every memory-resident tensor was served without a copy"
    );
    assert_eq!(fallback, 0, "nothing fell back on an all-memory deployment");
    let segments: u64 = stats.iter().map(|s| s.bulk_segments_exposed).sum();
    assert!(
        segments >= zero_copy,
        "reads were exposed as vectored regions ({segments} segments)"
    );
    let batches: u64 = stats.iter().map(|s| s.validate_par_batches).sum();
    assert_eq!(
        batches, 0,
        "a store far under the inline threshold shares nothing out"
    );
    assert!(
        client.telemetry().bulk_segments_exposed() > 0,
        "the client's store push was vectored too"
    );

    // The PR 4 invariant, unchanged under zero-copy: store-side written
    // bytes reconcile exactly, and kv reads still cover the payload even
    // though no consolidation buffer was built.
    let written: u64 = stats.iter().map(|s| s.tensor_kv.bytes_written).sum();
    assert_eq!(written, out.bytes_written);
    let read: u64 = stats.iter().map(|s| s.tensor_kv.bytes_read).sum();
    assert!(
        read >= payload,
        "kv reads ({read}) cover the fetched payload ({payload})"
    );
}

/// Tentpole: operations that exceed the slow threshold are retained
/// verbatim in the client's slow-op log with their child breakdown.
#[test]
fn slow_ops_are_retained_with_their_breakdown() {
    let dep = Deployment::in_memory(2);
    let client = dep
        .client_builder()
        .slow_op_threshold(Duration::ZERO)
        .build();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    client
        .store_fresh(ModelId(1), &seq(&[8, 16, 4]), 0.9, &mut rng)
        .unwrap();
    let slow = client.slow_ops();
    let store = slow
        .iter()
        .find(|op| op.root.name == "store_model")
        .expect("store retained at threshold zero");
    assert!(
        store.children.iter().any(|c| c.name == STORE),
        "breakdown includes the store RPC attempt"
    );
}

/// Tentpole: the merged flight dump alone names the provider and fault
/// window behind a degraded answer.
#[test]
fn flight_dump_names_provider_and_fault_window_for_degraded_answers() {
    let dep = Deployment::in_memory(4);
    let client = dep.client_builder().min_quorum(2).build();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let parent = model_on(1, 4);
    client
        .store_fresh(parent, &seq(&[8, 16, 16, 4]), 0.8, &mut rng)
        .unwrap();

    let plan = dep.fabric().install_fault_plan(FaultPlan::new(0));
    let down = dep.provider_ids()[0];
    plan.set_down(down);
    let fabric_rec = dep.fabric().flight_recorder().unwrap();
    fabric_rec.note_down(down.0);

    let got = client.query_best_ancestor(&seq(&[8, 16, 16, 5])).unwrap();
    assert!(got.is_partial());

    plan.set_up(down);
    fabric_rec.note_up(down.0);

    let dump = dep.flight_dump();
    assert!(dump.contains("DOWN provider0"), "dump:\n{dump}");
    let degraded = dump
        .lines()
        .find(|l| l.contains("DEGRADED"))
        .expect("degraded answer recorded");
    assert!(degraded.contains("provider0"), "line: {degraded}");
    assert!(degraded.contains("down since"), "line: {degraded}");
    assert!(degraded.contains("trace="), "line: {degraded}");
    assert!(
        dump.lines()
            .any(|l| l.contains("UP provider0") && l.contains("was down")),
        "dump:\n{dump}"
    );
}

/// Tentpole (telemetry v2): the p99 exemplar of the client's fetch
/// histogram joins — in one lookup — to the complete four-level span
/// tree of the op it was sampled from: client root → RPC attempt →
/// provider handler → kv op.
#[test]
fn p99_exemplar_joins_to_the_complete_span_tree() {
    let dep = Deployment::in_memory(2);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let model = ModelId(1);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.9, &mut rng)
        .unwrap();
    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();
    client.fetch_tensors(&keys).unwrap();

    let exemplars = client.telemetry().fetch.exemplars_for_quantile(0.99);
    let ex = exemplars.last().expect("p99 bucket retains an exemplar");

    // One lookup: the exemplar's trace id resolves to every span of the
    // op across all the deployment's recorders.
    let spans = dep.obs().trace_spans(ex.trace_id);
    let root = spans
        .iter()
        .find(|s| s.span_id == ex.span_id)
        .expect("exemplar's span id resolves to the recorded root");
    assert_eq!(root.name, "fetch_tensors");
    assert_eq!(root.parent_span_id, 0);
    assert_eq!(evostore_obs::span_depth(&spans, root.span_id), 1);

    let attempt = spans
        .iter()
        .find(|s| s.name == READ && s.parent_span_id == root.span_id)
        .expect("attempt span under the root");
    let handler = spans
        .iter()
        .find(|s| s.name == READ && s.parent_span_id == attempt.span_id)
        .expect("provider handler span under the attempt");
    let kv = spans
        .iter()
        .find(|s| s.name == "kv.read_tensors" && s.parent_span_id == handler.span_id)
        .expect("kv span under the handler");
    assert_eq!(
        evostore_obs::span_depth(&spans, kv.span_id),
        4,
        "the joined tree is four levels deep"
    );

    // The rendered tree shows the same nesting, and the exemplar rides
    // the Prometheus exposition next to its histogram.
    let tree = dep.obs().trace_tree(ex.trace_id);
    assert!(tree.contains("fetch_tensors"), "tree:\n{tree}");
    assert!(tree.contains("kv.read_tensors"), "tree:\n{tree}");
    let text = dep.metrics_text();
    assert!(
        text.contains(&format!("span_id={:x}", ex.span_id)),
        "exemplar line missing from the text exposition"
    );
}

/// Tentpole (telemetry v2): client ops feed the SLO engine through the
/// deployment's default objectives, and the per-op resource ledger
/// attributes bytes, chunks and retries on both sides of the wire.
#[test]
fn client_ops_feed_the_slo_engine_and_ledger() {
    let dep = Deployment::in_memory(2);
    let client = fetch_with_one_timeout(&dep, 23);
    client.query_best_ancestor(&seq(&[8, 16, 5])).unwrap();

    // SLO engine: every default op class is registered; the exercised
    // ones saw samples classified against their objectives.
    let slo = dep.obs().slo();
    let mut classes = slo.op_classes();
    classes.sort();
    assert_eq!(
        classes,
        ["deliver", "fetch", "query", "repair", "retire", "store"]
    );
    for class in ["store", "fetch", "query"] {
        let st = slo.status(class).unwrap();
        assert!(
            st.good_total + st.bad_total >= 1,
            "{class} recorded no samples"
        );
        assert!(!st.tripped, "{class} tripped on a healthy deployment");
    }
    assert!(slo.to_json().contains("\"op_class\":\"fetch\""));

    // Client-side ledger: the fetch moved bytes in, touched the
    // manifest's chunks, and the injected Timeout charged one retry
    // (through the resilient RPC layer's hook).
    let fetch = client.ledger().entry("fetch").expect("fetch ledger entry");
    assert_eq!(fetch.ops, 1);
    assert_eq!(fetch.errors, 0);
    assert!(fetch.bytes_in > 0, "fetched bytes attributed");
    assert!(fetch.chunks_touched > 0, "manifest entries attributed");
    assert!(fetch.retries >= 1, "the injected timeout charged a retry");
    let store = client.ledger().entry("store").expect("store ledger entry");
    assert!(store.bytes_out > 0, "stored bytes attributed");

    // Provider-side ledger: the READ handler attributed its egress.
    let read = dep
        .provider_states()
        .iter()
        .filter_map(|s| s.ledger().entry(READ))
        .max_by_key(|e| e.bytes_out)
        .expect("a provider served the READ");
    assert!(read.ops >= 1);
    assert!(read.bytes_out > 0, "provider egress attributed");

    // The merged snapshot carries both ledgers' series.
    let snap = dep.metrics_snapshot();
    for name in [
        "evostore_ledger_ops_total",
        "evostore_ledger_bytes_in_total",
        "evostore_ledger_retries_total",
        "evostore_slo_objective_us",
        "evostore_slo_good_total",
        "evostore_slo_tripped",
    ] {
        assert!(snap.find(name).is_some(), "{name} missing from snapshot");
    }
}

/// Tentpole (telemetry v2): a deployment with `obs_listen` serves all
/// five live endpoints over plain HTTP, re-rendered per request.
#[test]
fn exposition_server_serves_all_five_endpoints() {
    let dep = Deployment::new(DeploymentConfig {
        providers: 2,
        obs_listen: Some("127.0.0.1:0".into()),
        ..Default::default()
    });
    let addr = dep.obs_addr().expect("server bound an ephemeral port");
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let model = ModelId(1);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.9, &mut rng)
        .unwrap();
    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();
    client.fetch_tensors(&keys).unwrap();

    let get = |path: &str| evostore_obs::serve::http_get(addr, path).unwrap();

    let metrics = get("/metrics");
    assert!(metrics.contains("# TYPE evostore_slo_objective_us gauge"));
    assert!(metrics.contains("evostore_client_fetch_latency_us{"));
    assert!(metrics.contains("evostore_provider_models"));

    let json = get("/metrics.json");
    assert!(json.contains("evostore_kv_bytes_written"));

    let slo = get("/slo");
    assert!(slo.contains("\"op_class\":\"store\""));
    assert!(slo.contains("\"burn_rate\""));

    let traces = get("/traces/recent");
    assert!(traces.contains("trace "), "traces:\n{traces}");
    assert!(traces.contains("fetch_tensors"), "traces:\n{traces}");

    let flight = get("/flight");
    assert!(flight.contains("# node"), "flight:\n{flight}");
    assert!(flight.contains("span store_model"), "flight:\n{flight}");

    // Unknown paths 404 with the route list; the server is live (every
    // hit above re-rendered fresh state).
    let missing = get("/nope");
    assert!(missing.contains("/metrics"));
}

/// Satellite: a client built at `TelemetryLevel::Minimal` still times
/// its op histograms but opens no spans, records no exemplars, and
/// leaves the ledger empty — the obs-off side of the overhead A/B.
#[test]
fn minimal_telemetry_skips_spans_exemplars_and_ledger() {
    let dep = Deployment::in_memory(2);
    let client = dep
        .client_builder()
        .telemetry_level(evostore_core::TelemetryLevel::Minimal)
        .build();
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let model = ModelId(1);
    client
        .store_fresh(model, &seq(&[8, 16, 4]), 0.9, &mut rng)
        .unwrap();
    let keys = client.get_meta(model).unwrap().owner_map.all_tensor_keys();
    client.fetch_tensors(&keys).unwrap();

    let t = client.telemetry();
    assert_eq!(t.store.summary().count, 1, "histograms still time ops");
    assert_eq!(t.fetch.summary().count, 1);
    assert!(
        t.fetch.exemplars_for_quantile(0.99).is_empty(),
        "no exemplars without an ambient trace"
    );
    assert!(
        spans_of(client.flight_recorder())
            .iter()
            .all(|s| s.name != "fetch_tensors" && s.name != "store_model"),
        "no root spans at Minimal"
    );
    assert!(client.ledger().entries().is_empty(), "ledger stays empty");
}

/// Store `model` with `g`'s architecture, deriving from `parent` (all of
/// whose layers but the last `g` shares) when one is given.
fn store_in_lineage(
    client: &EvoStoreClient,
    model: ModelId,
    g: &CompactGraph,
    parent: Option<ModelId>,
    rng: &mut ChaCha8Rng,
) {
    let Some(parent) = parent else {
        client.store_fresh(model, g, 0.5, rng).unwrap();
        return;
    };
    let best = client
        .query_best_ancestor(g)
        .unwrap()
        .into_inner()
        .expect("the parent is a candidate");
    assert_eq!(best.model, parent);
    let meta = client.get_meta(parent).unwrap();
    let map = OwnerMap::derive(model, g, &best.lcp, &meta.owner_map);
    let tensors = trained_tensors(g, &map, model.0);
    client
        .store_model(g.clone(), map, Some(parent), 0.6, &tensors)
        .unwrap();
}

/// One watcher over a whole-family prefix on `dep`, registered with the
/// deployment's hub.
fn family_watcher(dep: &Deployment) -> ModelWatcher {
    ModelWatcher::attach(
        CachingClient::new(dep.client(), 64 << 20),
        SubscriptionFilter::ArchPrefix(seq(&[8, 16])),
        WatchConfig::default(),
        Some(dep.obs()),
    )
    .unwrap()
}

const WAIT: Duration = Duration::from_secs(10);

/// Three counters that were bumped and never reached the export: a
/// watcher's applied retires and prefetch cache hits were missing from
/// its row list, and the client dropped the `candidates` field of every
/// index reply.
#[test]
fn counted_series_that_were_never_exported_are() {
    let dep = Deployment::in_memory(1);
    let watcher = family_watcher(&dep);
    let writer = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    store_in_lineage(&writer, ModelId(1), &seq(&[8, 16, 16, 4]), None, &mut rng);
    assert!(watcher.wait_until(WAIT, || watcher.stats().events_applied == 1));
    // The child shares its parent's first three layers, which the
    // watcher has cached: its prefetch re-fetches only the last one.
    store_in_lineage(
        &writer,
        ModelId(2),
        &seq(&[8, 16, 16, 5]),
        Some(ModelId(1)),
        &mut rng,
    );
    assert!(watcher.wait_until(WAIT, || watcher.stats().events_applied == 2));
    writer.retire_model(ModelId(2)).unwrap();
    assert!(watcher.wait_until(WAIT, || watcher.stats().events_applied == 3));
    assert!(watcher.take_errors().is_empty());

    let stats = watcher.stats();
    assert_eq!(stats.retires_applied, 1);
    assert!(stats.cache_hits_on_fetch >= 4, "{stats:?}");
    let candidates = writer.telemetry().index_stats().candidates;
    assert_eq!(candidates, 1, "one query over a one-model catalog");

    let snap = dep.metrics_snapshot();
    for (name, want) in [
        ("evostore_deliver_retires_applied", stats.retires_applied),
        (
            "evostore_deliver_cache_hits_on_fetch",
            stats.cache_hits_on_fetch,
        ),
        ("evostore_client_index_candidates", candidates),
    ] {
        assert!(snap.find(name).is_some(), "{name} is not exported");
        assert_eq!(snap.counter_total(name), want, "{name}");
    }
}

/// ROADMAP 7(c): the exported catalogue is the tables. After one of every
/// operation on a 2-provider, r = 2 deployment, the series names in the
/// unified snapshot are exactly the tables' declared names plus the two
/// hand-written leaves (`kv`, `graph`) — `evostore-obs`'s own per-class
/// instruments (`evostore_obs_*`, `evostore_slo_*`, `evostore_ledger_*`)
/// aside — no `(name, labels)` pair appears twice, and every counter
/// whose operation ran has moved.
#[test]
fn metrics_catalogue_matches_the_tables() {
    use std::collections::BTreeSet;

    let dep = Deployment::in_memory_replicated(2, 2);
    let watcher = family_watcher(&dep);
    let client = dep.client();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let parent_g = seq(&[8, 16, 16, 4]);
    let child_g = seq(&[8, 16, 16, 5]);
    store_in_lineage(&client, ModelId(1), &parent_g, None, &mut rng);
    store_in_lineage(&client, ModelId(2), &child_g, Some(ModelId(1)), &mut rng);
    client.load_model(ModelId(2)).unwrap();
    client
        .query_best_ancestors(&[parent_g.clone(), child_g.clone()])
        .unwrap();
    client.find_matching(&ArchPattern::any()).unwrap();
    // Each release reaches the watcher once per replica (ROADMAP 2(ii)):
    // let it fetch the child's weights before the child goes.
    assert!(watcher.wait_until(WAIT, || watcher.stats().events_applied >= 4));
    client.retire_model(ModelId(2)).unwrap();
    assert!(watcher.wait_until(WAIT, || watcher.stats().retires_applied >= 2));
    // Acks trail applies; wait for the providers' side of the ledger.
    assert!(watcher.wait_until(WAIT, || {
        let delivered: u64 = dep.stats().iter().map(|s| s.deliver.events_delivered).sum();
        delivered >= watcher.stats().events_applied
    }));

    let snap = dep.metrics_snapshot();
    let leaves = index_query_rows(&Default::default())
        .into_iter()
        .chain(kv_rows(&Default::default()))
        .map(|(name, _)| name);
    let declared: BTreeSet<&str> = [
        ProviderStats::SERIES,
        DeliverStats::SERIES,
        ClientStats::SERIES,
        RpcStats::SERIES,
        WatchStats::SERIES,
        ParStats::SERIES,
        FabricStats::SERIES,
    ]
    .into_iter()
    .flatten()
    .copied()
    .chain(leaves)
    .collect();
    let exported: BTreeSet<&str> = snap
        .metrics
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| {
            !["evostore_obs_", "evostore_slo_", "evostore_ledger_"]
                .iter()
                .any(|own| n.starts_with(own))
        })
        .collect();
    assert_eq!(exported, declared);

    let mut series: Vec<_> = snap.metrics.iter().map(|m| (&m.name, &m.labels)).collect();
    let total = series.len();
    series.sort();
    series.dedup();
    assert_eq!(
        series.len(),
        total,
        "a (name, labels) pair is exported twice"
    );

    for name in [
        "evostore_client_rpc_calls",
        "evostore_client_bulk_segments_exposed",
        "evostore_client_index_candidates",
        "evostore_client_index_scanned",
        "evostore_client_batch_envelopes",
        "evostore_client_batch_queries",
        "evostore_index_candidates",
        "evostore_index_scanned",
        "evostore_index_snapshot_publications",
        "evostore_index_snapshot_reads",
        "evostore_index_batch_envelopes",
        "evostore_index_batch_queries",
        "evostore_datapath_bulk_segments_exposed",
        "evostore_datapath_zero_copy_reads",
        "evostore_kv_puts",
        "evostore_kv_gets",
        "evostore_kv_deletes",
        "evostore_kv_bytes_written",
        "evostore_kv_bytes_read",
        "evostore_par_inline_total",
        "evostore_deliver_events_published",
        "evostore_deliver_events_delivered",
        "evostore_deliver_event_pushes",
        "evostore_deliver_releases",
        "evostore_deliver_events_applied",
        "evostore_deliver_retires_applied",
        "evostore_deliver_provider_fetches",
        "evostore_deliver_provider_egress_bytes",
        "evostore_deliver_cache_hits_on_fetch",
    ] {
        assert!(snap.counter_total(name) > 0, "{name} did not move");
    }
}
