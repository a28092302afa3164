//! The benchmark's metric names and how each is computed from a run.
//!
//! `BENCHMARK.json` at the repository root lists exactly the names in
//! [`END_TO_END`] and [`PER_LAYER`]; a self-test keeps the three in step.
//! Every workload reports every metric: a per-layer metric of a layer the
//! workload bypasses reads 0 (a counter) or the layer's speed on the
//! workload's inputs (a replay probe).

use evostore_core::{ProviderStats, WatchStats};

use crate::harness::{peak_rss_mb, Recorder};
use crate::stats::median;
use crate::trace::{Class, Tracer};

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("cycles_per_s", "1/s", "higher"),
    ("store_mb_per_s", "MB/s", "higher"),
    ("load_mb_per_s", "MB/s", "higher"),
    ("store_ms_p50", "ms", "lower"),
    ("load_ms_p50", "ms", "lower"),
    ("query_us_p50", "us", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("retire_us_p50", "us", "lower"),
    ("stored_bytes_per_user_byte", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

pub const PER_LAYER: &[MetricDef] = &[
    ("tensor.ser.write_mb_per_s", "MB/s", "higher"),
    ("tensor.ser.read_mb_per_s", "MB/s", "higher"),
    ("tensor.ser.validate_mb_per_s", "MB/s", "higher"),
    ("tensor.ser.share", "ratio", "lower"),
    ("tensor.hash.mb_per_s", "MB/s", "higher"),
    ("tensor.hash.share", "ratio", "lower"),
    ("tensor.delta.encode_mb_per_s", "MB/s", "higher"),
    ("tensor.delta.decode_mb_per_s", "MB/s", "higher"),
    ("tensor.delta.bytes_ratio", "ratio", "lower"),
    ("tensor.delta.share", "ratio", "lower"),
    ("graph.flatten.us_per_arch", "us", "lower"),
    ("graph.lcp.us_per_pair", "us", "lower"),
    ("graph.index.query_us", "us", "lower"),
    ("graph.index.insert_us", "us", "lower"),
    ("graph.index.scanned_per_query", "count", "lower"),
    ("graph.index.memo_hit_ratio", "ratio", "higher"),
    ("graph.index.pruned_ratio", "ratio", "higher"),
    ("graph.index.answer_cache_ratio", "ratio", "higher"),
    ("graph.index.share", "ratio", "lower"),
    ("graph.snapshot.load_ns", "ns", "lower"),
    ("graph.snapshot.store_us", "us", "lower"),
    ("graph.snapshot.publications", "count", "lower"),
    ("graph.snapshot.retired", "count", "lower"),
    ("graph.snapshot.share", "ratio", "lower"),
    ("graph.json.encode_us_per_graph", "us", "lower"),
    ("graph.json.decode_us_per_graph", "us", "lower"),
    ("graph.json.bytes_per_graph", "bytes", "lower"),
    ("graph.json.share", "ratio", "lower"),
    ("kv.mempool.put_mb_per_s", "MB/s", "higher"),
    ("kv.mempool.get_mb_per_s", "MB/s", "higher"),
    ("kv.mempool.share", "ratio", "lower"),
    ("kv.logstore.put_mb_per_s", "MB/s", "higher"),
    ("kv.logstore.get_mb_per_s", "MB/s", "higher"),
    ("kv.logstore.disk_bytes_per_user_byte", "ratio", "lower"),
    ("kv.logstore.open_ms", "ms", "lower"),
    ("kv.logstore.share", "ratio", "lower"),
    ("kv.chunkstore.put_mb_per_s", "MB/s", "higher"),
    ("kv.chunkstore.get_mb_per_s", "MB/s", "higher"),
    ("kv.chunkstore.dedup_hit_ratio", "ratio", "higher"),
    ("kv.chunkstore.physical_per_logical", "ratio", "lower"),
    ("kv.chunkstore.share", "ratio", "lower"),
    ("kv.refcount.incr_decr_ns", "ns", "lower"),
    ("kv.refcount.share", "ratio", "lower"),
    ("kv.tensor_kv.puts_per_op", "count", "lower"),
    ("kv.tensor_kv.gets_per_op", "count", "lower"),
    ("rpc.fabric.call_rtt_us", "us", "lower"),
    ("rpc.fabric.bulk_us_per_mb", "us/MB", "lower"),
    ("rpc.fabric.share", "ratio", "lower"),
    ("rpc.calls_per_op", "count", "lower"),
    ("rpc.retries", "count", "lower"),
    ("rpc.timeouts", "count", "lower"),
    ("core.messages.store_req_encode_us", "us", "lower"),
    ("core.messages.store_req_decode_us", "us", "lower"),
    ("core.messages.store_req_bytes", "bytes", "lower"),
    ("core.messages.meta_reply_decode_us", "us", "lower"),
    ("core.messages.lcp_batch_encode_us", "us", "lower"),
    ("core.messages.lcp_batch_reply_decode_us", "us", "lower"),
    ("core.messages.bytes_per_op", "bytes", "lower"),
    ("core.messages.share", "ratio", "lower"),
    ("core.owner_map.derive_us", "us", "lower"),
    ("core.owner_map.metadata_bytes_per_model", "bytes", "lower"),
    ("core.client.store_ms_tail", "ms", "lower"),
    ("core.client.store_tail_pct", "%", "higher"),
    ("core.client.load_ms_tail", "ms", "lower"),
    ("core.client.load_tail_pct", "%", "higher"),
    ("core.client.query_us_tail", "us", "lower"),
    ("core.client.query_tail_pct", "%", "higher"),
    ("core.client.retire_us_tail", "us", "lower"),
    ("core.client.retire_tail_pct", "%", "higher"),
    ("core.client.get_meta_us_p50", "us", "lower"),
    ("core.client.query_batch_us_per_graph", "us", "lower"),
    ("core.client.pattern_us_p50", "us", "lower"),
    ("core.client.unattributed_share_store", "ratio", "lower"),
    ("core.client.unattributed_share_load", "ratio", "lower"),
    ("core.client.unattributed_share_query", "ratio", "lower"),
    ("core.client.unattributed_share_retire", "ratio", "lower"),
    ("core.provider.zero_copy_read_ratio", "ratio", "higher"),
    ("core.provider.delta_stored", "count", "higher"),
    (
        "core.provider.delta_reconstructs_per_load",
        "count",
        "lower",
    ),
    ("core.provider.validate_par_batches", "count", "higher"),
    (
        "core.provider.batch_queries_per_envelope",
        "count",
        "higher",
    ),
    ("core.deployment.gc_audit_ms", "ms", "lower"),
    ("core.deployment.repair_s", "s", "lower"),
    ("core.deployment.reopen_s", "s", "lower"),
    ("core.deployment.repair_models_synced", "count", "lower"),
    ("core.deployment.repair_bytes_moved", "bytes", "lower"),
    (
        "core.deployment.repair_bytes_saved_ratio",
        "ratio",
        "higher",
    ),
    ("core.deployment.under_replicated_stores", "count", "lower"),
    ("core.watch.ttw_ms_p50", "ms", "lower"),
    ("core.watch.bytes_per_release", "bytes", "lower"),
    ("core.watch.chunk_bytes_reused_ratio", "ratio", "higher"),
    ("deliver.events_delivered", "count", "higher"),
    ("deliver.events_lost", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.metrics_snapshot_ms", "ms", "lower"),
    ("obs.spans_recorded", "count", "lower"),
    ("bench.loadgen_share", "ratio", "lower"),
];

/// One reported value; `n` is the sample count behind it, where it has one.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: Option<u64>,
}

/// Counters a traced run's probes collect beside their spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeCounters {
    pub delta_raw_bytes: u64,
    pub delta_encoded_bytes: u64,
    pub message_bytes: u64,
    pub message_ops: u64,
    pub graph_json_bytes: u64,
    pub graph_json_count: u64,
    pub store_req_bytes: u64,
    pub store_req_count: u64,
    pub logstore_open_ms: f64,
}

impl ProbeCounters {
    pub fn add(&mut self, o: &ProbeCounters) {
        self.delta_raw_bytes += o.delta_raw_bytes;
        self.delta_encoded_bytes += o.delta_encoded_bytes;
        self.message_bytes += o.message_bytes;
        self.message_ops += o.message_ops;
        self.graph_json_bytes += o.graph_json_bytes;
        self.graph_json_count += o.graph_json_count;
        self.store_req_bytes += o.store_req_bytes;
        self.store_req_count += o.store_req_count;
        self.logstore_open_ms = self.logstore_open_ms.max(o.logstore_open_ms);
    }
}

/// Read-outs of the deployment's public counters.
#[derive(Debug, Default, Clone)]
pub struct Readouts {
    /// Provider statistics summed over providers, when the measured phase
    /// started and when it ended.
    pub before: ProviderStats,
    pub after: ProviderStats,
    /// Index walks the providers ran: queries answered times providers
    /// asked.
    pub provider_queries: u64,
    pub gc_audit_ms: f64,
    pub metrics_snapshot_ms: f64,
    pub repair_s: f64,
    pub reopen_s: f64,
    pub repair_models_synced: u64,
    pub repair_bytes_moved: u64,
    pub repair_bytes_saved: u64,
    pub under_replicated_stores: u64,
    pub logstore_disk_bytes: u64,
    pub live_user_bytes: u64,
    pub watch: Option<WatchStats>,
    pub watch_releases: u64,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub rec: Recorder,
    pub tracer: Tracer,
    pub probes: ProbeCounters,
    pub setup_s: Vec<f64>,
    pub readouts: Readouts,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One computed value: `(metric name, value, samples behind it)`.
type Row = (&'static str, f64, Option<u64>);

/// Pair every listed metric with its computed row, by name: a metric
/// without a row, or a row without a metric, is a bug in this file.
fn assemble(defs: &[MetricDef], rows: Vec<Row>) -> Vec<Metric> {
    assert_eq!(rows.len(), defs.len(), "one value per listed metric");
    defs.iter()
        .map(|&(name, unit, _)| {
            let &(_, value, n) = rows
                .iter()
                .find(|r| r.0 == name)
                .unwrap_or_else(|| panic!("no value computed for {name}"));
            Metric {
                name,
                unit,
                value,
                n,
            }
        })
        .collect()
}

pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let rec = &out.rec;
    let p50 = |class: Class, scale: f64| {
        let s = rec.samples(class);
        (s.median() / scale, Some(s.len() as u64))
    };
    let (store, load) = (p50(Class::Store, 1e6), p50(Class::Load, 1e6));
    let (query, retire) = (p50(Class::Query, 1e3), p50(Class::Retire, 1e3));
    let rows = vec![
        (
            "setup_s",
            median(&out.setup_s),
            Some(out.setup_s.len() as u64),
        ),
        ("cycles_per_s", rec.cycle_rate, Some(rec.cycles)),
        (
            "store_mb_per_s",
            rec.store_rates.median() / 1e6,
            Some(rec.store_rates.len() as u64),
        ),
        (
            "load_mb_per_s",
            rec.load_rates.median() / 1e6,
            Some(rec.load_rates.len() as u64),
        ),
        ("store_ms_p50", store.0, store.1),
        ("load_ms_p50", load.0, load.1),
        ("query_us_p50", query.0, query.1),
        (
            "queries_per_s",
            ratio(
                rec.answers_per_round as f64,
                rec.query_rounds.median() / 1e9,
            ),
            Some(rec.query_rounds.len() as u64),
        ),
        ("retire_us_p50", retire.0, retire.1),
        (
            "stored_bytes_per_user_byte",
            ratio(rec.stored_bytes_sum as f64, rec.live_user_bytes_sum as f64),
            Some(rec.space_samples),
        ),
        ("peak_rss_mb", peak_rss_mb(), None),
    ];
    assemble(END_TO_END, rows)
}

pub fn per_layer(out: &Outcome) -> Vec<Metric> {
    let (rec, t, p, r) = (&out.rec, &out.tracer, &out.probes, &out.readouts);
    let (a, b) = (&r.after, &r.before);
    // A provider counter's growth over the measured phase.
    let d = |f: fn(&ProviderStats) -> u64| f(a).saturating_sub(f(b)) as f64;
    let mut rows: Vec<Row> = Vec::new();

    // Replayed spans: throughput, time per unit, share of the replayed ops.
    for (name, span) in [
        ("tensor.ser.write_mb_per_s", "tensor.ser.write"),
        ("tensor.ser.read_mb_per_s", "tensor.ser.read"),
        ("tensor.ser.validate_mb_per_s", "tensor.ser.validate"),
        ("tensor.hash.mb_per_s", "tensor.hash.records"),
        ("tensor.delta.encode_mb_per_s", "tensor.delta.encode"),
        ("tensor.delta.decode_mb_per_s", "tensor.delta.decode"),
        ("kv.mempool.put_mb_per_s", "kv.mempool.put"),
        ("kv.mempool.get_mb_per_s", "kv.mempool.get"),
        ("kv.logstore.put_mb_per_s", "kv.logstore.put"),
        ("kv.logstore.get_mb_per_s", "kv.logstore.get"),
        ("kv.chunkstore.put_mb_per_s", "kv.chunkstore.put"),
        ("kv.chunkstore.get_mb_per_s", "kv.chunkstore.get"),
    ] {
        let acc = t.layer(span);
        rows.push((name, acc.mb_per_s(), Some(acc.count)));
    }
    for (name, span, scale) in [
        ("graph.flatten.us_per_arch", "graph.flatten", 1e3),
        ("graph.lcp.us_per_pair", "graph.lcp.pair", 1e3),
        ("graph.index.insert_us", "graph.index.insert", 1e3),
        ("graph.snapshot.load_ns", "graph.snapshot.load", 1.0),
        ("graph.snapshot.store_us", "graph.snapshot.store", 1e3),
        ("graph.json.encode_us_per_graph", "graph.json.encode", 1e3),
        ("graph.json.decode_us_per_graph", "graph.json.decode", 1e3),
        ("kv.refcount.incr_decr_ns", "kv.refcount.incr_decr", 1.0),
        ("rpc.fabric.call_rtt_us", "rpc.fabric.call_rtt", 1e3),
        (
            "core.messages.store_req_encode_us",
            "core.messages.store_req_encode",
            1e3,
        ),
        (
            "core.messages.store_req_decode_us",
            "core.messages.store_req_decode",
            1e3,
        ),
        (
            "core.messages.meta_reply_decode_us",
            "core.messages.meta_reply_decode",
            1e3,
        ),
        (
            "core.messages.lcp_batch_encode_us",
            "core.messages.lcp_batch_encode",
            1e3,
        ),
        (
            "core.messages.lcp_batch_reply_decode_us",
            "core.messages.lcp_batch_reply_decode",
            1e3,
        ),
        ("core.owner_map.derive_us", "core.owner_map.derive", 1e3),
    ] {
        let acc = t.layer(span);
        rows.push((name, acc.ns_per_unit() / scale, Some(acc.count)));
    }
    for (name, layer) in [
        ("tensor.ser.share", "tensor.ser"),
        ("tensor.hash.share", "tensor.hash"),
        ("tensor.delta.share", "tensor.delta"),
        ("graph.index.share", "graph.index"),
        ("graph.snapshot.share", "graph.snapshot"),
        ("graph.json.share", "graph.json"),
        ("kv.mempool.share", "kv.mempool"),
        ("kv.logstore.share", "kv.logstore"),
        ("kv.chunkstore.share", "kv.chunkstore"),
        ("kv.refcount.share", "kv.refcount"),
        ("rpc.fabric.share", "rpc.fabric"),
        ("core.messages.share", "core.messages"),
    ] {
        rows.push((name, t.layer_share(layer), None));
    }
    for (name, class) in [
        ("core.client.unattributed_share_store", Class::Store),
        ("core.client.unattributed_share_load", Class::Load),
        ("core.client.unattributed_share_query", Class::Query),
        ("core.client.unattributed_share_retire", Class::Retire),
    ] {
        rows.push((name, t.unattributed_share(class), None));
    }

    // Client-side samples: the supported tail and which percentile it is.
    for (tail, pct, class, scale) in [
        (
            "core.client.store_ms_tail",
            "core.client.store_tail_pct",
            Class::Store,
            1e6,
        ),
        (
            "core.client.load_ms_tail",
            "core.client.load_tail_pct",
            Class::Load,
            1e6,
        ),
        (
            "core.client.query_us_tail",
            "core.client.query_tail_pct",
            Class::Query,
            1e3,
        ),
        (
            "core.client.retire_us_tail",
            "core.client.retire_tail_pct",
            Class::Retire,
            1e3,
        ),
    ] {
        let s = rec.samples(class);
        let (percentile, ns) = s.tail();
        rows.push((tail, ns / scale, Some(s.len() as u64)));
        rows.push((pct, percentile, None));
    }
    let (get_meta, pattern) = (rec.samples(Class::GetMeta), rec.samples(Class::Pattern));
    let batch = rec.samples(Class::QueryBatch);
    let (stores, loads) = (
        rec.samples(Class::Store).len() as f64,
        rec.samples(Class::Load).len() as f64,
    );

    let walks = {
        let (q, qb) = (
            t.layer("graph.index.query"),
            t.layer("graph.index.query_batch"),
        );
        (
            ratio((q.ns + qb.ns) as f64 / 1e3, (q.count + qb.count) as f64),
            q.count + qb.count,
        )
    };
    let (scanned, memo, pruned) = (
        d(|s| s.query_stats.scanned),
        d(|s| s.query_stats.memo_hits),
        d(|s| s.query_stats.pruned),
    );
    let bulk = t.layer("rpc.fabric.bulk");
    let watch = r.watch.clone().unwrap_or_default();
    let watch_bytes = (watch.provider_bytes_fetched + watch.peer_bytes_fetched) as f64;
    let wall = rec.wall_sum.as_secs_f64();
    let queries = r.provider_queries as f64;

    rows.extend([
        (
            "tensor.delta.bytes_ratio",
            ratio(p.delta_encoded_bytes as f64, p.delta_raw_bytes as f64),
            None,
        ),
        ("graph.index.query_us", walks.0, Some(walks.1)),
        (
            "graph.index.scanned_per_query",
            ratio(scanned, queries),
            Some(r.provider_queries),
        ),
        (
            "graph.index.memo_hit_ratio",
            ratio(memo, memo + scanned),
            None,
        ),
        (
            "graph.index.pruned_ratio",
            ratio(pruned, pruned + memo + scanned),
            None,
        ),
        (
            "graph.index.answer_cache_ratio",
            ratio(d(|s| s.query_stats.answered), queries),
            None,
        ),
        (
            "graph.snapshot.publications",
            d(|s| s.snapshot_publications),
            None,
        ),
        ("graph.snapshot.retired", a.snapshot_retired as f64, None),
        (
            "graph.json.bytes_per_graph",
            ratio(p.graph_json_bytes as f64, p.graph_json_count as f64),
            Some(p.graph_json_count),
        ),
        (
            "kv.logstore.disk_bytes_per_user_byte",
            ratio(r.logstore_disk_bytes as f64, r.live_user_bytes as f64),
            None,
        ),
        ("kv.logstore.open_ms", p.logstore_open_ms, None),
        // Since the deployment started: the uploads that dedup are part
        // of set-up.
        (
            "kv.chunkstore.dedup_hit_ratio",
            ratio(
                a.chunk_dedup_hits as f64,
                a.tensor_kv.bytes_written as f64 / evostore_kv::DEFAULT_CHUNK_SIZE as f64,
            )
            .min(1.0),
            None,
        ),
        (
            "kv.chunkstore.physical_per_logical",
            ratio(a.chunk_physical_bytes as f64, a.chunk_logical_bytes as f64),
            None,
        ),
        (
            "kv.tensor_kv.puts_per_op",
            ratio(d(|s| s.tensor_kv.puts), stores),
            None,
        ),
        (
            "kv.tensor_kv.gets_per_op",
            ratio(d(|s| s.tensor_kv.gets), loads),
            None,
        ),
        (
            "rpc.fabric.bulk_us_per_mb",
            ratio(bulk.ns as f64 / 1e3, bulk.bytes as f64 / 1e6),
            Some(bulk.count),
        ),
        (
            "rpc.calls_per_op",
            ratio(rec.rpc_calls as f64, rec.ops as f64),
            Some(rec.ops),
        ),
        ("rpc.retries", rec.rpc_retries as f64, None),
        ("rpc.timeouts", rec.rpc_timeouts as f64, None),
        (
            "core.messages.store_req_bytes",
            ratio(p.store_req_bytes as f64, p.store_req_count as f64),
            Some(p.store_req_count),
        ),
        (
            "core.messages.bytes_per_op",
            ratio(p.message_bytes as f64, p.message_ops as f64),
            Some(p.message_ops),
        ),
        (
            "core.owner_map.metadata_bytes_per_model",
            ratio(a.metadata_bytes as f64, a.models as f64),
            Some(a.models as u64),
        ),
        (
            "core.client.get_meta_us_p50",
            get_meta.median() / 1e3,
            Some(get_meta.len() as u64),
        ),
        (
            "core.client.query_batch_us_per_graph",
            ratio(batch.sum() as f64 / 1e3, rec.batch_graphs as f64),
            Some(rec.batch_graphs),
        ),
        (
            "core.client.pattern_us_p50",
            pattern.median() / 1e3,
            Some(pattern.len() as u64),
        ),
        (
            "core.provider.zero_copy_read_ratio",
            ratio(
                d(|s| s.zero_copy_reads),
                d(|s| s.zero_copy_reads) + d(|s| s.copy_fallback_reads),
            ),
            None,
        ),
        ("core.provider.delta_stored", d(|s| s.delta_stored), None),
        (
            "core.provider.delta_reconstructs_per_load",
            ratio(d(|s| s.delta_reconstructs), loads),
            None,
        ),
        (
            "core.provider.validate_par_batches",
            d(|s| s.validate_par_batches),
            None,
        ),
        (
            "core.provider.batch_queries_per_envelope",
            ratio(d(|s| s.batch_queries), d(|s| s.batch_envelopes)),
            None,
        ),
        ("core.deployment.gc_audit_ms", r.gc_audit_ms, None),
        ("core.deployment.repair_s", r.repair_s, None),
        ("core.deployment.reopen_s", r.reopen_s, None),
        (
            "core.deployment.repair_models_synced",
            r.repair_models_synced as f64,
            None,
        ),
        (
            "core.deployment.repair_bytes_moved",
            r.repair_bytes_moved as f64,
            None,
        ),
        (
            "core.deployment.repair_bytes_saved_ratio",
            ratio(
                r.repair_bytes_saved as f64,
                (r.repair_bytes_saved + r.repair_bytes_moved) as f64,
            ),
            None,
        ),
        (
            "core.deployment.under_replicated_stores",
            r.under_replicated_stores as f64,
            None,
        ),
        (
            "core.watch.ttw_ms_p50",
            watch.time_to_weights.p50_us as f64 / 1e3,
            Some(watch.time_to_weights.count),
        ),
        (
            "core.watch.bytes_per_release",
            ratio(watch_bytes, r.watch_releases as f64),
            Some(r.watch_releases),
        ),
        (
            "core.watch.chunk_bytes_reused_ratio",
            ratio(
                watch.chunk_bytes_reused as f64,
                watch.chunk_bytes_reused as f64 + watch_bytes,
            ),
            None,
        ),
        (
            "deliver.events_delivered",
            watch.events_applied as f64,
            None,
        ),
        (
            "deliver.events_lost",
            (watch.gaps + a.deliver.events_dropped) as f64,
            None,
        ),
        (
            "obs.trace_overhead_ratio",
            ratio(wall, wall - t.overhead.as_secs_f64()),
            None,
        ),
        ("obs.metrics_snapshot_ms", r.metrics_snapshot_ms, None),
        ("obs.spans_recorded", t.spans_recorded() as f64, None),
        (
            "bench.loadgen_share",
            ratio(rec.loadgen.as_secs_f64(), wall),
            None,
        ),
    ]);
    assemble(PER_LAYER, rows)
}

/// The driver's result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// `name unit value [n=samples]`, one metric per line.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        match m.n {
            Some(n) => println!("{} {} {} [n={n}]", m.name, m.unit, m.value),
            None => println!("{} {} {}", m.name, m.unit, m.value),
        }
    }
}
