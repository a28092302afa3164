//! Observability overhead A/B — telemetry on vs off on the catalog hot
//! path.
//!
//! One populated deployment, two clients on the same fabric: one at
//! `TelemetryLevel::Full` (root spans, ambient trace + cost cells,
//! exemplar-linked histograms, SLO engine, per-op ledger) and one at
//! `TelemetryLevel::Minimal` (bare histogram timing only). Both run the
//! same batched LCP query stream; the relative throughput gap is the
//! telemetry pipeline's overhead on the hottest read path.
//!
//! In each round the two arms take turns envelope by envelope, the arm
//! that goes first alternating from one envelope to the next, and the
//! round yields one overhead ratio `(minimal − full) / minimal` from each
//! arm's summed envelope time; the reported overhead is the median of
//! those ratios. Adjacent envelopes share whatever the host is doing at
//! the time, and the median ignores the rounds a burst of noise still
//! skews, where a best-of-N per arm compares rounds run at different
//! moments. Writes `--json PATH` with the median rates and overhead for
//! the gate in tools/bench-obs.sh.

use std::time::{Duration, Instant};

use evostore_bench::{banner, Args};
use evostore_core::{Deployment, EvoStoreClient, TelemetryLevel};
use evostore_graph::{flatten, CompactGraph, GenomeSpace};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn generate_catalog(space: &GenomeSpace, n: usize, seed: u64) -> Vec<CompactGraph> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graphs = Vec::with_capacity(n);
    let family = 10.max(n / 100);
    let mut genome = space.sample(&mut rng);
    for i in 0..n {
        if i % family == 0 {
            genome = space.sample(&mut rng);
        } else {
            genome = space.mutate(&genome, &mut rng);
        }
        graphs.push(flatten(&space.materialize(&genome)).expect("genomes flatten"));
    }
    graphs
}

/// One round: `total` queries per client in `batch`-sized envelopes, the
/// clients taking turns envelope by envelope (which goes first
/// alternates); returns each client's q/s over its own envelope time.
fn run_round(
    total: usize,
    batch: usize,
    clients: [&EvoStoreClient; 2],
    probes: &[CompactGraph],
) -> [f64; 2] {
    let mut busy = [Duration::ZERO; 2];
    for e in 0..total.div_ceil(batch) {
        let lo = e * batch;
        let hi = (lo + batch).min(total);
        let pack: Vec<CompactGraph> = (lo..hi).map(|i| probes[i % probes.len()].clone()).collect();
        for turn in 0..2 {
            let arm = (e + turn) % 2;
            let t0 = Instant::now();
            let replies = clients[arm]
                .query_best_ancestors(&pack)
                .expect("batch succeeds")
                .into_inner();
            busy[arm] += t0.elapsed();
            assert_eq!(replies.len(), pack.len());
        }
    }
    busy.map(|b| total as f64 / b.as_secs_f64())
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    match xs.len() % 2 {
        1 => xs[mid],
        _ => (xs[mid - 1] + xs[mid]) / 2.0,
    }
}

fn main() {
    let args = Args::parse();
    let catalog_size: usize = args.get("catalog", 1000);
    let queries: usize = args.get("queries", 3000);
    let batch: usize = args.get("batch", 64);
    let rounds: usize = args.get("rounds", 9).max(1);
    let json_path: String = args.get("json", String::new());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    banner(
        "Obs A/B",
        "telemetry pipeline overhead: Full vs Minimal clients on batched LCP queries",
    );
    println!(
        "catalog = {catalog_size} architectures, {queries} queries/round x {rounds} rounds, \
         batch {batch}, {cores} core(s)"
    );

    let space = GenomeSpace::attn_like();
    let catalog = generate_catalog(&space, catalog_size, 7);
    let probes: Vec<CompactGraph> = {
        let mut v = generate_catalog(&space, 64, 13);
        v.extend(catalog.iter().step_by((catalog.len() / 64).max(1)).cloned());
        v
    };

    let dep = Deployment::in_memory(1);
    let states = dep.provider_states();
    for (i, g) in catalog.iter().enumerate() {
        states[0]
            .insert_meta_only(ModelId(i as u64), g.clone(), 0.5)
            .unwrap();
    }
    dep.set_index_enabled(true);

    let full = dep.client();
    let minimal = dep
        .client_builder()
        .telemetry_level(TelemetryLevel::Minimal)
        .build();

    // Warm-up: populate the LCP memo and fault in catalog pages so the
    // first measured round is not paying one-time costs.
    run_round(queries.min(500), batch, [&minimal, &full], &probes);

    let (mut minimal_qps, mut full_qps, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..rounds {
        let [m, f] = run_round(queries, batch, [&minimal, &full], &probes);
        let overhead = (m - f) / m;
        println!(
            "  round {r}: minimal {m:.1} q/s | full {f:.1} q/s | overhead {:.2}%",
            overhead * 100.0
        );
        minimal_qps.push(m);
        full_qps.push(f);
        overheads.push(overhead);
    }
    let (median_minimal, median_full) = (median(&mut minimal_qps), median(&mut full_qps));
    let overhead = median(&mut overheads);
    println!(
        "  median: minimal {median_minimal:.1} q/s | full {median_full:.1} q/s | overhead {:.2}% (median of {rounds} rounds)",
        overhead * 100.0
    );

    // Sanity: the Full arm actually exercised the pipeline.
    let queried = full
        .ledger()
        .entry("query")
        .map(|e| e.ops)
        .unwrap_or_default();
    let slo_samples = full
        .slo()
        .and_then(|s| s.status("query"))
        .map(|s| s.good_total + s.bad_total)
        .unwrap_or_default();
    println!("  full arm: {queried} ledger ops, {slo_samples} SLO samples on \"query\"");
    assert!(queried > 0, "Full client never hit the ledger");
    assert!(slo_samples > 0, "Full client never fed the SLO engine");

    if !json_path.is_empty() {
        let json = format!(
            "{{\n  \"bench\": \"obs_ab\",\n  \"cores\": {cores},\n  \"catalog\": {catalog_size},\n  \
             \"queries\": {queries},\n  \"batch\": {batch},\n  \"rounds\": {rounds},\n  \
             \"minimal_qps\": {median_minimal:.1},\n  \"full_qps\": {median_full:.1},\n  \
             \"overhead_pct\": {:.2},\n  \"ledger_ops\": {queried},\n  \"slo_samples\": {slo_samples}\n}}\n",
            overhead * 100.0
        );
        if let Some(parent) = std::path::Path::new(&json_path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&json_path, json).expect("write --json output");
        println!("wrote {json_path}");
    }
}
