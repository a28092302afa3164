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
//! Rounds are interleaved (minimal, full, minimal, full, ...) and the
//! best round per arm is kept, so scheduler noise and cache warm-up hit
//! both arms symmetrically. Writes `--json PATH` with both rates and
//! the relative overhead for the gate in tools/bench-obs.sh.

use std::time::Instant;

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

/// One round of `total` queries in `batch`-sized envelopes; returns q/s.
fn run_round(total: usize, batch: usize, client: &EvoStoreClient, probes: &[CompactGraph]) -> f64 {
    let envelopes = total.div_ceil(batch);
    let t0 = Instant::now();
    for e in 0..envelopes {
        let lo = e * batch;
        let hi = (lo + batch).min(total);
        let pack: Vec<CompactGraph> = (lo..hi).map(|i| probes[i % probes.len()].clone()).collect();
        let replies = client
            .query_best_ancestors(&pack)
            .expect("batch succeeds")
            .into_inner();
        assert_eq!(replies.len(), pack.len());
    }
    total as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse();
    let catalog_size: usize = args.get("catalog", 1000);
    let queries: usize = args.get("queries", 3000);
    let batch: usize = args.get("batch", 64);
    let rounds: usize = args.get("rounds", 3);
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
    run_round(queries.min(500), batch, &minimal, &probes);

    let mut best_full = 0.0f64;
    let mut best_minimal = 0.0f64;
    for r in 0..rounds {
        let m = run_round(queries, batch, &minimal, &probes);
        let f = run_round(queries, batch, &full, &probes);
        println!("  round {r}: minimal {m:.1} q/s | full {f:.1} q/s");
        best_minimal = best_minimal.max(m);
        best_full = best_full.max(f);
    }

    let overhead = (best_minimal - best_full) / best_minimal;
    println!(
        "  best: minimal {best_minimal:.1} q/s | full {best_full:.1} q/s | overhead {:.2}%",
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
             \"minimal_qps\": {best_minimal:.1},\n  \"full_qps\": {best_full:.1},\n  \
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
