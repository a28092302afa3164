//! Catalog read-path A/B — snapshot-isolated concurrent queries.
//!
//! Measures two comparisons on one populated deployment, all real
//! execution and wall-clock:
//!
//! 1. **single vs batched** — per-query RPC envelopes (`query_best_ancestor`)
//!    against N-query batches (`query_best_ancestors`) that pin one
//!    catalog snapshot per envelope and fan across rayon provider-side;
//! 2. **reader scaling under churn** — 1 vs R reader threads issuing
//!    batched queries while a writer streams store/retire mutations
//!    (lock-free snapshot reads must not collapse).
//!
//! Writes `--json PATH` (default none) with every measured point plus
//! the host core count so gates can adapt to single-core containers.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use evostore_bench::{banner, f1, print_table, Args};
use evostore_core::{Deployment, EvoStoreClient, ProviderState};
use evostore_graph::{flatten, CompactGraph, GenomeSpace};
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Mutation-family catalog (same shape as fig5: families of derived
/// architectures so LCP structure is realistic).
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

/// Run `total` single queries from `readers` threads (work stealing);
/// returns queries/s.
fn run_single(
    readers: usize,
    total: usize,
    client: &EvoStoreClient,
    probes: &[CompactGraph],
) -> f64 {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..readers {
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let _ = client
                    .query_best_ancestor(&probes[i % probes.len()])
                    .expect("query succeeds");
            });
        }
    });
    total as f64 / t0.elapsed().as_secs_f64()
}

/// Run `total` queries packed into `batch`-sized envelopes from
/// `readers` threads; returns queries/s.
fn run_batched(
    readers: usize,
    total: usize,
    batch: usize,
    client: &EvoStoreClient,
    probes: &[CompactGraph],
) -> f64 {
    let envelopes = total.div_ceil(batch);
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..readers {
            let next = &next;
            let done = &done;
            s.spawn(move || loop {
                let e = next.fetch_add(1, Ordering::Relaxed);
                if e >= envelopes {
                    break;
                }
                let lo = e * batch;
                let hi = (lo + batch).min(total);
                let pack: Vec<CompactGraph> =
                    (lo..hi).map(|i| probes[i % probes.len()].clone()).collect();
                let replies = client
                    .query_best_ancestors(&pack)
                    .expect("batch succeeds")
                    .into_inner();
                assert_eq!(replies.len(), pack.len());
                done.fetch_add(pack.len(), Ordering::Relaxed);
            });
        }
    });
    done.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
}

/// Background store/retire churn against provider state (the writer in
/// the reader-scaling experiment), throttled to ~`rate` ops/s so the
/// writer models a bounded mutation stream instead of monopolizing a
/// core with graph generation; returns ops performed.
fn churn(
    states: Vec<Arc<ProviderState>>,
    space: GenomeSpace,
    stop: Arc<AtomicBool>,
    rate: u64,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let providers = states.len();
        let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
        let mut next = 50_000_000u64;
        let mut ops = 0u64;
        let mut live: Vec<ModelId> = Vec::new();
        let tick = std::time::Duration::from_micros(1_000_000 / rate.max(1));
        while !stop.load(Ordering::Relaxed) {
            let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
            let model = ModelId(next);
            next += 1;
            states[model.provider_for(providers)].insert_meta_only(model, g, 0.5);
            live.push(model);
            ops += 1;
            if live.len() > 48 {
                let victim = live.remove(0);
                let _ = states[victim.provider_for(providers)].handle_retire_meta(
                    evostore_core::messages::RetireMetaRequest { model: victim },
                );
                ops += 1;
            }
            std::thread::sleep(tick);
        }
        ops
    })
}

fn main() {
    let args = Args::parse();
    let catalog_size: usize = args.get("catalog", 1000);
    let dups: usize = args.get("dups", 3);
    let queries: usize = args.get("queries", 4000);
    let batch: usize = args.get("batch", 64);
    let providers: usize = args.get("providers", 1);
    let readers: usize = args.get("readers", 4);
    let churn_rate: u64 = args.get("churn-rate", 500);
    let json_path: String = args.get("json", String::new());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    banner(
        "Catalog A/B",
        "snapshot-isolated reads: single vs batched, reader scaling under churn",
    );
    println!(
        "catalog = {catalog_size} architectures x {dups} models, {queries} queries, batch {batch}, \
         {providers} provider(s), {cores} core(s)"
    );

    let space = GenomeSpace::attn_like();
    let catalog = generate_catalog(&space, catalog_size, 7);
    // Probe stream: fresh mutations plus exact members (long-LCP hits
    // exercise the chunked-compare path; misses exercise the prefilter).
    let probes: Vec<CompactGraph> = {
        let mut v = generate_catalog(&space, 64, 13);
        v.extend(catalog.iter().step_by((catalog.len() / 64).max(1)).cloned());
        v
    };

    let dep = Deployment::new(evostore_core::DeploymentConfig {
        providers,
        service_threads: 2,
        backend: evostore_core::BackendKind::Memory,
        replication: evostore_core::ReplicationPolicy::default(),
        ..Default::default()
    });
    let states = dep.provider_states();
    let mut next = 0u64;
    for g in catalog.iter() {
        let first = ModelId(next);
        next += 1;
        let placement = first.provider_for(providers);
        states[placement].insert_meta_only(first, g.clone(), 0.5);
        for d in 1..dups.max(1) {
            while ModelId(next).provider_for(providers) != placement {
                next += 1;
            }
            let m = ModelId(next);
            next += 1;
            states[placement].insert_meta_only(m, g.clone(), 0.5 + d as f64 * 0.01);
        }
    }
    dep.set_index_enabled(true);
    let client = dep.client();

    // --- Point 1: single-query envelopes (the BENCH_lcp configuration). ---
    let single_qps = run_single(1, queries.min(1500), &client, &probes);
    println!("  single envelopes, 1 reader:   {single_qps:.1} q/s");

    // --- Point 2: batched envelopes. ---
    let batched_qps = run_batched(1, queries, batch, &client, &probes);
    let batch_speedup = batched_qps / single_qps;
    println!(
        "  batched x{batch}, 1 reader:      {batched_qps:.1} q/s ({batch_speedup:.1}x over single)"
    );

    let stats = client.stats().expect("provider stats");
    let prefiltered = stats.query_stats.prefiltered;
    println!(
        "  index counters: candidates={} scanned={} memo_hits={} prefiltered={}",
        stats.query_stats.candidates,
        stats.query_stats.scanned,
        stats.query_stats.memo_hits,
        prefiltered
    );

    // --- Point 3: reader scaling under a mutating writer. ---
    let mut scale_rows = Vec::new();
    let mut scale_points = Vec::new();
    let mut qps_by_readers = Vec::new();
    for &r in &[1usize, readers] {
        let stop = Arc::new(AtomicBool::new(false));
        let writer = churn(
            dep.provider_states(),
            space.clone(),
            Arc::clone(&stop),
            churn_rate,
        );
        let qps = run_batched(r, queries, batch, &client, &probes);
        stop.store(true, Ordering::Relaxed);
        let ops = writer.join().unwrap();
        println!("  batched x{batch}, {r} reader(s) under churn: {qps:.1} q/s ({ops} writer ops)");
        scale_rows.push(vec![r.to_string(), f1(qps), ops.to_string()]);
        scale_points.push(format!(
            "    {{\"readers\": {r}, \"qps\": {qps:.1}, \"churn_ops\": {ops}}}"
        ));
        qps_by_readers.push(qps);
    }
    let scaling_ratio = qps_by_readers[1] / qps_by_readers[0];
    println!("  reader scaling 1 -> {readers}: {scaling_ratio:.2}x (host has {cores} core(s))");
    let final_stats = client.stats().expect("provider stats");
    println!(
        "  snapshots: publications={} reads={} retired={} | batches: envelopes={} queries={}",
        final_stats.snapshot_publications,
        final_stats.snapshot_reads,
        final_stats.snapshot_retired,
        final_stats.batch_envelopes,
        final_stats.batch_queries
    );

    println!();
    print_table(
        &["readers (under churn)", "batched q/s", "writer ops"],
        &scale_rows,
    );

    if !json_path.is_empty() {
        let json = format!(
            "{{\n  \"bench\": \"catalog_ab\",\n  \"cores\": {cores},\n  \"providers\": {providers},\n  \
             \"architectures\": {},\n  \"models\": {},\n  \"queries\": {queries},\n  \"churn_rate\": {churn_rate},\n  \
             \"batch\": {batch},\n  \"single_qps\": {single_qps:.1},\n  \
             \"batched_qps\": {batched_qps:.1},\n  \"batch_speedup\": {batch_speedup:.2},\n  \
             \"prefiltered\": {prefiltered},\n  \
             \"readers\": {readers},\n  \"scaling_ratio\": {scaling_ratio:.2},\n  \
             \"snapshot_publications\": {},\n  \"snapshot_reads\": {},\n  \
             \"batch_envelopes\": {},\n  \"batch_queries\": {},\n  \"scale_points\": [\n{}\n  ]\n}}\n",
            catalog.len(),
            catalog.len() * dups.max(1),
            final_stats.snapshot_publications,
            final_stats.snapshot_reads,
            final_stats.batch_envelopes,
            final_stats.batch_queries,
            scale_points.join(",\n")
        );
        if let Some(parent) = std::path::Path::new(&json_path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&json_path, json).expect("write --json output");
        println!("wrote {json_path}");
    }
}
