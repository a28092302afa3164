//! Figure 5 — Strong scalability of LCP query processing.
//!
//! A catalog of generated architectures is loaded into both EvoStore's
//! decentralized metadata (spread over providers, pre-parsed compact
//! graphs, provider-side parallel scan) and the centralized Redis-Queries
//! server (JSON values, decoded on every visit, global reader lock).
//! A fixed number of queries is then issued by a growing number of
//! concurrent workers; everything here is REAL execution and wall-clock
//! measurement — no cost models.
//!
//! Defaults are scaled down (6k catalog / 1k queries) so the harness
//! finishes in minutes; `--full` restores the paper's 60k/10k.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use evostore_bench::{banner, f1, print_table, Args};
use evostore_core::Deployment;
use evostore_graph::{flatten, CompactGraph, GenomeSpace};
use evostore_rpc::Fabric;
use evostore_tensor::ModelId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Generate the catalog: mutation families, so LCP structure is
/// realistic ("diverse and showcase complex architectural features with
/// alternative branches and submodels", §5.3).
fn generate_catalog(space: &GenomeSpace, n: usize, seed: u64) -> Vec<CompactGraph> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graphs = Vec::with_capacity(n);
    let family = 20.max(n / 200);
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

/// Run `queries` LCP queries from `workers` threads; returns (elapsed
/// seconds, completed queries).
fn run_queries<F>(workers: usize, queries: usize, query_fn: F) -> (f64, usize)
where
    F: Fn(usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let next = &next;
            let query_fn = &query_fn;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries {
                    break;
                }
                query_fn(i);
            });
        }
    });
    (t0.elapsed().as_secs_f64(), queries)
}

/// Spawn background add/retire churn against EvoStore provider state.
fn evostore_churn(
    states: Vec<std::sync::Arc<evostore_core::ProviderState>>,
    space: GenomeSpace,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let providers = states.len();
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
        let mut next = 10_000_000u64;
        let mut ops = 0u64;
        let mut live: Vec<ModelId> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
            let model = ModelId(next);
            next += 1;
            states[model.provider_for(providers)].insert_meta_only(model, g, 0.5);
            live.push(model);
            ops += 1;
            if live.len() > 64 {
                let victim = live.remove(0);
                let _ = states[victim.provider_for(providers)].handle_retire_meta(
                    evostore_core::messages::RetireMetaRequest { model: victim },
                );
                ops += 1;
            }
        }
        ops
    })
}

/// Spawn background add/retire churn against the Redis server (exercises
/// the paper's writer-lock protocol under concurrent queries).
fn redis_churn(
    state: std::sync::Arc<evostore_baseline::RedisState>,
    space: GenomeSpace,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
        let mut next = 10_000_000u64;
        let mut ops = 0u64;
        let mut live: Vec<ModelId> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let g = flatten(&space.materialize(&space.sample(&mut rng))).unwrap();
            let model = ModelId(next);
            next += 1;
            let _ = state.begin_add(evostore_baseline::redis_queries::BeginAddRequest {
                model,
                graph: g,
                quality: 0.5,
                weights_path: format!("/churn-{next}.h5"),
            });
            let _ = state.publish(evostore_baseline::redis_queries::ModelRef { model });
            live.push(model);
            ops += 1;
            if live.len() > 64 {
                let victim = live.remove(0);
                let _ = state.retire(evostore_baseline::redis_queries::ModelRef { model: victim });
                ops += 1;
            }
        }
        ops
    })
}

/// One baseline query as a NAS worker issues it: the LCP scan, then the
/// unpin of whatever it pinned.
fn redis_query(fabric: &Fabric, server: evostore_rpc::EndpointId, probe: &CompactGraph) {
    use evostore_baseline::redis_queries::{call, methods, ModelRef, RedisLcpRequest};
    let req = RedisLcpRequest {
        graph: probe.clone(),
    };
    let reply = call(fabric, server, methods::Query, &req).expect("redis query");
    if let Some(best) = reply.best {
        let unpin = ModelRef { model: best.model };
        call(fabric, server, methods::Unpin, &unpin).expect("unpin");
    }
}

fn main() {
    let args = Args::parse();
    let full = args.flag("full");
    let churn = args.flag("churn");
    let no_index = args.flag("no-index");
    let ab = args.flag("ab");
    let json_path: String = args.get("json", String::new());
    let catalog_size: usize = args.get("catalog", if full { 60_000 } else { 6_000 });
    let queries: usize = args.get("queries", if full { 10_000 } else { 1_000 });
    // The unindexed side of --ab re-scans the whole partition per query;
    // cap its query count separately so small hosts finish (throughput is
    // rate-based either way).
    let raw_queries: usize = args.get("raw-queries", queries);
    // Redis is orders of magnitude slower; cap its per-point query count
    // so the harness terminates (throughput is rate-based either way).
    let redis_queries: usize = args.get("redis-queries", (queries / 20).max(20));
    let workers_override: usize = args.get("workers", 0);
    let worker_counts: Vec<usize> = if workers_override > 0 {
        vec![workers_override]
    } else if full {
        vec![1, 8, 32, 64, 128, 256, 512]
    } else {
        vec![1, 8, 32, 64, 128, 256]
    };

    banner(
        "Figure 5",
        "Strong scaling of LCP query processing (queries/s, real execution)",
    );
    println!("catalog = {catalog_size} architectures; {queries} queries (Redis capped at {redis_queries}/point)");
    if ab {
        println!("A/B mode: each point runs indexed then unindexed (--no-index) on the same catalog; Redis skipped");
    } else if no_index {
        println!("architecture index DISABLED (--no-index): full-catalog scan per query");
    }
    println!(
        "note: 'measured' throughput is bound by this host's {} cores (all providers share them);\n         'projected' = workers / single-client latency, i.e. the throughput of a deployment where\n         each provider runs on its own node, as in the paper.",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    let space = GenomeSpace::attn_like();
    println!("generating catalog ...");
    let catalog = generate_catalog(&space, catalog_size, 7);
    let probes: Vec<CompactGraph> = {
        // Queries are fresh mutations of catalog members.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        generate_catalog(&space, 64, 13)
            .into_iter()
            .collect::<Vec<_>>()
            .tap_shuffle(&mut rng)
    };

    if ab {
        // Models per architecture: evolutionary searches retrain the
        // same architecture under different seeds/hyperparameters, so a
        // realistic catalog has several models per distinct graph — the
        // population signature dedup collapses.
        let dups: usize = args.get("dups", 3);
        run_ab(
            &catalog,
            &probes,
            &worker_counts,
            queries,
            raw_queries,
            dups,
            &json_path,
        );
        return;
    }

    let mut rows = Vec::new();
    for &w in &worker_counts {
        // --- EvoStore: providers scale with workers (1 per 4 GPUs). ---
        let providers = (w / 4).max(1);
        let dep = Deployment::new(evostore_core::DeploymentConfig {
            providers,
            service_threads: 2,
            backend: evostore_core::BackendKind::Memory,
            replication: evostore_core::ReplicationPolicy::default(),
            ..Default::default()
        });
        let states = dep.provider_states();
        for (i, g) in catalog.iter().enumerate() {
            let model = ModelId(i as u64);
            let p = model.provider_for(providers);
            states[p].insert_meta_only(model, g.clone(), 0.5);
        }
        dep.set_index_enabled(!no_index);
        let client = dep.client();
        // Single-client latency (distribution benefit: partitions shrink
        // as providers grow).
        let lat_evo = {
            let t0 = Instant::now();
            let n = 32.min(queries);
            for i in 0..n {
                let _ = client
                    .query_best_ancestor(&probes[i % probes.len()])
                    .expect("query succeeds");
            }
            t0.elapsed().as_secs_f64() / n as f64
        };
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churn_handle = churn.then(|| {
            evostore_churn(
                dep.provider_states(),
                space.clone(),
                std::sync::Arc::clone(&stop),
            )
        });
        let (evo_secs, done) = run_queries(w, queries, |i| {
            let probe = &probes[i % probes.len()];
            let _ = client.query_best_ancestor(probe).expect("query succeeds");
        });
        stop.store(true, Ordering::Relaxed);
        let evo_churn_ops = churn_handle.map(|h| h.join().unwrap()).unwrap_or(0);
        let evo_tput = done as f64 / evo_secs;
        let evo_projected = w as f64 / lat_evo;
        let qs = client.stats().expect("provider stats").query_stats;
        println!(
            "  index counters: candidates={} scanned={} deduped={} pruned={}",
            qs.candidates, qs.scanned, qs.deduped, qs.pruned
        );
        drop(dep);

        // --- Redis-Queries: one centralized server. ---
        let fabric = Fabric::new();
        let server = evostore_baseline::RedisServer::spawn(&fabric, 16);
        for (i, g) in catalog.iter().enumerate() {
            server
                .state
                .begin_add(evostore_baseline::redis_queries::BeginAddRequest {
                    model: ModelId(i as u64),
                    graph: g.clone(),
                    quality: 0.5,
                    weights_path: format!("/m{i}.h5"),
                })
                .expect("register");
            server
                .state
                .publish(evostore_baseline::redis_queries::ModelRef {
                    model: ModelId(i as u64),
                })
                .expect("publish");
        }
        let lat_redis = {
            let t0 = Instant::now();
            let n = 4.min(redis_queries);
            for i in 0..n {
                redis_query(&fabric, server.endpoint_id(), &probes[i % probes.len()]);
            }
            t0.elapsed().as_secs_f64() / n as f64
        };
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churn_handle = churn.then(|| {
            redis_churn(
                std::sync::Arc::clone(&server.state),
                space.clone(),
                std::sync::Arc::clone(&stop),
            )
        });
        let (redis_secs, rdone) = run_queries(w, redis_queries, |i| {
            redis_query(&fabric, server.endpoint_id(), &probes[i % probes.len()]);
        });
        let redis_tput = rdone as f64 / redis_secs;

        stop.store(true, Ordering::Relaxed);
        let redis_churn_ops = churn_handle.map(|h| h.join().unwrap()).unwrap_or(0);
        if churn {
            println!(
                "  (churn: {evo_churn_ops} evostore add/retire ops, {redis_churn_ops} redis ops during measurement)"
            );
        }
        // The centralized server is saturated by its own service pool;
        // adding client nodes cannot raise it beyond the measured value.
        let redis_projected = redis_tput.max(1.0 / lat_redis);

        rows.push(vec![
            w.to_string(),
            providers.to_string(),
            f1(evo_tput),
            f1(evo_projected),
            f1(redis_tput),
            f1(redis_projected),
            format!("{:.0}x", evo_projected / redis_projected),
        ]);
        println!(
            "  workers {w}: evostore {:.1} q/s measured / {:.1} projected (lat {:.2} ms), redis {:.1} q/s (lat {:.1} ms)",
            evo_tput, evo_projected, lat_evo * 1e3, redis_tput, lat_redis * 1e3
        );
    }

    println!();
    print_table(
        &[
            "workers",
            "providers",
            "EvoStore q/s",
            "EvoStore proj q/s",
            "Redis q/s",
            "Redis proj q/s",
            "proj speedup",
        ],
        &rows,
    );
}

/// A/B ablation: each worker point loads the same catalog into one
/// deployment, then measures query throughput with the architecture
/// index enabled and again with it disabled (full-catalog scan). Redis
/// is skipped. Optionally writes the rows plus the index counters
/// (scanned vs pruned, dedup savings) to `--json PATH`.
fn run_ab(
    catalog: &[CompactGraph],
    probes: &[CompactGraph],
    worker_counts: &[usize],
    queries: usize,
    raw_queries: usize,
    dups: usize,
    json_path: &str,
) {
    let dups = dups.max(1);
    println!(
        "A/B catalog: {} architectures x {dups} models each = {} models",
        catalog.len(),
        catalog.len() * dups
    );
    // Mix exact catalog members into the probe stream: a re-query of a
    // stored architecture yields a full-length best LCP, which no other
    // bucket's cone bound can reach, so the walk stops after one `lcp()`.
    // Fresh mutations have shorter LCPs and leave more buckets in reach.
    let probes: Vec<CompactGraph> = {
        let mut v = probes.to_vec();
        v.extend(catalog.iter().step_by((catalog.len() / 64).max(1)).cloned());
        v
    };

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &w in worker_counts {
        let providers = (w / 4).max(1);
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
            for d in 1..dups {
                // Duplicate models of an architecture land on the same
                // provider (a retrained model is stored near its parent),
                // so per-provider signature dedup applies.
                while ModelId(next).provider_for(providers) != placement {
                    next += 1;
                }
                let m = ModelId(next);
                next += 1;
                states[placement].insert_meta_only(m, g.clone(), 0.5 + d as f64 * 0.01);
            }
        }
        let client = dep.client();

        // Indexed pass (the default configuration). Counters are read as
        // a delta around the pass so only its own work is attributed.
        dep.set_index_enabled(true);
        let before = client.stats().expect("provider stats").query_stats;
        let (idx_secs, idone) = run_queries(w, queries, |i| {
            let probe = &probes[i % probes.len()];
            let _ = client.query_best_ancestor(probe).expect("query succeeds");
        });
        let stats = client.stats().expect("provider stats");
        let after = stats.query_stats;
        let idx_qps = idone as f64 / idx_secs;
        let (scanned, deduped, pruned) = (
            after.scanned - before.scanned,
            after.deduped - before.deduped,
            after.pruned - before.pruned,
        );

        // Unindexed pass: identical catalog and probe stream, full scan.
        dep.set_index_enabled(false);
        let (raw_secs, rdone) = run_queries(w, raw_queries, |i| {
            let probe = &probes[i % probes.len()];
            let _ = client.query_best_ancestor(probe).expect("query succeeds");
        });
        let raw_qps = rdone as f64 / raw_secs;
        let speedup = idx_qps / raw_qps;

        println!(
            "  workers {w}: indexed {idx_qps:.1} q/s vs unindexed {raw_qps:.1} q/s ({speedup:.1}x); \
             scanned={scanned} deduped={deduped} pruned={pruned}"
        );
        rows.push(vec![
            w.to_string(),
            providers.to_string(),
            f1(idx_qps),
            f1(raw_qps),
            format!("{speedup:.1}x"),
            scanned.to_string(),
            pruned.to_string(),
        ]);
        points.push(format!(
            "    {{\"workers\": {w}, \"providers\": {providers}, \"indexed_qps\": {idx_qps:.1}, \
             \"unindexed_qps\": {raw_qps:.1}, \"speedup\": {speedup:.2}, \"scanned\": {scanned}, \
             \"pruned\": {pruned}, \"deduped\": {deduped}, \
             \"distinct_archs\": {}}}",
            stats.distinct_archs
        ));
    }

    println!();
    print_table(
        &[
            "workers",
            "providers",
            "indexed q/s",
            "unindexed q/s",
            "speedup",
            "scanned",
            "pruned",
        ],
        &rows,
    );

    if !json_path.is_empty() {
        let json = format!(
            "{{\n  \"figure\": \"fig5_lcp_ab\",\n  \"architectures\": {},\n  \
             \"models_per_arch\": {dups},\n  \"models\": {},\n  \"queries\": {queries},\n  \
             \"raw_queries\": {raw_queries},\n  \"points\": [\n{}\n  ]\n}}\n",
            catalog.len(),
            catalog.len() * dups,
            points.join(",\n")
        );
        if let Some(parent) = std::path::Path::new(json_path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(json_path, json).expect("write --json output");
        println!("wrote {json_path}");
    }
}

/// Tiny shuffle helper (keeps the binary dependency-light).
trait TapShuffle {
    fn tap_shuffle(self, rng: &mut ChaCha8Rng) -> Self;
}

impl<T> TapShuffle for Vec<T> {
    fn tap_shuffle(mut self, rng: &mut ChaCha8Rng) -> Self {
        use rand::Rng;
        for i in (1..self.len()).rev() {
            let j = rng.random_range(0..=i);
            self.swap(i, j);
        }
        self
    }
}
