//! One run of one workload, and the commands built on it: the full suite
//! (every workload untraced, then traced, each in a process of its own)
//! and the stability check.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::harness::{Limit, RunCfg};
use crate::json::Json;
use crate::metrics::{end_to_end, per_layer, print_metrics, result_line, Metric, END_TO_END};
use crate::stats::relative_spread;
use crate::workloads::{self, WORKLOADS};

/// What one run reports beside its metrics: the op-trace digest and the
/// exact counters that must repeat for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Detail {
    pub digest: u64,
    pub cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    pub store_bytes: u64,
    pub load_bytes: u64,
    pub delta_stored: u64,
    pub chunks: u64,
    pub stored_bytes_per_user_byte: f64,
    pub cycles_per_s: f64,
}

/// Run one workload in this process. Returns its metrics (end-to-end for
/// an untraced run, per-layer for a traced one) and its detail.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Result<(Vec<Metric>, Detail), String> {
    let out = workloads::run(name, cfg)?;
    let e2e = end_to_end(&out);
    let value = |n: &str| e2e.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
    let detail = Detail {
        digest: out.rec.digest,
        cycles: out.rec.cycles,
        attempted: out.rec.attempted,
        failed: out.rec.failed,
        store_bytes: out.rec.store_bytes,
        load_bytes: out.rec.load_bytes,
        delta_stored: out.readouts.after.delta_stored,
        chunks: out.readouts.after.chunks,
        stored_bytes_per_user_byte: value("stored_bytes_per_user_byte"),
        cycles_per_s: value("cycles_per_s"),
    };
    let metrics = if cfg.trace {
        let path = cfg.out_dir().join(format!("trace-{name}.jsonl"));
        out.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        per_layer(&out)
    } else {
        e2e
    };
    Ok((metrics, detail))
}

fn detail_json(name: &str, d: &Detail) -> Json {
    Json::obj([
        ("workload", Json::str(name)),
        ("digest", Json::str(format!("{:016x}", d.digest))),
        ("cycles", Json::Num(d.cycles as f64)),
        ("ops_attempted", Json::Num(d.attempted as f64)),
        ("ops_failed", Json::Num(d.failed as f64)),
        ("store_bytes", Json::Num(d.store_bytes as f64)),
        ("load_bytes", Json::Num(d.load_bytes as f64)),
        ("delta_stored", Json::Num(d.delta_stored as f64)),
        ("chunks", Json::Num(d.chunks as f64)),
        (
            "stored_bytes_per_user_byte",
            Json::Num(d.stored_bytes_per_user_byte),
        ),
        ("cycles_per_s", Json::Num(d.cycles_per_s)),
    ])
}

/// The driver's entry: run, print every metric by name, then the detail
/// line and — last — the result line. `Ok(false)` when an op failed.
pub fn single(name: &str, cfg: &RunCfg) -> Result<bool, String> {
    let (metrics, detail) = run_workload(name, cfg)?;
    print_metrics(&metrics);
    println!("#detail {}", detail_json(name, &detail).render());
    println!("{}", result_line(detail.attempted, detail.failed, &metrics));
    Ok(detail.failed == 0)
}

pub struct SuiteArgs {
    pub bench_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// `None` runs all four.
    pub workload: Option<String>,
}

struct ChildRun {
    metrics: Json,
    detail: Json,
}

/// One run in a child process: a workload's peak RSS and allocator state
/// must not depend on what ran before it.
fn child(args: &SuiteArgs, workload: &str, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--bench-dir")
        .arg(&args.bench_dir)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or_else(|| format!("{workload}: no detail line"))
        .and_then(Json::parse)?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) failed: {last}"
        ));
    }
    Ok(ChildRun {
        metrics: result.get("metrics").cloned().unwrap_or(Json::Null),
        detail,
    })
}

fn selected(args: &SuiteArgs) -> Result<Vec<&'static str>, String> {
    let all = WORKLOADS.iter().map(|w| w.0);
    match &args.workload {
        None => Ok(all.collect()),
        Some(name) => {
            let found: Vec<_> = all.filter(|w| w == name).collect();
            if found.is_empty() {
                return Err(format!("unknown workload {name:?}"));
            }
            Ok(found)
        }
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn host_descriptor(args: &SuiteArgs) -> Json {
    let dir = args.bench_dir.to_string_lossy().into_owned();
    Json::obj([
        ("host", Json::str(hostname())),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "commit",
            Json::str(command_output(
                "git",
                &["-C", &dir, "rev-parse", "--short", "HEAD"],
            )),
        ),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("run_seconds", Json::Num(args.seconds)),
        // Quick numbers are for smoke use and never compared.
        ("mode", Json::str(if args.quick { "quick" } else { "full" })),
    ])
}

fn unix_time() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs() as f64)
}

/// Flatten `{"name": {"value": v, "unit": u}}` to `{"name": v}`.
fn values_only(metrics: &Json) -> Json {
    Json::Obj(
        metrics
            .fields()
            .iter()
            .map(|(k, m)| (k.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

/// Run every selected workload untraced, then traced; print each metric,
/// write `out/latest.json` and append one line to `results/history.jsonl`.
pub fn suite(args: &SuiteArgs) -> Result<(), String> {
    let mut per_workload = Vec::new();
    let mut history = Vec::new();
    for name in selected(args)? {
        let untraced = child(args, name, args.seed, false)?;
        let traced = child(args, name, args.seed, true)?;
        println!("== {name} ({})", if args.quick { "quick" } else { "full" });
        for run in [&untraced, &traced] {
            for (metric, m) in run.metrics.fields() {
                println!(
                    "{metric} {} {}",
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                    m.get("value").and_then(Json::num).unwrap_or(0.0)
                );
            }
        }
        let rate = |r: &ChildRun| {
            r.detail
                .get("cycles_per_s")
                .and_then(Json::num)
                .unwrap_or(0.0)
        };
        // How much slower the workload cycles with spans and replays on.
        let slowdown = if rate(&traced) > 0.0 {
            rate(&untraced) / rate(&traced)
        } else {
            0.0
        };
        println!("obs.untraced_over_traced_cycles ratio {slowdown}");
        history.push((name.to_string(), values_only(&untraced.metrics)));
        per_workload.push((
            name.to_string(),
            Json::obj([
                ("end_to_end", untraced.metrics),
                ("per_layer", traced.metrics),
                ("detail", untraced.detail),
                ("traced_detail", traced.detail),
                ("untraced_over_traced_cycles", Json::Num(slowdown)),
            ]),
        ));
    }
    let host = host_descriptor(args);
    let latest = Json::obj([
        ("schema", Json::str("evostore-benchmark/1")),
        ("host", host.clone()),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let out = args.bench_dir.join("out");
    write(&out.join("latest.json"), &(latest.render() + "\n"))?;

    let line = Json::obj([
        ("time", Json::Num(unix_time())),
        ("host", host),
        ("end_to_end", Json::Obj(history)),
    ]);
    let results = args.bench_dir.join("results");
    let path = results.join("history.jsonl");
    let mut all = std::fs::read_to_string(&path).unwrap_or_default();
    all.push_str(&line.render());
    all.push('\n');
    write(&path, &all)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// The bound `BENCHMARK.json` (beside the benchmark's directory) fixes for
/// each end-to-end metric.
fn bounds(bench_dir: &Path) -> Result<Vec<(String, f64)>, String> {
    let path = bench_dir.join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = Json::parse(&text)?;
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.num()?)))
        .collect())
}

/// Run the untraced set `runs` times — with one seed, or with `runs`
/// consecutive seeds — and compare every end-to-end metric's spread with
/// its bound. Writes `results/stability.json`; `Ok(false)` when a spread
/// exceeds its bound or an exact count differs between same-seed runs.
pub fn stability(args: &SuiteArgs, runs: usize, vary_seed: bool) -> Result<bool, String> {
    let bounds = bounds(&args.bench_dir)?;
    let mut ok = true;
    let mut report = Vec::new();
    for name in selected(args)? {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut digests = Vec::new();
        for run in 0..runs {
            let seed = args.seed + if vary_seed { run as u64 } else { 0 };
            let r = child(args, name, seed, false)?;
            for (slot, (metric, _, _)) in values.iter_mut().zip(END_TO_END) {
                let v = r
                    .metrics
                    .get(metric)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num);
                slot.push(v.ok_or_else(|| format!("{name}: {metric} missing"))?);
            }
            digests.push(
                r.detail
                    .get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            );
        }
        // A fixed-size run of one seed must replay the same op trace.
        if args.quick && !vary_seed && digests.iter().any(|d| d != &digests[0]) {
            println!("{name}: op-trace digest differs between runs of one seed: {digests:?}");
            ok = false;
        }
        let mut fields = Vec::new();
        for ((metric, _, _), v) in END_TO_END.iter().zip(&values) {
            let spread = relative_spread(v);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))?;
            // The driver judges set-up time by its median alone.
            let within = spread <= bound || *metric == "setup_s";
            ok &= within;
            println!(
                "{name} {metric} spread {spread:.4} bound {bound} {}",
                if within { "ok" } else { "EXCEEDED" }
            );
            fields.push((
                metric.to_string(),
                Json::obj([
                    (
                        "values",
                        Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                    ),
                    ("spread", Json::Num(spread)),
                    ("bound", Json::Num(bound)),
                    ("within_bound", Json::Bool(within)),
                ]),
            ));
        }
        report.push((name.to_string(), Json::Obj(fields)));
    }
    let doc = Json::obj([
        ("schema", Json::str("evostore-benchmark-stability/1")),
        ("host", host_descriptor(args)),
        ("runs", Json::Num(runs as f64)),
        ("vary_seed", Json::Bool(vary_seed)),
        (
            "spread",
            Json::str("inter-quartile distance over the median with 4 or more runs, largest deviation from the median over the median with fewer"),
        ),
        ("workloads", Json::Obj(report)),
        ("all_within_bounds", Json::Bool(ok)),
    ]);
    let results = args.bench_dir.join("results");
    write(&results.join("stability.json"), &(doc.render() + "\n"))?;
    Ok(ok)
}

/// The run configuration the command line describes.
pub fn run_cfg(bench_dir: PathBuf, seed: u64, seconds: f64, trace: bool, quick: bool) -> RunCfg {
    RunCfg {
        seed,
        limit: if quick {
            Limit::Quick
        } else {
            Limit::Seconds(seconds)
        },
        trace,
        bench_dir,
        corrupt_oracle: false,
    }
}
