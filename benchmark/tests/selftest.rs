//! Self-tests of the benchmark: the op trace and the exact counters of a
//! fixed-size run depend on the seed alone, the in-run oracle really
//! fails a run, and the metric names agree with `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use evostore_benchmark::harness::{Limit, RunCfg};
use evostore_benchmark::json::Json;
use evostore_benchmark::metrics::{END_TO_END, PER_LAYER};
use evostore_benchmark::suite::{run_workload, Detail};
use evostore_benchmark::workloads::WORKLOADS;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn quick(seed: u64) -> RunCfg {
    RunCfg {
        seed,
        limit: Limit::Quick,
        trace: false,
        bench_dir: bench_dir(),
        corrupt_oracle: false,
    }
}

fn detail(workload: &str, cfg: &RunCfg) -> Detail {
    run_workload(workload, cfg).expect("workload runs").1
}

/// Same seed: identical digest and identical exact counters. Other seed:
/// another digest. (`cycles_per_s` is a timing and excluded.)
fn seed_decides_the_trace(workload: &str) {
    let exact = |d: Detail| Detail {
        cycles_per_s: 0.0,
        ..d
    };
    let a = exact(detail(workload, &quick(1)));
    let b = exact(detail(workload, &quick(1)));
    let c = exact(detail(workload, &quick(2)));
    assert_eq!(a.failed, 0, "{workload}: ops failed");
    assert!(a.attempted > 0 && a.cycles > 0);
    assert_eq!(a, b, "{workload}: same seed, different run");
    assert_ne!(
        a.digest, c.digest,
        "{workload}: the seed does not reach the op trace"
    );
}

#[test]
fn nas_evolve_trace_depends_on_the_seed_alone() {
    seed_decides_the_trace("nas_evolve");
}

#[test]
fn bulk_checkpoint_trace_depends_on_the_seed_alone() {
    seed_decides_the_trace("bulk_checkpoint");
}

#[test]
fn catalog_churn_trace_depends_on_the_seed_alone() {
    seed_decides_the_trace("catalog_churn");
}

#[test]
fn replicated_finetune_trace_depends_on_the_seed_alone() {
    seed_decides_the_trace("replicated_finetune");
}

#[test]
fn a_wrong_expected_hash_fails_the_run() {
    let cfg = RunCfg {
        corrupt_oracle: true,
        ..quick(1)
    };
    let d = detail("bulk_checkpoint", &cfg);
    assert!(d.failed > 0, "a falsified fingerprint went unnoticed");
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names_in(spec: &Json, list: &str) -> BTreeSet<String> {
    let Some(Json::Arr(items)) = spec.get(list) else {
        panic!("BENCHMARK.json has no {list}");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn spec() -> Json {
    let path = bench_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("JSON")
}

#[test]
fn names_are_well_formed_and_match_benchmark_json() {
    let spec = spec();
    let table = |defs: &[(&str, &str, &str)]| -> BTreeSet<String> {
        defs.iter().map(|d| d.0.to_string()).collect()
    };
    let workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
    for name in table(END_TO_END)
        .iter()
        .chain(&table(PER_LAYER))
        .chain(&workloads)
    {
        assert!(well_formed(name), "{name:?} is not a valid name");
    }
    assert_eq!(names_in(&spec, "end_to_end"), table(END_TO_END));
    assert_eq!(names_in(&spec, "per_layer"), table(PER_LAYER));
    assert_eq!(names_in(&spec, "workloads"), workloads);
    // No name is used twice.
    assert_eq!(
        END_TO_END.len() + PER_LAYER.len(),
        table(END_TO_END).union(&table(PER_LAYER)).count()
    );
}

#[test]
fn benchmark_json_keeps_to_its_contract() {
    let spec = spec();
    let keys: Vec<&str> = spec.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let Some(Json::Arr(e2e)) = spec.get("end_to_end") else {
        panic!("no end_to_end")
    };
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        let bound = m.get("bound").and_then(Json::num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    assert!((1..=128).contains(&names_in(&spec, "per_layer").len()));
    assert!((2..=8).contains(&names_in(&spec, "workloads").len()));
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::num)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn a_run_emits_exactly_the_listed_metrics() {
    let emitted = |trace: bool| -> BTreeSet<String> {
        let cfg = RunCfg { trace, ..quick(1) };
        let (metrics, _) = run_workload("replicated_finetune", &cfg).expect("workload runs");
        assert!(metrics.iter().all(|m| m.value.is_finite()));
        metrics.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(
        emitted(false),
        END_TO_END.iter().map(|d| d.0.to_string()).collect()
    );
    assert_eq!(
        emitted(true),
        PER_LAYER.iter().map(|d| d.0.to_string()).collect()
    );
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "out" && name != "target" {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The benchmark drives the system through its non-deprecated public API
/// and stays away from the levers that are due to be deleted.
#[test]
fn no_deprecated_lever_is_named_anywhere() {
    // Spelled in pieces so this file passes its own check.
    let banned = [
        ["force", "_copy"].concat(),
        ["EvoStoreClient", "::new("].concat(),
        ["set_negotiated", "_transfer"].concat(),
        ["chunk", "_exchange"].concat(),
        ["insert_meta", "_only"].concat(),
        ["methods", "::"].concat(),
    ];
    let mut files = Vec::new();
    files_under(&bench_dir(), &mut files);
    assert!(files.len() > 10, "walked {} files", files.len());
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        for word in &banned {
            assert!(
                !text.contains(word.as_str()),
                "{} names {word}",
                file.display()
            );
        }
    }
}
