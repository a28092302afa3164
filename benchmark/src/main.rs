//! Command line of the benchmark.
//!
//! ```text
//! evostore-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! evostore-benchmark suite [--seed N] [--workload NAME] [--quick]       untraced + traced, recorded
//! evostore-benchmark stability [--runs N] [--vary-seed] [--seed N]      spread of every end-to-end metric
//! ```
//!
//! `benchmark/run.sh` and `benchmark/stability.sh` build this binary and
//! pass `--bench-dir`.

#![deny(deprecated)]

use std::path::PathBuf;
use std::process::ExitCode;

use evostore_benchmark::suite::{run_cfg, single, stability, suite, SuiteArgs};

const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    command: Option<String>,
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

const FLAGS: &[&str] = &["quick", "vary-seed"];

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            command: None,
            values: Vec::new(),
            flags: Vec::new(),
        };
        let mut argv = std::env::args().skip(1);
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                Some(name) if FLAGS.contains(&name) => args.flags.push(name.to_string()),
                Some(name) => {
                    let value = argv
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.values.push((name.to_string(), value));
                }
                None if args.command.is_none() => args.command = Some(arg),
                None => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.iter().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn text(&self, name: &str) -> Option<String> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn run() -> Result<bool, String> {
    let args = Args::parse()?;
    let bench_dir = PathBuf::from(args.text("bench-dir").unwrap_or_else(|| "benchmark".into()));
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected 0 < seconds <= 60"));
    }
    let quick = args.flag("quick");
    let suite_args = || SuiteArgs {
        bench_dir: bench_dir.clone(),
        seed,
        seconds,
        quick,
        workload: args.text("workload"),
    };
    match args.command.as_deref() {
        None => {
            let workload = args.text("workload").ok_or("--workload is required")?;
            let trace = match args.get::<u8>("trace", 0)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            };
            single(&workload, &run_cfg(bench_dir, seed, seconds, trace, quick))
        }
        Some("suite") => suite(&suite_args()).map(|()| true),
        Some("stability") => stability(&suite_args(), args.get("runs", 2)?, args.flag("vary-seed")),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("evostore-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
