//! What every workload shares: run configuration, per-thread recording of
//! timed client calls, the in-run oracle, and the temp-dir guard.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use evostore_core::{EvoError, EvoStoreClient};
use evostore_tensor::{TensorData, TensorKey};

use crate::gen::{fast_hash, fingerprint};
use crate::probe::Probes;
use crate::stats::Samples;
use crate::trace::{Class, OpRef, Tracer};

/// How long the measured phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Until this many seconds have passed (the driver's `--seconds`).
    Seconds(f64),
    /// A fixed, small number of cycles (about a twentieth of a full run):
    /// smoke runs and the self-tests, whose op trace must repeat exactly.
    Quick,
}

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub limit: Limit,
    pub trace: bool,
    /// The benchmark's own directory; traces, results and temp dirs go
    /// under it.
    pub bench_dir: PathBuf,
    /// Self-test hook: falsify one expected fingerprint, so the run must
    /// report a failed op.
    pub corrupt_oracle: bool,
}

impl RunCfg {
    pub fn quick(&self) -> bool {
        self.limit == Limit::Quick
    }

    /// `full` in a full run, about a twentieth of it in a quick one.
    pub fn scaled(&self, full: usize, quick: usize) -> usize {
        if self.quick() {
            quick
        } else {
            full
        }
    }

    /// When the measured phase that starts now has to stop.
    pub fn stop_rule(&self, quick_cycles: u64) -> StopRule {
        match self.limit {
            Limit::Seconds(s) => StopRule {
                deadline: Some(Instant::now() + Duration::from_secs_f64(s)),
                max_cycles: u64::MAX,
            },
            Limit::Quick => StopRule {
                deadline: None,
                max_cycles: quick_cycles,
            },
        }
    }

    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }
}

#[derive(Debug, Clone, Copy)]
pub struct StopRule {
    deadline: Option<Instant>,
    max_cycles: u64,
}

impl StopRule {
    pub fn done(&self, cycles: u64) -> bool {
        cycles >= self.max_cycles || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Expected fingerprint of every tensor the generator stored.
#[derive(Debug, Default)]
pub struct Oracle {
    expected: HashMap<TensorKey, u64>,
    corrupt_next: bool,
}

impl Oracle {
    pub fn new(corrupt: bool) -> Oracle {
        Oracle {
            expected: HashMap::new(),
            corrupt_next: corrupt,
        }
    }

    /// Remember what is about to be stored. Returns a fingerprint of the
    /// whole set (independent of the map's iteration order).
    pub fn expect(&mut self, tensors: &HashMap<TensorKey, TensorData>) -> u64 {
        let mut all = 0u64;
        for (key, t) in tensors {
            let mut fp = fingerprint(t);
            all = all.wrapping_add(fp ^ fast_hash(&key.encode()));
            if std::mem::take(&mut self.corrupt_next) {
                fp ^= 1;
            }
            self.expected.insert(*key, fp);
        }
        all
    }

    /// Compare returned tensors with what was stored under their keys;
    /// `want` is how many tensors the call had to return.
    pub fn check(
        &self,
        got: &HashMap<TensorKey, TensorData>,
        want: Option<usize>,
    ) -> Result<(), String> {
        if let Some(n) = want {
            if got.len() != n {
                return Err(format!("{} tensors returned, {n} expected", got.len()));
            }
        }
        for (key, t) in got {
            match self.expected.get(key) {
                None => return Err(format!("tensor {key} was never stored")),
                Some(&fp) if fp != fingerprint(t) => {
                    return Err(format!("tensor {key} differs from what was stored"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// Exact tallies of one thread's measured phase.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    pub samples: BTreeMap<Class, Samples>,
    /// User tensor bytes accepted by `store_model`, and each store's
    /// bytes per second.
    pub store_bytes: u64,
    pub store_rates: Samples,
    /// Tensor bytes returned by `load_model` / `fetch_prefix`, and each
    /// load's bytes per second.
    pub load_bytes: u64,
    pub load_rates: Samples,
    /// Graphs and patterns answered (single and batched).
    pub answers: u64,
    /// Query-path time of each round of queries (one cycle's worth), and
    /// how many answers a round returns.
    pub query_rounds: Samples,
    pub answers_per_round: u64,
    /// Completed workload cycles.
    pub cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Generator and verification time inside the measured phase.
    pub loadgen: Duration,
    /// Wall time of the measured phase, summed over threads, and the sum
    /// of each thread's `cycles / wall`.
    pub wall_sum: Duration,
    pub cycle_rate: f64,
    /// Rolling digest of the op trace (op, model, bytes).
    pub digest: u64,
    /// Bytes held by all providers and bytes of all live models if each
    /// were stored whole once, summed over the sampling points.
    pub stored_bytes_sum: u128,
    pub live_user_bytes_sum: u128,
    pub space_samples: u64,
    /// Graphs sent in batched query envelopes.
    pub batch_graphs: u64,
    /// Sampled client calls, the RPCs they issued, and the retries and
    /// timeouts among those.
    pub ops: u64,
    pub rpc_calls: u64,
    pub rpc_retries: u64,
    pub rpc_timeouts: u64,
}

impl Recorder {
    pub fn merge(&mut self, other: &Recorder) {
        for (class, s) in &other.samples {
            self.samples.entry(*class).or_default().merge(s);
        }
        self.store_bytes += other.store_bytes;
        self.store_rates.merge(&other.store_rates);
        self.load_bytes += other.load_bytes;
        self.load_rates.merge(&other.load_rates);
        self.answers += other.answers;
        self.query_rounds.merge(&other.query_rounds);
        self.answers_per_round = self.answers_per_round.max(other.answers_per_round);
        self.cycles += other.cycles;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.loadgen += other.loadgen;
        self.wall_sum += other.wall_sum;
        self.cycle_rate += other.cycle_rate;
        // Threads run disjoint op streams; the combined digest must not
        // depend on which finished first.
        self.digest = self.digest.wrapping_add(other.digest);
        self.stored_bytes_sum += other.stored_bytes_sum;
        self.live_user_bytes_sum += other.live_user_bytes_sum;
        self.space_samples += other.space_samples;
        self.batch_graphs += other.batch_graphs;
        self.ops += other.ops;
        self.rpc_calls += other.rpc_calls;
        self.rpc_retries += other.rpc_retries;
        self.rpc_timeouts += other.rpc_timeouts;
    }

    pub fn add_space_sample(&mut self, stored: u64, live: u64) {
        self.stored_bytes_sum += stored as u128;
        self.live_user_bytes_sum += live as u128;
        self.space_samples += 1;
    }

    /// Close a thread's measured phase that took `wall`.
    pub fn finish(&mut self, wall: Duration) {
        self.wall_sum = wall;
        self.cycle_rate = self.cycles as f64 / wall.as_secs_f64();
    }

    pub fn samples(&self, class: Class) -> Samples {
        self.samples.get(&class).cloned().unwrap_or_default()
    }
}

/// What a successful [`Ctx::timed`] call returns.
pub struct Timed<T> {
    pub value: T,
    /// How long the call took.
    pub elapsed: Duration,
    /// The op to replay, on a traced run's every eighth op of a class.
    pub op: Option<OpRef>,
    /// RPCs the client issued for this call.
    pub rpc_calls: u64,
}

/// One load-generating thread's state.
pub struct Ctx {
    pub rec: Recorder,
    pub tracer: Tracer,
    pub oracle: Oracle,
    pub probes: Option<Probes>,
    /// Set once warm-up is over: only then are calls sampled and traced.
    pub measuring: bool,
    failures_logged: u32,
    /// Query-path time since the last [`Ctx::end_query_round`].
    round: Duration,
}

impl Ctx {
    pub fn new(cfg: &RunCfg, epoch: Instant, thread: u32, probes: Option<Probes>) -> Ctx {
        Ctx {
            rec: Recorder::default(),
            tracer: Tracer::new(cfg.trace, epoch, thread),
            oracle: Oracle::new(cfg.corrupt_oracle && thread == 0),
            probes,
            measuring: false,
            failures_logged: 0,
            round: Duration::ZERO,
        }
    }

    /// Warm-up is over: forget what it tallied (its ops stay attempted,
    /// its failures failed, its trace digested) and start sampling.
    pub fn start_measuring(&mut self) {
        self.rec = Recorder {
            attempted: self.rec.attempted,
            failed: self.rec.failed,
            digest: self.rec.digest,
            ..Recorder::default()
        };
        self.measuring = true;
    }

    /// A failed op: counted, and the first few are explained on stderr.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.rec.failed += 1;
        if self.failures_logged < 8 {
            self.failures_logged += 1;
            eprintln!("FAILED OP: {what}");
        }
    }

    /// Count a correctness check as an attempted op and record its verdict.
    pub fn verify(&mut self, verdict: Result<(), String>) {
        self.rec.attempted += 1;
        if let Err(e) = verdict {
            self.fail(e);
        }
    }

    /// Run one client call under the clock. The call is an attempted op;
    /// an `Err` is a failed one and yields `None`. During the measured
    /// phase the latency is sampled and, in a traced run, a root span is
    /// recorded — [`Timed::op`] is `Some` when this op is to be replayed
    /// layer by layer.
    pub fn timed<T>(
        &mut self,
        class: Class,
        client: &EvoStoreClient,
        f: impl FnOnce(&EvoStoreClient) -> Result<T, EvoError>,
    ) -> Option<Timed<T>> {
        self.rec.attempted += 1;
        let rpc = &client.telemetry().rpc;
        let before = (rpc.calls(), rpc.retries(), rpc.timeouts());
        let start = Instant::now();
        let out = f(client);
        let end = Instant::now();
        let rpc_calls = rpc.calls() - before.0;
        match out {
            Err(e) => {
                self.fail(format!("{}: {e}", class.name()));
                None
            }
            Ok(value) => {
                let mut op = None;
                if self.measuring {
                    self.rec
                        .samples
                        .entry(class)
                        .or_default()
                        .push(end.duration_since(start));
                    if matches!(class, Class::Query | Class::QueryBatch | Class::Pattern) {
                        self.round += end.duration_since(start);
                    }
                    self.rec.ops += 1;
                    self.rec.rpc_calls += rpc_calls;
                    self.rec.rpc_retries += rpc.retries() - before.1;
                    self.rec.rpc_timeouts += rpc.timeouts() - before.2;
                    op = self.tracer.root(class, start, end);
                }
                Some(Timed {
                    value,
                    elapsed: end.duration_since(start),
                    op,
                    rpc_calls,
                })
            }
        }
    }

    /// Close one cycle's round of queries, which returned `answers`
    /// graphs and patterns: `queries_per_s` is answers per round over the
    /// median round time, so one stalled query cannot move it.
    pub fn end_query_round(&mut self, answers: u64) {
        let round = std::mem::take(&mut self.round);
        if self.measuring {
            self.rec.answers += answers;
            self.rec.answers_per_round = answers;
            self.rec.query_rounds.push(round);
        }
    }

    /// A store accepted, or a load returned, `bytes` of tensors in
    /// `elapsed`.
    pub fn moved(&mut self, class: Class, bytes: u64, elapsed: Duration) {
        self.tally(|r| {
            let (total, rates) = match class {
                Class::Store => (&mut r.store_bytes, &mut r.store_rates),
                _ => (&mut r.load_bytes, &mut r.load_rates),
            };
            *total += bytes;
            rates.push_rate(bytes, elapsed);
        });
    }

    /// Add to the measured phase's tallies; warm-up and the phases after
    /// the clock stopped leave them alone.
    pub fn tally(&mut self, f: impl FnOnce(&mut Recorder)) {
        if self.measuring {
            f(&mut self.rec);
        }
    }

    /// Generator or verification work: outside every op timer, charged to
    /// `bench.loadgen_share` while measuring.
    pub fn loadgen<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        if self.measuring {
            self.rec.loadgen += start.elapsed();
        }
        out
    }

    /// Replay work of a traced run: outside the system, charged to
    /// `obs.trace_overhead_ratio`.
    pub fn replay(&mut self, op: Option<OpRef>, f: impl FnOnce(&mut Probes, &mut Tracer, OpRef)) {
        let (Some(op), Some(probes)) = (op, self.probes.as_mut()) else {
            return;
        };
        let start = Instant::now();
        f(probes, &mut self.tracer, op);
        self.tracer.overhead += start.elapsed();
    }

    /// Register generated tensors with the oracle and fold their bytes
    /// into the op-trace digest.
    pub fn expect(&mut self, tensors: &HashMap<TensorKey, TensorData>) {
        let fp = self.oracle.expect(tensors);
        self.note(b'g', fp, tensors.len() as u64);
    }

    /// Fold one op into the op-trace digest.
    pub fn note(&mut self, op: u8, model: u64, bytes: u64) {
        let mut h = self.rec.digest ^ (op as u64) << 56 ^ model.rotate_left(17) ^ bytes;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27);
        self.rec.digest = h ^ (h >> 31);
    }

    /// Sample storage use: `stored` bytes on all providers against `live`
    /// bytes of the live models stored whole once.
    pub fn sample_space(&mut self, stored: u64, live: u64) {
        self.tally(|r| r.add_space_sample(stored, live));
    }
}

/// Sum of `tensor_bytes + metadata_bytes` over all providers.
pub fn stored_bytes(dep: &evostore_core::Deployment) -> u64 {
    dep.stats()
        .iter()
        .map(|s| s.tensor_bytes + s.metadata_bytes)
        .sum()
}

pub fn tensor_bytes(tensors: &HashMap<TensorKey, TensorData>) -> u64 {
    tensors.values().map(|t| t.byte_len() as u64).sum()
}

/// `get_meta` of a retired model has to fail for good: a record, or an
/// error a retry could clear, is a violation.
pub fn check_retired(
    client: &EvoStoreClient,
    model: evostore_tensor::ModelId,
) -> Result<(), String> {
    match client.get_meta(model) {
        Ok(_) => Err(format!("retired model {model} still has a record")),
        Err(e) if e.is_transient() => Err(format!("retired model {model}: transient error {e}")),
        Err(_) => Ok(()),
    }
}

/// A directory under the benchmark's `out/` that is removed when the
/// guard drops — on success and on panic alike.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn create(cfg: &RunCfg, label: &str) -> TempDir {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = cfg
            .out_dir()
            .join(format!("tmp-{}-{label}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir under the benchmark's out/");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of all regular files below the directory.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Errors are ignored: Drop must not panic, and a leftover
        // directory under out/ is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fill_tensor, SplitMix64};
    use evostore_graph::TensorSpec;
    use evostore_tensor::{DType, ModelId, VertexId};

    fn one_tensor(seed: u64) -> HashMap<TensorKey, TensorData> {
        let spec = TensorSpec {
            slot: 0,
            shape: vec![64],
            dtype: DType::F32,
        };
        let key = TensorKey::new(ModelId(1), VertexId(1), 0);
        HashMap::from([(key, fill_tensor(&spec, &mut SplitMix64::new(seed)))])
    }

    #[test]
    fn oracle_accepts_stored_bytes_and_rejects_others() {
        let mut o = Oracle::new(false);
        o.expect(&one_tensor(1));
        assert!(o.check(&one_tensor(1), Some(1)).is_ok());
        assert!(o.check(&one_tensor(2), Some(1)).is_err());
        assert!(o.check(&one_tensor(1), Some(2)).is_err());
    }

    #[test]
    fn corrupted_oracle_rejects_the_true_bytes() {
        let mut o = Oracle::new(true);
        o.expect(&one_tensor(1));
        assert!(o.check(&one_tensor(1), None).is_err());
    }

    #[test]
    fn temp_dir_is_removed_on_panic() {
        let cfg = RunCfg {
            seed: 1,
            limit: Limit::Quick,
            trace: false,
            bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
            corrupt_oracle: false,
        };
        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let dir = TempDir::create(&cfg, "panic");
            std::fs::write(dir.path().join("f"), b"12345").unwrap();
            assert_eq!(dir.disk_bytes(), 5);
            *seen.lock().unwrap() = dir.path().to_path_buf();
            panic!("boom");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(!path.as_os_str().is_empty() && !path.exists());
    }
}
