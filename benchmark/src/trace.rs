//! Spans recorded from the benchmark's own files, around the calls into
//! each layer.
//!
//! A traced run wraps every client call in a root span and, for every
//! eighth op of a class, replays that op's layer work under child spans
//! (see [`crate::probe`]). Spans stay in memory and are written out when
//! the run ends. Each thread owns one [`Tracer`]; nothing is shared while
//! the clock runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The client op classes root spans belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Store,
    Load,
    Query,
    Retire,
    GetMeta,
    QueryBatch,
    Pattern,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Store => "store",
            Class::Load => "load",
            Class::Query => "query",
            Class::Retire => "retire",
            Class::GetMeta => "get_meta",
            Class::QueryBatch => "query_batch",
            Class::Pattern => "pattern",
        }
    }
}

/// Identifies the op a child span belongs to.
#[derive(Debug, Clone, Copy)]
pub struct OpRef {
    pub op_id: u64,
    pub span: u32,
    pub class: Class,
}

#[derive(Debug, Clone)]
struct Span {
    op_id: u64,
    span: u32,
    parent: u32,
    name: &'static str,
    /// Child spans only: whether the layer is on this deployment's path
    /// for the op (off-path probes measure a layer's speed on the
    /// workload's inputs but are not attributed to the op).
    on_path: bool,
    start_ns: u64,
    end_ns: u64,
}

/// Work one layer did across all its replayed spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerAcc {
    pub count: u64,
    pub ns: u64,
    pub bytes: u64,
}

impl LayerAcc {
    pub fn mb_per_s(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / (self.ns as f64 / 1e9)
        }
    }

    /// Mean nanoseconds per counted unit.
    pub fn ns_per_unit(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// Root time of the replayed ops of one class and the on-path child time
/// found under them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attribution {
    pub root_ns: u64,
    pub child_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    next_span: u32,
    next_op: u64,
    spans: Vec<Span>,
    layers: BTreeMap<&'static str, LayerAcc>,
    attribution: BTreeMap<Class, Attribution>,
    /// On-path child time by layer (the first two components of the span
    /// name), over all classes.
    layer_path_ns: BTreeMap<&'static str, u64>,
    /// Ops of each class still to pass before the next replay.
    until_replay: BTreeMap<Class, u64>,
    /// Time spent replaying and recording, i.e. outside the system.
    pub overhead: Duration,
}

/// Every `REPLAY_EVERY`-th op of a class is replayed layer by layer.
pub const REPLAY_EVERY: u64 = 8;

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            next_span: 0,
            next_op: 0,
            spans: Vec::new(),
            layers: BTreeMap::new(),
            attribution: BTreeMap::new(),
            layer_path_ns: BTreeMap::new(),
            until_replay: BTreeMap::new(),
            overhead: Duration::ZERO,
        }
    }

    fn span_id(&mut self) -> u32 {
        self.next_span += 1;
        (self.thread << 24) | self.next_span
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record the root span of one client call. Returns the op to replay
    /// when this is the class's turn (every [`REPLAY_EVERY`]-th op).
    pub fn root(&mut self, class: Class, start: Instant, end: Instant) -> Option<OpRef> {
        if !self.enabled {
            return None;
        }
        self.next_op += 1;
        let op = OpRef {
            op_id: ((self.thread as u64) << 40) | self.next_op,
            span: self.span_id(),
            class,
        };
        self.spans.push(Span {
            op_id: op.op_id,
            span: op.span,
            parent: 0,
            name: class.name(),
            on_path: true,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
        let wait = self.until_replay.entry(class).or_insert(0);
        if *wait > 0 {
            *wait -= 1;
            return None;
        }
        *wait = REPLAY_EVERY - 1;
        self.attribution.entry(class).or_default().root_ns +=
            end.duration_since(start).as_nanos() as u64;
        Some(op)
    }

    /// Run `f` — one layer's public function on the op's inputs — under a
    /// child span. `units` counts what the layer processed (records,
    /// graphs, calls) and `bytes` their size.
    pub fn child<T>(
        &mut self,
        op: OpRef,
        name: &'static str,
        on_path: bool,
        units: u64,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let span = self.span_id();
        self.spans.push(Span {
            op_id: op.op_id,
            span,
            parent: op.span,
            name,
            on_path,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
        let acc = self.layers.entry(name).or_default();
        acc.count += units;
        acc.ns += ns;
        acc.bytes += bytes;
        if on_path {
            self.attribution.entry(op.class).or_default().child_ns += ns;
            *self.layer_path_ns.entry(layer_of(name)).or_default() += ns;
        }
        out
    }

    pub fn layer(&self, name: &str) -> LayerAcc {
        self.layers.get(name).copied().unwrap_or_default()
    }

    pub fn spans_recorded(&self) -> usize {
        self.spans.len()
    }

    /// Fold another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, acc) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.count += acc.count;
            mine.ns += acc.ns;
            mine.bytes += acc.bytes;
        }
        for (class, a) in other.attribution {
            let mine = self.attribution.entry(class).or_default();
            mine.root_ns += a.root_ns;
            mine.child_ns += a.child_ns;
        }
        for (layer, ns) in other.layer_path_ns {
            *self.layer_path_ns.entry(layer).or_default() += ns;
        }
        self.overhead += other.overhead;
    }

    /// The share of a class's replayed op time no replayed layer span
    /// accounts for — what the outside view cannot see.
    pub fn unattributed_share(&self, class: Class) -> f64 {
        match self.attribution.get(&class) {
            Some(a) if a.root_ns > 0 => 1.0 - a.child_ns as f64 / a.root_ns as f64,
            _ => 0.0,
        }
    }

    /// On-path time of one layer as a share of all replayed op time.
    pub fn layer_share(&self, layer: &str) -> f64 {
        let root: u64 = self.attribution.values().map(|a| a.root_ns).sum();
        if root == 0 {
            return 0.0;
        }
        self.layer_path_ns.get(layer).copied().unwrap_or(0) as f64 / root as f64
    }

    /// One JSON object per span: `op_id`, `span`, `parent`, `name`,
    /// `start_ns`, `end_ns` (and `on_path` on child spans).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"op_id\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.op_id, s.span, s.parent, s.name, s.start_ns, s.end_ns
            )?;
            if s.parent != 0 {
                write!(out, ",\"on_path\":{}", s.on_path)?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// `tensor.ser.write` → `tensor.ser`.
fn layer_of(span_name: &'static str) -> &'static str {
    match span_name.match_indices('.').nth(1) {
        Some((second_dot, _)) => &span_name[..second_dot],
        None => span_name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_eighth_op_is_replayed_and_attributed() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, 1);
        let mut replayed = 0;
        for _ in 0..17 {
            let start = Instant::now();
            let end = start + Duration::from_micros(100);
            if let Some(op) = t.root(Class::Store, start, end) {
                replayed += 1;
                t.child(op, "tensor.ser.write", true, 1, 1000, || ());
                t.child(op, "kv.logstore.put", false, 1, 1000, || ());
            }
        }
        assert_eq!(replayed, 3);
        assert_eq!(t.spans_recorded(), 17 + 6);
        assert_eq!(t.layer("tensor.ser.write").count, 3);
        assert!(t.unattributed_share(Class::Store) > 0.0);
        assert_eq!(t.layer_share("kv.logstore"), 0.0);
        assert_eq!(t.unattributed_share(Class::Load), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let now = Instant::now();
        assert!(t.root(Class::Query, now, now).is_none());
        assert_eq!(t.spans_recorded(), 0);
    }
}
