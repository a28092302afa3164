//! The instruments a counter set is made of, and the table that declares
//! one.
//!
//! [`counter_set!`](crate::counter_set) turns a table with one line per
//! statistic — doc comment, field, kind, exported series — into the
//! *holder* the hot path bumps (a [`Counter`] or [`LatencyHistogram`]
//! per line), the serializable *snapshot* struct with the same field
//! names, and `snapshot()`, `merge()`, `rows()` and `SERIES` over it, so
//! a statistic cannot be counted without also being merged and exported.
//!
//! A kind says three things:
//!
//! * **where the value lives** — `atomic`: a [`Counter`] in the holder;
//!   `computed`: nowhere ([`Computed`] in the holder, `0` from
//!   `snapshot()`), the owner fills the field in when it takes the
//!   snapshot; `histogram`: a [`LatencyHistogram`], digested to a
//!   [`HistogramSummary`]; `nested(Stats)`: another set's snapshot the
//!   owner fills in; `nested(Holder => Stats)`: another set's holder,
//!   snapshotted with this one;
//! * **how two snapshots merge** — `sum`, `max` (levels of the most
//!   recent event, process-wide values every node reports alike), or,
//!   for `nested` and `histogram`, the value's own `merge`;
//! * **how it is exported** by `rows()` — `counter "series"`,
//!   `gauge "series"` (`"a" | "b"` exports one value under two names),
//!   `hidden` (snapshot only), a histogram under its series name, a
//!   nested set not at all (its owner exports it with its own labels).
//!
//! ```
//! evostore_obs::counter_set! {
//!     /// What the pump has done.
//!     pub struct PumpCounters;
//!     /// [`PumpCounters`] at one instant.
//!     #[derive(Copy, Eq)]
//!     pub struct PumpStats {
//!         /// Pushes sent.
//!         pushes: atomic sum counter "pump_pushes",
//!         /// Depth of the most recent tree.
//!         depth: atomic max gauge "pump_depth",
//!         /// Live queues (the owner counts them).
//!         queues: computed sum gauge "pump_queues",
//!     }
//! }
//! let c = PumpCounters::new();
//! c.pushes.add(2);
//! c.depth.set(3);
//! let stats = PumpStats { queues: 1, ..c.snapshot() };
//! assert_eq!((c.pushes(), stats.pushes, stats.depth), (2, 2, 3));
//! assert_eq!(stats.merge(stats).depth, 3);
//! assert_eq!(stats.rows(&[("node", "a")]).len(), PumpStats::SERIES.len());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::registry::{Exemplar, HistogramSummary, MAX_SUMMARY_EXEMPLARS};
use crate::trace::current_trace;

/// An `atomic` cell: one relaxed `u64` (a statistic, never a
/// synchronisation point).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Count `n` more.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with the current level.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Holder-side placeholder of a `computed` or `nested(Stats)` entry: the
/// value has no cell, the owner works it out when the snapshot is taken.
#[derive(Debug, Default, Clone, Copy)]
pub struct Computed;

/// Declare a counter set: see the [module docs](crate::telemetry).
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$hmeta:meta])*
        $hvis:vis struct $Holder:ident;
        $(#[$smeta:meta])*
        $svis:vis struct $Stats:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $place:ident $(($($arg:tt)+))? $($merge:ident $export:ident)?
                    $($name:literal)|*
            ),* $(,)?
        }
    ) => {
        $(#[$hmeta])*
        #[derive(Debug)]
        #[allow(dead_code)] // a private set need not use every generated name
        $hvis struct $Holder {
            $( $(#[$fmeta])* pub $field: $crate::__cs_cell!($place $(($($arg)+))?), )*
        }

        #[allow(dead_code)]
        impl $Holder {
            /// Every cell at zero.
            pub const fn new() -> Self {
                $Holder { $( $field: $crate::__cs_new!($place $(($($arg)+))?), )* }
            }

            /// Read every cell; `computed` entries read 0 and are the
            /// caller's to fill in.
            pub fn snapshot(&self) -> $Stats {
                $Stats { $( $field: $crate::__cs_read!($place $(($($arg)+))?; self.$field), )* }
            }

            $( $crate::__cs_getter! { $place $(#[$fmeta])* $field } )*
        }

        impl Default for $Holder {
            fn default() -> Self {
                Self::new()
            }
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Default, PartialEq, ::serde::Serialize, ::serde::Deserialize)]
        $svis struct $Stats {
            $(
                $(#[$fmeta])*
                #[serde(default)]
                pub $field: $crate::__cs_value!($place $(($($arg)+))?),
            )*
        }

        #[allow(dead_code)]
        impl $Stats {
            /// Every series name [`Self::rows`] emits, in table order.
            pub const SERIES: &'static [&'static str] = &[ $( $($name,)* )* ];

            /// Fold two snapshots by each entry's merge rule.
            pub fn merge(self, other: $Stats) -> $Stats {
                $Stats {
                    $( $field: $crate::__cs_merge!($place $($merge)?; self.$field, other.$field), )*
                }
            }

            /// One metric per declared series, each carrying `labels`.
            pub fn rows(&self, labels: &[(&str, &str)]) -> ::std::vec::Vec<$crate::Metric> {
                let mut out = ::std::vec::Vec::with_capacity(Self::SERIES.len());
                $( $crate::__cs_rows!($place $($export)?; $($name),*; out, labels, self.$field); )*
                out
            }
        }
    };
}

/// Holder cell type of an entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __cs_cell {
    (atomic) => {
        $crate::Counter
    };
    (histogram) => {
        $crate::LatencyHistogram
    };
    (computed) => {
        $crate::Computed
    };
    (nested($holder:ty => $stats:ty)) => {
        $holder
    };
    (nested($stats:ty)) => {
        $crate::Computed
    };
}

/// Initial holder cell of an entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __cs_new {
    (atomic) => {
        $crate::Counter::new()
    };
    (histogram) => {
        $crate::LatencyHistogram::new()
    };
    (computed) => {
        $crate::Computed
    };
    (nested($holder:ty => $stats:ty)) => {
        <$holder>::new()
    };
    (nested($stats:ty)) => {
        $crate::Computed
    };
}

/// Snapshot value of a holder cell.
#[doc(hidden)]
#[macro_export]
macro_rules! __cs_read {
    (atomic; $cell:expr) => {
        $cell.get()
    };
    (histogram; $cell:expr) => {
        $cell.summary()
    };
    (computed; $cell:expr) => {
        0
    };
    (nested($holder:ty => $stats:ty); $cell:expr) => {
        $cell.snapshot()
    };
    (nested($stats:ty); $cell:expr) => {
        <$stats>::default()
    };
}

/// Snapshot field type of an entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __cs_value {
    (atomic) => {
        u64
    };
    (computed) => {
        u64
    };
    (histogram) => {
        $crate::HistogramSummary
    };
    (nested($holder:ty => $stats:ty)) => {
        $stats
    };
    (nested($stats:ty)) => {
        $stats
    };
}

/// `holder.field()` for the entries that live in a [`Counter`].
#[doc(hidden)]
#[macro_export]
macro_rules! __cs_getter {
    (atomic $(#[$meta:meta])* $field:ident) => {
        $(#[$meta])*
        pub fn $field(&self) -> u64 {
            self.$field.get()
        }
    };
    ($place:ident $(#[$meta:meta])* $field:ident) => {};
}

/// Merge rule of an entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __cs_merge {
    ($place:ident sum; $a:expr, $b:expr) => {
        $a + $b
    };
    ($place:ident max; $a:expr, $b:expr) => {
        ::std::cmp::max($a, $b)
    };
    ($place:ident; $a:expr, $b:expr) => {
        $a.merge($b)
    };
}

/// Exported rows of an entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __cs_rows {
    (nested; ; $out:ident, $labels:ident, $v:expr) => {};
    ($place:ident hidden; ; $out:ident, $labels:ident, $v:expr) => {};
    (histogram; $($name:literal),+; $out:ident, $labels:ident, $v:expr) => {
        $( $out.push($crate::Metric::histogram($name, $v.clone()).with_labels($labels)); )+
    };
    ($place:ident counter; $($name:literal),+; $out:ident, $labels:ident, $v:expr) => {
        $( $out.push($crate::Metric::counter($name, $v).with_labels($labels)); )+
    };
    ($place:ident gauge; $($name:literal),+; $out:ident, $labels:ident, $v:expr) => {
        $( $out.push($crate::Metric::gauge($name, $v as f64).with_labels($labels)); )+
    };
}

/// Number of log2 buckets: bucket `i` covers `[2^i, 2^(i+1))` microseconds,
/// with the last bucket catching everything slower (~2.3 hours).
const BUCKETS: usize = 43;

/// Exemplars retained per bucket (last-N wins).
const EXEMPLARS_PER_BUCKET: usize = 4;

/// A log2-scaled latency histogram over microseconds. When a sample is
/// recorded under an ambient trace context, the bucket keeps the last
/// few `(trace_id, span_id)` exemplars so a slow percentile joins
/// straight back to its span tree in the flight recorder.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    exemplars: [Mutex<Vec<Exemplar>>; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Fresh histogram.
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            exemplars: [const { Mutex::new(Vec::new()) }; BUCKETS],
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_index(us: u64) -> usize {
        (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
    }

    /// Record one latency in microseconds. If a trace context is
    /// ambiently installed, it is kept as the bucket's exemplar.
    pub fn record_us(&self, us: u64) {
        let idx = Self::bucket_index(us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        // The thread-local probe is cheap; the lock is only taken when
        // an op is actually traced.
        if let Some(ctx) = current_trace() {
            let mut ring = self.exemplars[idx].lock();
            if ring.len() == EXEMPLARS_PER_BUCKET {
                ring.remove(0);
            }
            ring.push(Exemplar {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                value_us: us,
            });
        }
    }

    /// Record a duration.
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Maximum recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Sum of all recorded latencies in microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Samples in bucket `i` (bucket `i` covers `[2^i, 2^(i+1))`
    /// microseconds; values below 1 are clamped into bucket 0).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Median upper bound ([`LatencyHistogram::quantile_us`] at 0.50).
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95_us(&self) -> u64 {
        self.quantile_us(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// The histogram digested for the metrics registry, carrying the
    /// exemplars of the slowest populated buckets.
    pub fn summary(&self) -> HistogramSummary {
        let mut exemplars = Vec::new();
        for ring in self.exemplars.iter().rev() {
            let ring = ring.lock();
            for ex in ring.iter().rev() {
                if exemplars.len() < MAX_SUMMARY_EXEMPLARS {
                    exemplars.push(*ex);
                }
            }
            if exemplars.len() >= MAX_SUMMARY_EXEMPLARS {
                break;
            }
        }
        HistogramSummary {
            count: self.count(),
            sum_us: self.total_us(),
            p50_us: self.p50_us(),
            p95_us: self.p95_us(),
            p99_us: self.p99_us(),
            max_us: self.max_us(),
            exemplars,
        }
    }

    /// Index of the bucket holding the `q` quantile, with the rank it
    /// lands at inside that bucket and the bucket's population.
    fn quantile_bucket(&self, q: f64) -> Option<(usize, u64, u64)> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = (((n as f64) * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 && seen + c >= target {
                return Some((i, target - seen, c));
            }
            seen += c;
        }
        None
    }

    /// Approximate quantile: rank-interpolated within the log2 bucket
    /// containing it (bucket `i` spans `[2^i, 2^(i+1))`), clamped to
    /// the largest recorded sample so a sparse top bucket cannot report
    /// a latency nothing ever reached.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let Some((i, rank, c)) = self.quantile_bucket(q) else {
            return if self.count() == 0 { 0 } else { self.max_us() };
        };
        let lo = 1u64 << i;
        let width = 1u64 << i; // hi - lo for a log2 bucket
        let est = lo + (width as f64 * (rank as f64 / c as f64)).round() as u64;
        est.min(self.max_us().max(lo))
    }

    /// The exemplars retained in the bucket holding the `q` quantile —
    /// the "show me a trace of a p99 fetch" join. Empty when the
    /// quantile bucket's samples were recorded without an ambient
    /// trace.
    pub fn exemplars_for_quantile(&self, q: f64) -> Vec<Exemplar> {
        match self.quantile_bucket(q) {
            Some((i, _, _)) => self.exemplars[i].lock().clone(),
            None => Vec::new(),
        }
    }

    /// One-line report: `n=..., mean=..us, p50<=..us, p95<=..us, max=..us`.
    pub fn report(&self) -> String {
        format!(
            "n={} mean={:.0}us p50<={}us p95<={}us p99<={}us max={}us",
            self.count(),
            self.mean_us(),
            self.quantile_us(0.50),
            self.quantile_us(0.95),
            self.quantile_us(0.99),
            self.max_us()
        )
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricValue;

    crate::counter_set! {
        /// The inner set of the table tests.
        struct InnerCells;
        /// [`InnerCells`], snapshotted.
        #[derive(Copy, Eq)]
        struct InnerStats {
            /// Ticks.
            ticks: atomic sum counter "t_inner_ticks",
        }
    }

    crate::counter_set! {
        /// One entry of each kind.
        struct Cells;
        /// [`Cells`], snapshotted.
        struct Stats {
            /// Bumped on the hot path.
            hits: atomic sum counter "t_hits",
            /// Level of the most recent event.
            depth: atomic max gauge "t_depth",
            /// Worked out by the owner, exported under two names.
            live: computed sum gauge "t_live" | "t_live_alias",
            /// The same for every node of a process.
            helpers: computed max hidden,
            /// Latencies.
            lat: histogram "t_lat_us",
            /// A set the owner fills in.
            leaf: nested(InnerStats),
            /// A set snapshotted with this one.
            inner: nested(InnerCells => InnerStats),
        }
    }

    fn sample() -> Stats {
        let cells = Cells::new();
        cells.hits.add(3);
        cells.depth.set(2);
        cells.lat.record_us(100);
        cells.inner.ticks.add(5);
        assert_eq!((cells.hits(), cells.depth()), (3, 2));
        Stats {
            live: 7,
            helpers: 1,
            leaf: InnerStats { ticks: 4 },
            ..cells.snapshot()
        }
    }

    #[test]
    fn table_snapshot_roundtrips_through_json() {
        let stats = sample();
        assert_eq!((stats.hits, stats.depth, stats.live), (3, 2, 7));
        assert_eq!((stats.lat.count, stats.inner.ticks), (1, 5));
        let json = serde_json::to_string(&stats).unwrap();
        for field in ["hits", "depth", "live", "helpers", "lat", "leaf", "inner"] {
            assert!(json.contains(&format!("\"{field}\":")), "{field} in {json}");
        }
        let back: Stats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert_eq!(Cells::default().snapshot(), Stats::default());
    }

    #[test]
    fn table_merge_sums_maxes_and_recurses() {
        let a = sample();
        let mut b = sample();
        b.depth = 9;
        b.helpers = 0;
        let m = a.merge(b);
        assert_eq!((m.hits, m.live), (6, 14), "sum entries add");
        assert_eq!((m.depth, m.helpers), (9, 1), "max entries keep the larger");
        assert_eq!(
            (m.leaf.ticks, m.inner.ticks),
            (8, 10),
            "nested by their own rule"
        );
        assert_eq!(
            (m.lat.count, m.lat.sum_us),
            (2, 200),
            "histograms as digests"
        );
    }

    #[test]
    fn table_rows_emit_each_declared_series_once_with_the_callers_labels() {
        let rows = sample().rows(&[("node", "a"), ("store", "b")]);
        let names: Vec<&str> = rows.iter().map(|m| m.name.as_str()).collect();
        // One per non-nested, non-hidden entry (two for the aliased one).
        assert_eq!(
            names,
            ["t_hits", "t_depth", "t_live", "t_live_alias", "t_lat_us"]
        );
        assert_eq!(names, Stats::SERIES);
        let labels = vec![
            ("node".to_string(), "a".to_string()),
            ("store".to_string(), "b".to_string()),
        ];
        assert!(rows.iter().all(|m| m.labels == labels));
        assert_eq!(rows[0].value, MetricValue::Counter(3));
        assert_eq!(rows[1].value, MetricValue::Gauge(2.0));
        assert_eq!(rows[3].value, MetricValue::Gauge(7.0));
        assert!(matches!(&rows[4].value, MetricValue::Histogram(h) if h.count == 1));
        assert_eq!(InnerStats::SERIES, ["t_inner_ticks"]);
    }

    #[test]
    fn buckets_are_log2() {
        let h = LatencyHistogram::new();
        h.record_us(1);
        h.record_us(2);
        h.record_us(3);
        h.record_us(1000);
        assert_eq!(h.count(), 4);
        assert!(h.mean_us() > 200.0);
        assert_eq!(h.max_us(), 1000);
    }

    #[test]
    fn quantiles_are_monotone_upper_bounds() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120] {
            h.record_us(us);
        }
        let p50 = h.quantile_us(0.5);
        let p95 = h.quantile_us(0.95);
        assert!(p50 <= p95);
        assert!(p50 >= 160, "p50 bound {p50} too low");
        assert!(p95 >= 5120, "p95 bound {p95} too low");
    }

    #[test]
    fn quantiles_interpolate_within_the_bucket_with_exact_counts() {
        // Four samples of 100us all land in bucket 6 ([64, 128)).
        let h = LatencyHistogram::new();
        for _ in 0..4 {
            h.record_us(100);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.total_us(), 400);
        assert_eq!(h.mean_us(), 100.0, "mean is exact from sum/count");
        // p50 = rank 2 of 4 in [64, 128): 64 + 64 * 2/4 = 96.
        assert_eq!(h.quantile_us(0.50), 96);
        // p99 = rank 4 of 4: interpolates to the bucket top (128) but is
        // clamped to the observed max.
        assert_eq!(h.quantile_us(0.99), 100);

        // Mixed buckets: 3 fast (bucket 3) + 1 slow (bucket 10).
        let h = LatencyHistogram::new();
        for us in [10u64, 10, 10, 2000] {
            h.record_us(us);
        }
        // p50 = rank 2 of 3 in [8, 16): 8 + 8 * 2/3 ~ 13.
        assert_eq!(h.quantile_us(0.50), 13);
        // p99 lands on the slow sample's bucket [1024, 2048), rank 1 of
        // 1 interpolates to 2048, clamped to the 2000us max.
        assert_eq!(h.quantile_us(0.99), 2000);
    }

    #[test]
    fn exemplars_join_the_quantile_bucket_to_its_trace() {
        let h = LatencyHistogram::new();
        // Without an ambient trace: no exemplar retained.
        h.record_us(10);
        assert!(h.exemplars_for_quantile(0.5).is_empty());

        let ctx = crate::trace::TraceContext::root();
        {
            let _g = crate::trace::set_current_trace(Some(ctx));
            h.record_us(5_000); // the slow outlier, traced
        }
        let p99 = h.exemplars_for_quantile(0.99);
        assert_eq!(p99.len(), 1);
        assert_eq!(p99[0].trace_id, ctx.trace_id);
        assert_eq!(p99[0].span_id, ctx.span_id);
        assert_eq!(p99[0].value_us, 5_000);
        // The summary carries the slowest buckets' exemplars outward.
        assert!(h.summary().exemplars.contains(&p99[0]));
        // The ring keeps only the last N per bucket.
        {
            let _g = crate::trace::set_current_trace(Some(ctx));
            for _ in 0..10 {
                h.record_us(5_000);
            }
        }
        assert_eq!(h.exemplars_for_quantile(0.99).len(), EXEMPLARS_PER_BUCKET);
    }

    #[test]
    fn zero_latency_is_clamped() {
        let h = LatencyHistogram::new();
        h.record_us(0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_us(1.0) >= 1);
    }

    #[test]
    fn bucket_zero_edge_cases_count_exactly() {
        // Bucket 0 covers [1, 2): both a 1us sample and a clamped 0us
        // sample land there, and nowhere else.
        let h = LatencyHistogram::new();
        h.record_us(1);
        h.record_us(0);
        assert_eq!(h.bucket_count(0), 2);
        for i in 1..BUCKETS {
            assert_eq!(h.bucket_count(i), 0, "bucket {i} should be empty");
        }
        // The next power of two starts bucket 1 exactly.
        h.record_us(2);
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
    }

    #[test]
    fn percentile_helpers_match_quantiles() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120] {
            h.record_us(us);
        }
        assert_eq!(h.p50_us(), h.quantile_us(0.50));
        assert_eq!(h.p95_us(), h.quantile_us(0.95));
        assert_eq!(h.p99_us(), h.quantile_us(0.99));
        assert!(h.p50_us() <= h.p95_us() && h.p95_us() <= h.p99_us());
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum_us, h.total_us());
        assert_eq!(s.max_us, 5120);
    }

    #[test]
    fn concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 1..=100u64 {
                        h.record_us(i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 800);
    }
}
