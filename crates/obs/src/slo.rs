//! SLO burn-rate engine.
//!
//! An [`SloSpec`] names an operation class (store, fetch, query, retire,
//! repair, deliver), a latency objective, and the fraction of operations
//! that must meet it. The engine buckets good/bad outcomes into a
//! fixed-width time ring driven by the shared [`TimeSource`] — under a
//! `VirtualClock` every window edge is exact, so burn-rate trip/clear
//! tests are fully deterministic — and evaluates the classic
//! multi-window burn rate: the error budget is `1 - target`, the burn
//! rate over a window is `bad_fraction / budget`, and the SLO *trips*
//! only when both the fast window (paging urgency) and the slow window
//! (sustained damage) exceed the threshold, clearing when either drops
//! back below it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use crate::clock::TimeSource;
use crate::registry::Metric;

/// Buckets in the window ring. The slow window is split into this many
/// fixed-width buckets; the fast window sums the most recent suffix of
/// them, so it should be a reasonable multiple of
/// `slow_window_us / SLO_RING_BUCKETS` for sharp edges.
pub const SLO_RING_BUCKETS: usize = 64;

/// One operation class's latency objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Operation class the spec covers (`"fetch"`, `"query"`, ...).
    pub op_class: String,
    /// Latency objective: an op is *good* when it succeeds within this
    /// many microseconds.
    pub objective_us: u64,
    /// Fraction of ops that must be good (e.g. `0.99`); the error
    /// budget is `1 - target`.
    pub target: f64,
    /// Fast evaluation window (paging urgency), microseconds.
    pub fast_window_us: u64,
    /// Slow evaluation window (sustained damage), microseconds.
    pub slow_window_us: u64,
    /// Burn rate at which the SLO trips (both windows must exceed it).
    pub trip_burn_rate: f64,
}

impl SloSpec {
    /// A spec with the default windows (5 min fast / 1 h slow) and the
    /// classic 14.4x page-worthy burn threshold.
    pub fn new(op_class: &str, objective_us: u64, target: f64) -> SloSpec {
        SloSpec {
            op_class: op_class.to_string(),
            objective_us,
            target,
            fast_window_us: 5 * 60 * 1_000_000,
            slow_window_us: 60 * 60 * 1_000_000,
            trip_burn_rate: 14.4,
        }
    }
}

/// Good/bad tallies and the burn rate over one evaluation window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStatus {
    /// Ops that met the objective in the window.
    pub good: u64,
    /// Ops that missed it (or failed) in the window.
    pub bad: u64,
    /// `bad_fraction / error_budget` over the window (0 with no
    /// samples).
    pub burn_rate: f64,
}

/// The evaluated state of one op class's SLO.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloStatus {
    /// Operation class.
    pub op_class: String,
    /// Latency objective, microseconds.
    pub objective_us: u64,
    /// Target good fraction.
    pub target: f64,
    /// Lifetime good ops.
    pub good_total: u64,
    /// Lifetime bad ops.
    pub bad_total: u64,
    /// Fast-window evaluation.
    pub fast: WindowStatus,
    /// Slow-window evaluation.
    pub slow: WindowStatus,
    /// Is the SLO currently tripped (both windows over the threshold)?
    pub tripped: bool,
    /// How many times the SLO has transitioned into the tripped state.
    pub trips: u64,
}

/// One time bucket of the ring, stamped with the absolute bucket number
/// it currently holds so stale slots are zeroed lazily on reuse.
#[derive(Debug, Clone, Copy, Default)]
struct RingBucket {
    abs: u64,
    good: u64,
    bad: u64,
}

/// One op class's tracked state.
struct SloTrack {
    spec: SloSpec,
    bucket_width_us: u64,
    ring: Mutex<[RingBucket; SLO_RING_BUCKETS]>,
    good_total: AtomicU64,
    bad_total: AtomicU64,
    tripped: AtomicBool,
    trips: AtomicU64,
}

impl SloTrack {
    fn new(spec: SloSpec) -> SloTrack {
        let bucket_width_us = (spec.slow_window_us / SLO_RING_BUCKETS as u64).max(1);
        SloTrack {
            spec,
            bucket_width_us,
            ring: Mutex::new([RingBucket::default(); SLO_RING_BUCKETS]),
            good_total: AtomicU64::new(0),
            bad_total: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            trips: AtomicU64::new(0),
        }
    }

    fn record(&self, now_us: u64, latency_us: u64, ok: bool) {
        let good = ok && latency_us <= self.spec.objective_us;
        if good {
            self.good_total.fetch_add(1, Ordering::Relaxed);
        } else {
            self.bad_total.fetch_add(1, Ordering::Relaxed);
        }
        let abs = now_us / self.bucket_width_us;
        let slot = (abs as usize) % SLO_RING_BUCKETS;
        let mut ring = self.ring.lock();
        let b = &mut ring[slot];
        if b.abs != abs {
            *b = RingBucket {
                abs,
                good: 0,
                bad: 0,
            };
        }
        if good {
            b.good += 1;
        } else {
            b.bad += 1;
        }
    }

    /// Sum the buckets covering the last `window_us` ending at `now_us`.
    fn window(&self, now_us: u64, window_us: u64) -> (u64, u64) {
        let abs_now = now_us / self.bucket_width_us;
        let buckets = (window_us / self.bucket_width_us).max(1);
        let oldest = abs_now.saturating_sub(buckets.saturating_sub(1));
        let ring = self.ring.lock();
        let (mut good, mut bad) = (0u64, 0u64);
        for b in ring.iter() {
            if b.abs >= oldest && b.abs <= abs_now {
                good += b.good;
                bad += b.bad;
            }
        }
        (good, bad)
    }

    fn burn(&self, good: u64, bad: u64) -> f64 {
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.spec.target).max(1e-9);
        (bad as f64 / total as f64) / budget
    }

    fn status(&self, now_us: u64) -> SloStatus {
        let (fg, fb) = self.window(now_us, self.spec.fast_window_us);
        let (sg, sb) = self.window(now_us, self.spec.slow_window_us);
        let fast = WindowStatus {
            good: fg,
            bad: fb,
            burn_rate: self.burn(fg, fb),
        };
        let slow = WindowStatus {
            good: sg,
            bad: sb,
            burn_rate: self.burn(sg, sb),
        };
        // Multi-window trip: both windows must burn over the threshold
        // (fast alone = a blip; slow alone = old damage already past).
        let now_tripped = fast.burn_rate >= self.spec.trip_burn_rate
            && slow.burn_rate >= self.spec.trip_burn_rate;
        let was = self.tripped.swap(now_tripped, Ordering::Relaxed);
        if now_tripped && !was {
            self.trips.fetch_add(1, Ordering::Relaxed);
        }
        SloStatus {
            op_class: self.spec.op_class.clone(),
            objective_us: self.spec.objective_us,
            target: self.spec.target,
            good_total: self.good_total.load(Ordering::Relaxed),
            bad_total: self.bad_total.load(Ordering::Relaxed),
            fast,
            slow,
            tripped: now_tripped,
            trips: self.trips.load(Ordering::Relaxed),
        }
    }
}

/// The burn-rate engine: one [`SloTrack`] per registered op class, all
/// bucketing time from one [`TimeSource`].
pub struct SloEngine {
    clock: Arc<dyn TimeSource>,
    tracks: RwLock<Vec<Arc<SloTrack>>>,
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("specs", &self.tracks.read().len())
            .finish()
    }
}

impl SloEngine {
    /// An engine bucketing time from `clock`.
    pub fn new(clock: Arc<dyn TimeSource>) -> SloEngine {
        SloEngine {
            clock,
            tracks: RwLock::new(Vec::new()),
        }
    }

    /// Register (or replace) the spec for one op class.
    pub fn register(&self, spec: SloSpec) {
        let mut tracks = self.tracks.write();
        tracks.retain(|t| t.spec.op_class != spec.op_class);
        tracks.push(Arc::new(SloTrack::new(spec)));
    }

    /// Registered op classes, in registration order.
    pub fn op_classes(&self) -> Vec<String> {
        self.tracks
            .read()
            .iter()
            .map(|t| t.spec.op_class.clone())
            .collect()
    }

    /// Record one op outcome for `op_class` (good = succeeded within the
    /// objective). Unregistered classes are ignored.
    pub fn record(&self, op_class: &str, latency_us: u64, ok: bool) {
        let track = self
            .tracks
            .read()
            .iter()
            .find(|t| t.spec.op_class == op_class)
            .cloned();
        if let Some(t) = track {
            t.record(self.clock.now_us(), latency_us, ok);
        }
    }

    /// Evaluate one op class now.
    pub fn status(&self, op_class: &str) -> Option<SloStatus> {
        let now = self.clock.now_us();
        self.tracks
            .read()
            .iter()
            .find(|t| t.spec.op_class == op_class)
            .map(|t| t.status(now))
    }

    /// Evaluate every registered class now.
    pub fn statuses(&self) -> Vec<SloStatus> {
        let now = self.clock.now_us();
        self.tracks.read().iter().map(|t| t.status(now)).collect()
    }

    /// JSON exposition of [`SloEngine::statuses`] (the `/slo` endpoint).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.statuses()).expect("statuses serialize")
    }

    /// `evostore_slo_*` metrics for every registered class (registry
    /// source form).
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for s in self.statuses() {
            let op = s.op_class.as_str();
            out.push(
                Metric::gauge("evostore_slo_objective_us", s.objective_us as f64)
                    .with_label("op", op),
            );
            out.push(Metric::counter("evostore_slo_good_total", s.good_total).with_label("op", op));
            out.push(Metric::counter("evostore_slo_bad_total", s.bad_total).with_label("op", op));
            out.push(
                Metric::gauge("evostore_slo_burn_rate_fast", s.fast.burn_rate).with_label("op", op),
            );
            out.push(
                Metric::gauge("evostore_slo_burn_rate_slow", s.slow.burn_rate).with_label("op", op),
            );
            out.push(
                Metric::gauge("evostore_slo_tripped", if s.tripped { 1.0 } else { 0.0 })
                    .with_label("op", op),
            );
            out.push(Metric::counter("evostore_slo_trips_total", s.trips).with_label("op", op));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    /// 64-bucket ring over a 64 s slow window → 1 s buckets; 8 s fast
    /// window. All edges land exactly on bucket boundaries.
    fn engine() -> (Arc<VirtualClock>, SloEngine) {
        let clock = Arc::new(VirtualClock::new());
        let eng = SloEngine::new(clock.clone());
        eng.register(SloSpec {
            fast_window_us: 8_000_000,
            slow_window_us: 64_000_000,
            trip_burn_rate: 5.0,
            ..SloSpec::new("fetch", 1_000, 0.9)
        });
        (clock, eng)
    }

    #[test]
    fn good_and_bad_classification_uses_objective_and_outcome() {
        let (_clock, eng) = engine();
        eng.record("fetch", 500, true); // fast + ok => good
        eng.record("fetch", 5_000, true); // slow => bad
        eng.record("fetch", 100, false); // failed => bad even when fast
        let s = eng.status("fetch").unwrap();
        assert_eq!(s.good_total, 1);
        assert_eq!(s.bad_total, 2);
        eng.record("unregistered", 1, true); // silently ignored
        assert_eq!(eng.statuses().len(), 1);
    }

    #[test]
    fn burn_rate_trips_when_both_windows_exceed_and_clears_as_the_fast_window_drains() {
        let (clock, eng) = engine();
        // Healthy traffic for 40 s: 1 op/s, all good.
        for _ in 0..40 {
            eng.record("fetch", 100, true);
            clock.advance_us(1_000_000);
        }
        let s = eng.status("fetch").unwrap();
        assert!(!s.tripped);
        assert_eq!(s.fast.bad, 0);
        assert_eq!(s.slow.good, 40);

        // 8 s of pure failure: the fast window saturates bad (burn
        // 1.0/0.1 = 10 >= 5) and the slow window accumulates 8 bad of
        // 48 (burn 1.67/... = bad_frac 8/48 = 0.1667 / 0.1 = 1.67 < 5).
        for _ in 0..8 {
            eng.record("fetch", 100, false);
            clock.advance_us(1_000_000);
        }
        let s = eng.status("fetch").unwrap();
        assert!(s.fast.burn_rate >= 5.0, "fast burn {}", s.fast.burn_rate);
        assert!(
            s.slow.burn_rate < 5.0,
            "slow burn {} should still be under",
            s.slow.burn_rate
        );
        assert!(!s.tripped, "fast window alone must not trip");

        // Keep failing until the slow window crosses too: with budget
        // 0.1 and threshold 5, the slow window trips at bad_frac 0.5.
        for _ in 0..40 {
            eng.record("fetch", 100, false);
            clock.advance_us(1_000_000);
        }
        let s = eng.status("fetch").unwrap();
        assert!(s.tripped, "both windows over threshold must trip");
        assert_eq!(s.trips, 1);

        // Recovery: 8 s of pure success drains the fast window below
        // the threshold; the trip clears even though the slow window is
        // still burning.
        for _ in 0..8 {
            eng.record("fetch", 100, true);
            clock.advance_us(1_000_000);
        }
        let s = eng.status("fetch").unwrap();
        assert!(s.fast.burn_rate < 5.0, "fast burn {}", s.fast.burn_rate);
        assert!(!s.tripped, "fast window recovery clears the trip");
        assert_eq!(s.trips, 1, "clearing is not a new trip");

        // A relapse trips again (slow window still saturated with bad).
        for _ in 0..8 {
            eng.record("fetch", 100, false);
            clock.advance_us(1_000_000);
        }
        let s = eng.status("fetch").unwrap();
        assert!(s.tripped);
        assert_eq!(s.trips, 2);
    }

    #[test]
    fn old_buckets_age_out_of_both_windows() {
        let (clock, eng) = engine();
        for _ in 0..10 {
            eng.record("fetch", 100, false);
        }
        let s = eng.status("fetch").unwrap();
        assert_eq!(s.fast.bad, 10);
        assert_eq!(s.slow.bad, 10);
        // Jump past the slow window: the ring slots are stale and must
        // not count, even though they were never overwritten.
        clock.advance_us(65_000_000);
        let s = eng.status("fetch").unwrap();
        assert_eq!(s.fast.bad, 0);
        assert_eq!(s.slow.bad, 0);
        assert_eq!(s.bad_total, 10, "lifetime totals never age out");
    }

    #[test]
    fn statuses_serialize_for_the_slo_endpoint() {
        let (_clock, eng) = engine();
        eng.record("fetch", 100, true);
        let json = eng.to_json();
        assert!(json.contains("\"op_class\":\"fetch\""));
        assert!(json.contains("\"tripped\":false"));
        let m = eng.metrics();
        assert!(m.iter().any(|m| m.name == "evostore_slo_good_total"));
        assert!(m.iter().any(|m| m.name == "evostore_slo_burn_rate_fast"));
    }
}
