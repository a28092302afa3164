//! Processor-sharing bandwidth resources.
//!
//! Models a shared medium (a NIC, an OST, an aggregate PFS pipe) with
//! capacity `C` bytes/s split equally among all in-flight transfers — the
//! standard fluid model of fair-shared links. The resource is driven by a
//! simulation loop: start transfers, ask for the next completion, advance
//! virtual time, harvest completions.

use std::collections::HashMap;

use crate::clock::SimTime;

/// Identifier of one in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId(pub u64);

#[derive(Debug)]
struct Active {
    remaining: f64,
}

/// A fair-share (processor-sharing) bandwidth resource.
#[derive(Debug)]
pub struct PsResource {
    capacity: f64,
    active: HashMap<u64, Active>,
    last_update: SimTime,
    next_id: u64,
}

impl PsResource {
    /// A resource with `capacity_bytes_per_sec` of shared bandwidth.
    pub fn new(capacity_bytes_per_sec: f64) -> PsResource {
        assert!(
            capacity_bytes_per_sec > 0.0 && capacity_bytes_per_sec.is_finite(),
            "capacity must be positive and finite"
        );
        PsResource {
            capacity: capacity_bytes_per_sec,
            active: HashMap::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// Shared capacity in bytes/s.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight transfers.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Advance internal progress to `now`, draining `remaining` bytes at
    /// the fair-share rate that held since the last update.
    ///
    /// Must be called with monotonically non-decreasing times; the driver
    /// loop guarantees this by always advancing to event times in order.
    pub fn advance_to(&mut self, now: SimTime) {
        let dt = now.since(self.last_update);
        debug_assert!(dt >= -1e-9, "time went backwards: dt={dt}");
        if dt > 0.0 && !self.active.is_empty() {
            let drained = dt * self.capacity / self.active.len() as f64;
            for a in self.active.values_mut() {
                a.remaining = (a.remaining - drained).max(0.0);
            }
        }
        self.last_update = self.last_update.max(now);
    }

    /// Begin a transfer of `bytes` at `now`.
    pub fn start(&mut self, now: SimTime, bytes: f64) -> TransferId {
        assert!(bytes >= 0.0 && bytes.is_finite());
        self.advance_to(now);
        let id = self.next_id;
        self.next_id += 1;
        self.active.insert(id, Active { remaining: bytes });
        TransferId(id)
    }

    /// When the next in-flight transfer would finish, assuming no further
    /// arrivals: `(time, id)`. `None` when idle.
    pub fn next_completion(&self) -> Option<(SimTime, TransferId)> {
        let n = self.active.len();
        if n == 0 {
            return None;
        }
        let rate = self.capacity / n as f64;
        self.active
            .iter()
            .map(|(&id, a)| (self.last_update.after(a.remaining / rate), id))
            .min_by(|(ta, ia), (tb, ib)| ta.cmp(tb).then(ia.cmp(ib)))
            .map(|(t, id)| (t, TransferId(id)))
    }

    /// Remove a finished (or cancelled) transfer. Returns its remaining
    /// bytes at the last `advance_to` (0 for clean completions).
    pub fn finish(&mut self, id: TransferId) -> Option<f64> {
        self.active.remove(&id.0).map(|a| a.remaining)
    }
}

/// Run a set of transfers `(start_time, bytes)` over one PS resource to
/// completion; returns each transfer's finish time (same order as input).
///
/// This is the closed-form driver used by benches where the workload is
/// known upfront (e.g. Fig 4's barrier-synchronized write storm).
pub fn run_transfers(resource: &mut PsResource, jobs: &[(SimTime, f64)]) -> Vec<SimTime> {
    let mut finish = vec![SimTime::ZERO; jobs.len()];
    // Sort arrival events by time (stable for determinism).
    let mut arrivals: Vec<(SimTime, usize)> =
        jobs.iter().enumerate().map(|(i, &(t, _))| (t, i)).collect();
    arrivals.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut next_arrival = 0usize;
    let mut id_to_job: HashMap<u64, usize> = HashMap::new();

    loop {
        let completion = resource.next_completion();
        let arrival = arrivals.get(next_arrival).copied();
        match (completion, arrival) {
            (None, None) => break,
            (Some((tc, id)), Some((ta, _))) if tc <= ta => {
                resource.advance_to(tc);
                resource.finish(id);
                finish[id_to_job[&id.0]] = tc;
            }
            (_, Some((ta, job))) => {
                let id = resource.start(ta, jobs[job].1);
                id_to_job.insert(id.0, job);
                next_arrival += 1;
            }
            (Some((tc, id)), None) => {
                resource.advance_to(tc);
                resource.finish(id);
                finish[id_to_job[&id.0]] = tc;
            }
        }
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_full_rate() {
        let mut r = PsResource::new(100.0);
        let jobs = vec![(SimTime::ZERO, 1000.0)];
        let f = run_transfers(&mut r, &jobs);
        assert!((f[0].as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn equal_concurrent_transfers_share_equally() {
        let mut r = PsResource::new(100.0);
        let jobs = vec![(SimTime::ZERO, 500.0); 4];
        let f = run_transfers(&mut r, &jobs);
        // 4 x 500 bytes over 100 B/s total = 20s for everyone.
        for t in f {
            assert!((t.as_secs() - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn short_transfer_finishes_first_then_rate_recovers() {
        let mut r = PsResource::new(100.0);
        // A: 100 bytes, B: 1000 bytes, both at t=0.
        let f = run_transfers(&mut r, &[(SimTime::ZERO, 100.0), (SimTime::ZERO, 1000.0)]);
        // Shared until A finishes: A needs 100/(100/2) = 2s.
        assert!((f[0].as_secs() - 2.0).abs() < 1e-9);
        // B drained 100 bytes by t=2, then 900 at full rate: 2 + 9 = 11s.
        assert!((f[1].as_secs() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_slows_existing_transfer() {
        let mut r = PsResource::new(100.0);
        // A: 1000 bytes at t=0; B: 1000 bytes at t=5.
        let f = run_transfers(
            &mut r,
            &[(SimTime::ZERO, 1000.0), (SimTime::from_secs(5.0), 1000.0)],
        );
        // A alone for 5s (500 done), then shares: 500 left at 50 B/s = 10s
        // more -> 15s. B: at t=15 B has done 500; then full rate: +5 -> 20.
        assert!((f[0].as_secs() - 15.0).abs() < 1e-9, "A={}", f[0]);
        assert!((f[1].as_secs() - 20.0).abs() < 1e-9, "B={}", f[1]);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut r = PsResource::new(10.0);
        let f = run_transfers(&mut r, &[(SimTime::from_secs(1.0), 0.0)]);
        assert_eq!(f[0], SimTime::from_secs(1.0));
    }

    #[test]
    fn aggregate_throughput_is_conserved() {
        // N transfers of B bytes all at t=0: last completion is exactly
        // N*B/C regardless of N (work conservation).
        for n in [1usize, 3, 8, 64] {
            let mut r = PsResource::new(250.0);
            let jobs = vec![(SimTime::ZERO, 1000.0); n];
            let f = run_transfers(&mut r, &jobs);
            let makespan = f.iter().map(|t| t.as_secs()).fold(0.0, f64::max);
            let expected = n as f64 * 1000.0 / 250.0;
            assert!((makespan - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn incremental_driver_matches_manual_math() {
        let mut r = PsResource::new(100.0);
        let a = r.start(SimTime::ZERO, 300.0);
        let (t1, id1) = r.next_completion().unwrap();
        assert_eq!(id1, a);
        assert!((t1.as_secs() - 3.0).abs() < 1e-9);
        // Second transfer arrives at t=1.
        let b = r.start(SimTime::from_secs(1.0), 100.0);
        // At t=1 A has 200 left; both now at 50 B/s: B finishes at 3.0,
        // A at 1 + 200/50 = 5.0 if B stayed — but B leaves at 3.
        let (t2, id2) = r.next_completion().unwrap();
        assert_eq!(id2, b);
        assert!((t2.as_secs() - 3.0).abs() < 1e-9);
        r.advance_to(t2);
        r.finish(b);
        let (t3, id3) = r.next_completion().unwrap();
        assert_eq!(id3, a);
        // A: 200 - 2s*50 = 100 left at t=3, full rate 100 B/s -> t=4.
        assert!((t3.as_secs() - 4.0).abs() < 1e-9);
    }
}
