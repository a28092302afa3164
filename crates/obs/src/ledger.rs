//! Per-op resource ledger.
//!
//! A [`OpCosts`] cell rides along with the ambient trace context: the
//! op entry point installs a fresh cell thread-locally, every layer it
//! crosses (RPC retry loops, provider handlers, the data path) charges
//! costs into it through the free `add_*` functions — no plumbing
//! through signatures — and on completion the cell is folded into the
//! node's [`OpLedger`], which aggregates by op class and exports
//! `evostore_ledger_*` metrics. Work shared out to another thread (the
//! client's fork-join helpers) captures the cell with [`current_costs`]
//! and re-installs it there, exactly like the ambient trace context.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::registry::Metric;

/// Resource attribution for one in-flight operation. All fields are
/// atomics so concurrent legs of the same op can charge it directly.
#[derive(Debug, Default)]
pub struct OpCosts {
    /// Payload bytes received by this node for the op (stores, pushes).
    pub bytes_in: AtomicU64,
    /// Payload bytes sent out for the op (reads, responses).
    pub bytes_out: AtomicU64,
    /// Chunks / records touched while serving the op.
    pub chunks_touched: AtomicU64,
    /// Deepest delta chain walked to materialize a tensor (max).
    pub delta_chain_depth: AtomicU64,
    /// RPC attempts beyond the first.
    pub retries: AtomicU64,
    /// Endpoints skipped over by failover.
    pub failovers: AtomicU64,
    /// Broadcast/quorum legs that returned degraded or failed.
    pub degraded_legs: AtomicU64,
    /// Time spent parked in retry backoff, microseconds.
    pub queue_wait_us: AtomicU64,
}

impl OpCosts {
    /// A zeroed cell.
    pub fn new() -> Arc<OpCosts> {
        Arc::new(OpCosts::default())
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> CostsSnapshot {
        CostsSnapshot {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            chunks_touched: self.chunks_touched.load(Ordering::Relaxed),
            delta_chain_depth: self.delta_chain_depth.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            degraded_legs: self.degraded_legs.load(Ordering::Relaxed),
            queue_wait_us: self.queue_wait_us.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`OpCosts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostsSnapshot {
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub chunks_touched: u64,
    pub delta_chain_depth: u64,
    pub retries: u64,
    pub failovers: u64,
    pub degraded_legs: u64,
    pub queue_wait_us: u64,
}

thread_local! {
    static AMBIENT_COSTS: RefCell<Option<Arc<OpCosts>>> = const { RefCell::new(None) };
}

/// Restores the previously ambient cost cell when dropped.
pub struct CostsGuard {
    prev: Option<Arc<OpCosts>>,
}

impl Drop for CostsGuard {
    fn drop(&mut self) {
        AMBIENT_COSTS.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Install `costs` as the thread's ambient cost cell; the returned
/// guard restores the previous cell on drop.
pub fn install_costs(costs: Option<Arc<OpCosts>>) -> CostsGuard {
    AMBIENT_COSTS.with(|c| {
        let prev = std::mem::replace(&mut *c.borrow_mut(), costs);
        CostsGuard { prev }
    })
}

/// The thread's ambient cost cell, if an op is in flight. Capture it
/// before handing work to another thread and re-install it there.
pub fn current_costs() -> Option<Arc<OpCosts>> {
    AMBIENT_COSTS.with(|c| c.borrow().clone())
}

fn charge(f: impl FnOnce(&OpCosts)) {
    AMBIENT_COSTS.with(|c| {
        if let Some(costs) = c.borrow().as_ref() {
            f(costs);
        }
    });
}

/// Charge payload bytes received. No-op when no op is in flight.
pub fn add_bytes_in(n: u64) {
    charge(|c| {
        c.bytes_in.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge payload bytes sent.
pub fn add_bytes_out(n: u64) {
    charge(|c| {
        c.bytes_out.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge chunks/records touched.
pub fn add_chunks_touched(n: u64) {
    charge(|c| {
        c.chunks_touched.fetch_add(n, Ordering::Relaxed);
    });
}

/// Note a delta chain walk of `depth` links (keeps the max).
pub fn note_delta_chain_depth(depth: u64) {
    charge(|c| {
        c.delta_chain_depth.fetch_max(depth, Ordering::Relaxed);
    });
}

/// Charge one RPC retry.
pub fn add_retry() {
    charge(|c| {
        c.retries.fetch_add(1, Ordering::Relaxed);
    });
}

/// Charge endpoints skipped by failover.
pub fn add_failovers(n: u64) {
    charge(|c| {
        c.failovers.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge degraded/failed broadcast legs.
pub fn add_degraded_legs(n: u64) {
    charge(|c| {
        c.degraded_legs.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge time parked in backoff, microseconds.
pub fn add_queue_wait_us(us: u64) {
    charge(|c| {
        c.queue_wait_us.fetch_add(us, Ordering::Relaxed);
    });
}

/// Aggregated costs for one op class.
#[derive(Debug, Default)]
struct ClassAgg {
    ops: AtomicU64,
    errors: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    chunks_touched: AtomicU64,
    delta_chain_depth_max: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    degraded_legs: AtomicU64,
    queue_wait_us: AtomicU64,
}

/// Point-in-time view of one op class's aggregate, for tests and JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerEntry {
    pub op_class: String,
    pub ops: u64,
    pub errors: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub chunks_touched: u64,
    pub delta_chain_depth_max: u64,
    pub retries: u64,
    pub failovers: u64,
    pub degraded_legs: u64,
    pub queue_wait_us: u64,
}

/// Per-node, per-op-class cost aggregates.
#[derive(Debug, Default)]
pub struct OpLedger {
    classes: Mutex<BTreeMap<String, Arc<ClassAgg>>>,
}

impl OpLedger {
    /// An empty ledger.
    pub fn new() -> OpLedger {
        OpLedger::default()
    }

    /// Fold one finished op's costs into the `op_class` aggregate.
    pub fn finish_op(&self, op_class: &str, ok: bool, costs: &OpCosts) {
        let agg = {
            let mut classes = self.classes.lock();
            classes.entry(op_class.to_string()).or_default().clone()
        };
        let snap = costs.snapshot();
        agg.ops.fetch_add(1, Ordering::Relaxed);
        if !ok {
            agg.errors.fetch_add(1, Ordering::Relaxed);
        }
        agg.bytes_in.fetch_add(snap.bytes_in, Ordering::Relaxed);
        agg.bytes_out.fetch_add(snap.bytes_out, Ordering::Relaxed);
        agg.chunks_touched
            .fetch_add(snap.chunks_touched, Ordering::Relaxed);
        agg.delta_chain_depth_max
            .fetch_max(snap.delta_chain_depth, Ordering::Relaxed);
        agg.retries.fetch_add(snap.retries, Ordering::Relaxed);
        agg.failovers.fetch_add(snap.failovers, Ordering::Relaxed);
        agg.degraded_legs
            .fetch_add(snap.degraded_legs, Ordering::Relaxed);
        agg.queue_wait_us
            .fetch_add(snap.queue_wait_us, Ordering::Relaxed);
    }

    /// The aggregate for one op class, if any ops finished under it.
    pub fn entry(&self, op_class: &str) -> Option<LedgerEntry> {
        let agg = self.classes.lock().get(op_class).cloned()?;
        Some(Self::entry_of(op_class, &agg))
    }

    /// Every op class's aggregate, sorted by class name.
    pub fn entries(&self) -> Vec<LedgerEntry> {
        self.classes
            .lock()
            .iter()
            .map(|(k, v)| Self::entry_of(k, v))
            .collect()
    }

    fn entry_of(op_class: &str, agg: &ClassAgg) -> LedgerEntry {
        LedgerEntry {
            op_class: op_class.to_string(),
            ops: agg.ops.load(Ordering::Relaxed),
            errors: agg.errors.load(Ordering::Relaxed),
            bytes_in: agg.bytes_in.load(Ordering::Relaxed),
            bytes_out: agg.bytes_out.load(Ordering::Relaxed),
            chunks_touched: agg.chunks_touched.load(Ordering::Relaxed),
            delta_chain_depth_max: agg.delta_chain_depth_max.load(Ordering::Relaxed),
            retries: agg.retries.load(Ordering::Relaxed),
            failovers: agg.failovers.load(Ordering::Relaxed),
            degraded_legs: agg.degraded_legs.load(Ordering::Relaxed),
            queue_wait_us: agg.queue_wait_us.load(Ordering::Relaxed),
        }
    }

    /// `evostore_ledger_*` metrics for every op class, labelled with
    /// the owning node (registry source form).
    pub fn metrics(&self, node: &str) -> Vec<Metric> {
        let mut out = Vec::new();
        for e in self.entries() {
            let lab = |m: Metric| m.with_label("node", node).with_label("op", &e.op_class);
            out.push(lab(Metric::counter("evostore_ledger_ops_total", e.ops)));
            out.push(lab(Metric::counter(
                "evostore_ledger_errors_total",
                e.errors,
            )));
            out.push(lab(Metric::counter(
                "evostore_ledger_bytes_in_total",
                e.bytes_in,
            )));
            out.push(lab(Metric::counter(
                "evostore_ledger_bytes_out_total",
                e.bytes_out,
            )));
            out.push(lab(Metric::counter(
                "evostore_ledger_chunks_touched_total",
                e.chunks_touched,
            )));
            out.push(lab(Metric::gauge(
                "evostore_ledger_delta_chain_depth_max",
                e.delta_chain_depth_max as f64,
            )));
            out.push(lab(Metric::counter(
                "evostore_ledger_retries_total",
                e.retries,
            )));
            out.push(lab(Metric::counter(
                "evostore_ledger_failovers_total",
                e.failovers,
            )));
            out.push(lab(Metric::counter(
                "evostore_ledger_degraded_legs_total",
                e.degraded_legs,
            )));
            out.push(lab(Metric::counter(
                "evostore_ledger_queue_wait_us_total",
                e.queue_wait_us,
            )));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_only_flow_into_an_installed_cell() {
        add_bytes_in(100); // no cell installed: dropped, not a panic
        let costs = OpCosts::new();
        {
            let _g = install_costs(Some(costs.clone()));
            add_bytes_in(10);
            add_bytes_out(20);
            add_chunks_touched(3);
            note_delta_chain_depth(4);
            note_delta_chain_depth(2); // max keeps 4
            add_retry();
            add_failovers(1);
            add_degraded_legs(2);
            add_queue_wait_us(500);
        }
        add_bytes_in(999); // guard dropped: ambient cell gone again
        let s = costs.snapshot();
        assert_eq!(s.bytes_in, 10);
        assert_eq!(s.bytes_out, 20);
        assert_eq!(s.chunks_touched, 3);
        assert_eq!(s.delta_chain_depth, 4);
        assert_eq!(s.retries, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.degraded_legs, 2);
        assert_eq!(s.queue_wait_us, 500);
    }

    #[test]
    fn guard_nesting_restores_the_outer_cell() {
        let outer = OpCosts::new();
        let inner = OpCosts::new();
        let _g1 = install_costs(Some(outer.clone()));
        {
            let _g2 = install_costs(Some(inner.clone()));
            add_bytes_in(7);
        }
        add_bytes_in(5);
        assert_eq!(inner.snapshot().bytes_in, 7);
        assert_eq!(outer.snapshot().bytes_in, 5);
    }

    #[test]
    fn cross_thread_legs_charge_the_captured_cell() {
        let costs = OpCosts::new();
        let _g = install_costs(Some(costs.clone()));
        let captured = current_costs();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _leg = install_costs(captured.clone());
                add_bytes_out(42);
            });
        });
        assert_eq!(costs.snapshot().bytes_out, 42);
    }

    #[test]
    fn ledger_aggregates_by_class_and_exports_metrics() {
        let ledger = OpLedger::new();
        let a = OpCosts::new();
        a.bytes_in.store(10, Ordering::Relaxed);
        a.delta_chain_depth.store(3, Ordering::Relaxed);
        ledger.finish_op("fetch", true, &a);
        let b = OpCosts::new();
        b.bytes_in.store(5, Ordering::Relaxed);
        b.delta_chain_depth.store(1, Ordering::Relaxed);
        b.retries.store(2, Ordering::Relaxed);
        ledger.finish_op("fetch", false, &b);
        ledger.finish_op("store", true, &OpCosts::new());

        let fetch = ledger.entry("fetch").unwrap();
        assert_eq!(fetch.ops, 2);
        assert_eq!(fetch.errors, 1);
        assert_eq!(fetch.bytes_in, 15);
        assert_eq!(fetch.delta_chain_depth_max, 3);
        assert_eq!(fetch.retries, 2);
        assert_eq!(ledger.entries().len(), 2);

        let m = ledger.metrics("client0");
        let ops = m
            .iter()
            .find(|m| {
                m.name == "evostore_ledger_ops_total" && m.labels.iter().any(|(_, v)| v == "fetch")
            })
            .unwrap();
        assert!(ops
            .labels
            .iter()
            .any(|(k, v)| k == "node" && v == "client0"));
    }
}
