//! Operation counters shared by the backends.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Lock-free operation counters.
///
/// Relaxed ordering throughout: counters are monotone diagnostics, never
/// synchronization points.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    puts: AtomicU64,
    gets: AtomicU64,
    misses: AtomicU64,
    deletes: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

/// A point-in-time copy of [`StoreMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Completed put operations.
    pub puts: u64,
    /// Completed get hits.
    pub gets: u64,
    /// Get misses.
    pub misses: u64,
    /// Completed deletes of existing keys.
    pub deletes: u64,
    /// Total value bytes written.
    pub bytes_written: u64,
    /// Total value bytes read.
    pub bytes_read: u64,
}

impl MetricsSnapshot {
    /// Element-wise sum (for aggregating across tiers or providers).
    pub fn merge(self, other: MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            puts: self.puts + other.puts,
            gets: self.gets + other.gets,
            misses: self.misses + other.misses,
            deletes: self.deletes + other.deletes,
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
        }
    }
}

impl StoreMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> StoreMetrics {
        StoreMetrics::default()
    }

    pub(crate) fn record_put(&self, bytes: usize) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_get(&self, bytes: usize) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_delete(&self) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = StoreMetrics::new();
        m.record_put(10);
        m.record_put(5);
        m.record_get(7);
        m.record_miss();
        m.record_delete();
        let s = m.snapshot();
        assert_eq!(s.puts, 2);
        assert_eq!(s.bytes_written, 15);
        assert_eq!(s.gets, 1);
        assert_eq!(s.bytes_read, 7);
        assert_eq!(s.misses, 1);
        assert_eq!(s.deletes, 1);
    }
}
