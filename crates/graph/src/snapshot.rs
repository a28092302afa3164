//! Published snapshots: one `Arc<T>` that a writer replaces and readers
//! pin.
//!
//! [`SnapshotCell<T>`] holds the current value behind a read-write lock
//! taken only for the pointer itself: [`SnapshotCell::load`] clones the
//! `Arc` under the read lock, [`SnapshotCell::store`] swaps it under the
//! write lock and drops the predecessor after releasing it. Readers
//! therefore see either the old or the new value — never a partially
//! applied state — and a swapped-out value lives exactly as long as the
//! last reader that pinned it. (A hazard-slot cell with lock-free loads
//! stood here until publication fell to 0.3–1.4 % of an op; EXPERIMENTS.md
//! "The `SnapshotCell` trial" has the runs that retired it.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// An atomically swappable `Arc<T>`.
pub struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
    /// Total publications, for observability.
    swaps: AtomicU64,
}

impl<T: Send + Sync> SnapshotCell<T> {
    /// New cell holding `value`.
    pub fn new(value: Arc<T>) -> SnapshotCell<T> {
        SnapshotCell {
            current: RwLock::new(value),
            swaps: AtomicU64::new(0),
        }
    }

    /// Pin and return the current value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Publish `value` as the new current snapshot. The predecessor is
    /// dropped here unless a reader still pins it.
    pub fn store(&self, value: Arc<T>) {
        let old = std::mem::replace(&mut *self.current.write(), value);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        drop(old);
    }

    /// Number of publications so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    struct Counted {
        a: u64,
        b: u64,
        live: Arc<AtomicUsize>,
    }

    impl Counted {
        fn new(v: u64, live: &Arc<AtomicUsize>) -> Arc<Counted> {
            live.fetch_add(1, Ordering::SeqCst);
            Arc::new(Counted {
                a: v,
                b: v.wrapping_mul(3),
                live: Arc::clone(live),
            })
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    struct CountOnDrop<'a>(&'a AtomicUsize);

    impl Drop for CountOnDrop<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn load_returns_latest_store() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(Counted::new(1, &live));
        assert_eq!(cell.load().a, 1);
        cell.store(Counted::new(2, &live));
        assert_eq!(cell.load().a, 2);
        assert_eq!(cell.swaps(), 1);
        drop(cell);
        assert_eq!(live.load(Ordering::SeqCst), 0, "all snapshots dropped");
    }

    #[test]
    fn retired_snapshot_survives_while_pinned() {
        let live = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(Counted::new(1, &live));
        let pinned = cell.load();
        cell.store(Counted::new(2, &live));
        // The old snapshot is still reachable through `pinned`.
        assert_eq!(pinned.a, 1);
        assert_eq!(live.load(Ordering::SeqCst), 2);
        // The last pin drops it, exactly once; publications drop their
        // unpinned predecessor themselves.
        drop(pinned);
        assert_eq!(live.load(Ordering::SeqCst), 1);
        cell.store(Counted::new(3, &live));
        assert_eq!(live.load(Ordering::SeqCst), 1);
        drop(cell);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_readers_always_see_coherent_snapshots() {
        const READERS: usize = 4;
        const LOADS_PER_READER: usize = 2000;
        let live = Arc::new(AtomicUsize::new(0));
        let cell = SnapshotCell::new(Counted::new(0, &live));
        // Readers and the writer start together; the writer keeps
        // publishing until every reader has done its fixed number of
        // loads, so loads and stores overlap however threads are
        // scheduled.
        let start = Barrier::new(READERS + 1);
        let readers_done = AtomicUsize::new(0);
        let mut published = 0u64;

        std::thread::scope(|s| {
            for _ in 0..READERS {
                s.spawn(|| {
                    // Counts on unwind too: a failed reader must not
                    // leave the writer publishing forever.
                    let _done = CountOnDrop(&readers_done);
                    start.wait();
                    let mut last = 0u64;
                    for _ in 0..LOADS_PER_READER {
                        let snap = cell.load();
                        assert_eq!(snap.b, snap.a.wrapping_mul(3), "torn snapshot observed");
                        assert!(snap.a >= last, "publication order went backwards");
                        last = snap.a;
                    }
                });
            }
            start.wait();
            while readers_done.load(Ordering::SeqCst) < READERS {
                published += 1;
                cell.store(Counted::new(published, &live));
            }
        });
        assert_eq!(cell.swaps(), published);
        assert_eq!(cell.load().a, published);
        drop(cell);
        assert_eq!(live.load(Ordering::SeqCst), 0, "no snapshot leaked");
    }
}
