//! Lock-free published snapshots: a hand-rolled `ArcSwap` equivalent.
//!
//! [`SnapshotCell<T>`] holds one `Arc<T>` behind an atomic pointer.
//! Readers ([`SnapshotCell::load`]) pin the current value without taking
//! any lock — they publish the pointer they are about to use into one of
//! a fixed set of *hazard slots*, re-verify it is still current, and only
//! then bump the strong count. Writers ([`SnapshotCell::store`]) publish
//! a replacement with a single atomic pointer swap, so readers always see
//! either the old or the new value — never a partially-applied state —
//! and a writer never blocks a reader.
//!
//! Reclamation is hazard-pointer style: a swapped-out value goes onto a
//! retired list (writer-side only) and is dropped once no hazard slot
//! protects its address. The safety argument is the classic one and
//! relies on every cross-thread step being `SeqCst`:
//!
//! 1. a reader stores its candidate pointer into a hazard slot, *then*
//!    re-loads the current pointer; it proceeds only if they match;
//! 2. a writer swaps the current pointer, *then* scans the hazard slots.
//!
//! If the reader's verifying load saw the old value, it happened before
//! the writer's swap in the total `SeqCst` order, hence the reader's slot
//! store also precedes the writer's scan — the writer keeps the value
//! alive. Otherwise the reader observes the new pointer and retries, and
//! never dereferences the retired one. Address reuse (ABA) is benign:
//! protection is by address, so a hazard slot naming a reused address
//! protects whichever live snapshot now occupies it.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of hazard slots — an upper bound on readers *concurrently
/// inside* `load` (not on reader threads; slots are held for a few
/// instructions only). Excess readers spin-yield until a slot frees.
const SLOTS: usize = 64;

/// One cache-line-padded hazard slot.
#[repr(align(64))]
struct Slot(AtomicPtr<()>);

/// Round-robin starting slot per thread, to spread CAS traffic.
static NEXT_HINT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static HAZARD_HINT: usize = NEXT_HINT.fetch_add(1, Ordering::Relaxed);
}

/// An atomically swappable `Arc<T>` with lock-free reads.
pub struct SnapshotCell<T> {
    /// Current value, as a raw pointer owning one strong count.
    current: AtomicPtr<T>,
    /// Hazard slots protecting in-flight reads.
    hazards: Box<[Slot; SLOTS]>,
    /// Swapped-out values awaiting reclamation (writer side).
    retired: Mutex<Vec<*mut T>>,
    /// Total publications, for observability.
    swaps: AtomicU64,
}

// Raw pointers make these !Send/!Sync by default; the hazard protocol
// above is exactly what makes sharing sound, provided T itself is
// shareable (the cell hands out Arc<T> clones across threads).
unsafe impl<T: Send + Sync> Send for SnapshotCell<T> {}
unsafe impl<T: Send + Sync> Sync for SnapshotCell<T> {}

impl<T: Send + Sync> SnapshotCell<T> {
    /// New cell holding `value`.
    pub fn new(value: Arc<T>) -> SnapshotCell<T> {
        SnapshotCell {
            current: AtomicPtr::new(Arc::into_raw(value) as *mut T),
            hazards: Box::new(std::array::from_fn(|_| {
                Slot(AtomicPtr::new(ptr::null_mut()))
            })),
            retired: Mutex::new(Vec::new()),
            swaps: AtomicU64::new(0),
        }
    }

    /// Pin and return the current value. Lock-free: never blocks on a
    /// writer (spin-yields only if all hazard slots are momentarily
    /// occupied by other in-flight readers).
    pub fn load(&self) -> Arc<T> {
        let hint = HAZARD_HINT.with(|h| *h) % SLOTS;
        let mut p = self.current.load(Ordering::SeqCst);
        // Claim a free slot, publishing our candidate pointer into it.
        let slot = 'claim: loop {
            for i in 0..SLOTS {
                let s = &self.hazards[(hint + i) % SLOTS].0;
                if s.compare_exchange(
                    ptr::null_mut(),
                    p as *mut (),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                )
                .is_ok()
                {
                    break 'claim s;
                }
            }
            std::thread::yield_now();
            p = self.current.load(Ordering::SeqCst);
        };
        // Re-verify: the pointer may have been swapped (and retired)
        // between our initial load and the hazard publication.
        loop {
            let cur = self.current.load(Ordering::SeqCst);
            if cur == p {
                break;
            }
            p = cur;
            slot.store(p as *mut (), Ordering::SeqCst);
        }
        // `p` is protected: safe to take a new strong reference.
        let arc = unsafe {
            Arc::increment_strong_count(p as *const T);
            Arc::from_raw(p as *const T)
        };
        slot.store(ptr::null_mut(), Ordering::SeqCst);
        arc
    }

    /// Publish `value` as the new current snapshot and reclaim any
    /// retired predecessors no reader still protects.
    pub fn store(&self, value: Arc<T>) {
        let new_raw = Arc::into_raw(value) as *mut T;
        let old = self.current.swap(new_raw, Ordering::SeqCst);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        let mut retired = self.retired.lock();
        retired.push(old);
        let mut i = 0;
        while i < retired.len() {
            let q = retired[i];
            if self.is_hazard(q as *mut ()) {
                i += 1;
            } else {
                retired.swap_remove(i);
                unsafe { drop(Arc::from_raw(q as *const T)) };
            }
        }
    }

    fn is_hazard(&self, q: *mut ()) -> bool {
        self.hazards.iter().any(|s| s.0.load(Ordering::SeqCst) == q)
    }

    /// Number of publications so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Snapshots swapped out but not yet reclaimed (still pinned by a
    /// reader at the last publication).
    pub fn retired_len(&self) -> usize {
        self.retired.lock().len()
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // &mut self: no readers can exist, every raw pointer owns exactly
        // the one strong count `into_raw` leaked.
        let cur = *self.current.get_mut();
        unsafe { drop(Arc::from_raw(cur as *const T)) };
        for q in self.retired.get_mut().drain(..) {
            unsafe { drop(Arc::from_raw(q as *const T)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        drop(pinned);
        // The next publication reclaims everything unpinned: v1 and the
        // just-retired v2 both drop, leaving only the current v3.
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
