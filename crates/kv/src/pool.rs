//! Recycled read buffers for the log-backed read path.
//!
//! A value the log store reads from disk, a chunked record laid end to
//! end and a delta chain's raw base each need a buffer as large as the
//! record. Allocated fresh, such a buffer (a megabyte-sized layer is far
//! above glibc's mmap threshold) is mapped for the read and unmapped when
//! its reader drops it, so the next load faults every page in again —
//! about half of a chunked + delta load's CPU. The pool keeps the buffers
//! instead: [`take`] hands out a retained buffer that fits, and a
//! [`PoolBuf`] gives its buffer back when it is dropped — as itself, or,
//! once [`PoolBuf::freeze`]d, when the last [`Bytes`] view of it goes, on
//! whichever thread that is (a client dropping a loaded tensor included).
//!
//! The pool is process-wide and bounded: it keeps at most
//! [`RETAINED_CAP`] bytes of free buffers, and only buffers of at least
//! [`MIN_POOLED`] bytes; a buffer returned to a full pool is freed.
//! A read that hands out a store's own shared buffer (`MemPoolStore`'s,
//! every zero-copy read) takes nothing from it; a read that builds its
//! record does, on any backend: a delta chain's raw base, and a chunked
//! record of several chunks, come from the pool over `MemPoolStore` too.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::Mutex;

/// Bytes of free buffers the pool keeps at most. Measured on the
/// `replicated_finetune` benchmark, whose one client fine-tunes its users
/// in turn: at this cap the free list stood at 14 MiB (10–22 MiB) when a
/// run ended. A smaller cap frees what it cannot keep and allocates it
/// again: 1.23 fresh buffers per cycle at 8 MiB, 0.036 at 12 and 0.009 at
/// 16 against 0.003 here, and peak RSS 1.06×, 1.11× and 1.03× of this
/// cap's, while load latency held from 8 MiB up. 32 MiB moved neither.
pub const RETAINED_CAP: usize = 24 << 20;

/// The smallest buffer the pool hands out or keeps. Smaller requests are
/// plain allocations: the allocator's heap recycles them without a fault,
/// and a 64 KiB chunk or a sparse delta would only crowd the free list.
pub const MIN_POOLED: usize = 256 << 10;

/// A free buffer is handed to a request it fits with at most this factor
/// of slack, so a small record never pins a large buffer.
const MAX_SLACK: usize = 2;

struct Free {
    bufs: Vec<Vec<u8>>,
    bytes: usize,
}

/// A free list and its counters. The process has one, [`POOL`].
struct Pool {
    free: Mutex<Free>,
    recycled: AtomicU64,
    fresh: AtomicU64,
}

static POOL: Pool = Pool::new();

/// What the pool has done since the process started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served with a retained buffer.
    pub recycled: u64,
    /// Requests of at least [`MIN_POOLED`] bytes that found none and
    /// allocated.
    pub fresh: u64,
    /// Bytes of free buffers held now.
    pub retained_bytes: u64,
}

/// The pool's counters.
pub fn stats() -> PoolStats {
    POOL.stats()
}

/// An empty buffer with room for at least `capacity` bytes: the smallest
/// retained one that fits (with at most [`MAX_SLACK`] times the room),
/// else a fresh one. Below [`MIN_POOLED`] it is a plain allocation.
///
/// `capacity` is a hint, not a promise: a size the allocator cannot give
/// (one read off disk from a corrupt header, say) yields an empty buffer
/// that grows as it is filled, so the reader's own length checks report
/// the fault instead of the process aborting.
pub fn take(capacity: usize) -> PoolBuf {
    POOL.take(capacity)
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            free: Mutex::new(Free {
                bufs: Vec::new(),
                bytes: 0,
            }),
            recycled: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            recycled: self.recycled.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            retained_bytes: self.free.lock().bytes as u64,
        }
    }

    fn take(&'static self, capacity: usize) -> PoolBuf {
        let buf = if capacity < MIN_POOLED {
            allocate(capacity)
        } else if let Some(buf) = self.retained(capacity) {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            buf
        } else {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            allocate(capacity)
        };
        PoolBuf { buf, home: self }
    }

    /// The smallest free buffer that fits `capacity` with at most
    /// [`MAX_SLACK`] times the room, taken off the free list.
    fn retained(&self, capacity: usize) -> Option<Vec<u8>> {
        let fits = capacity..=capacity.saturating_mul(MAX_SLACK);
        let mut free = self.free.lock();
        let best = free
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| fits.contains(&b.capacity()))
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)?;
        let buf = free.bufs.swap_remove(best);
        free.bytes -= buf.capacity();
        Some(buf)
    }

    /// Keep `buf` if it is large enough and the pool has room; free it
    /// otherwise.
    fn give_back(&self, mut buf: Vec<u8>) {
        let size = buf.capacity();
        if size < MIN_POOLED {
            return;
        }
        let mut free = self.free.lock();
        if free.bytes + size <= RETAINED_CAP {
            buf.clear();
            free.bytes += size;
            free.bufs.push(buf);
        }
    }
}

/// A fresh buffer with room for `capacity` bytes, or an empty one when
/// the allocator cannot give that much.
fn allocate(capacity: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = buf.try_reserve_exact(capacity);
    buf
}

/// A buffer from [`take`], used as the `Vec` it is; it goes back to the
/// pool when dropped.
pub struct PoolBuf {
    buf: Vec<u8>,
    home: &'static Pool,
}

impl PoolBuf {
    /// The buffer as an immutable shared view, without a copy. A pooled
    /// buffer returns to the pool when its last view is dropped.
    pub fn freeze(mut self) -> Bytes {
        if self.buf.capacity() < MIN_POOLED {
            return Bytes::from(std::mem::take(&mut self.buf));
        }
        Bytes::from_owner(self)
    }
}

impl Deref for PoolBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        self.home.give_back(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The free buffers of `pool`, by address.
    fn held(pool: &Pool) -> Vec<*const u8> {
        pool.free.lock().bufs.iter().map(|b| b.as_ptr()).collect()
    }

    #[test]
    fn a_returned_buffer_serves_a_request_it_fits() {
        static POOL: Pool = Pool::new();
        let size = MIN_POOLED + 4096;
        let mut buf = POOL.take(size);
        buf.extend_from_slice(&[9; 100]);
        let ptr = buf.as_ptr();
        drop(buf);
        assert_eq!(held(&POOL), [ptr], "the dropped buffer was kept");
        // A request it fits (within the slack) gets it back, empty.
        let mut again = POOL.take(size - 100);
        assert_eq!((again.as_ptr(), again.len()), (ptr, 0));
        assert_eq!((POOL.stats().recycled, POOL.stats().fresh), (1, 1));
        assert_eq!(POOL.stats().retained_bytes, 0);
        // Frozen, it comes back when its last view goes, on any thread.
        again.extend_from_slice(&[1, 2, 3]);
        let view = again.freeze();
        let tail = view.slice(1..);
        drop(view);
        assert!(held(&POOL).is_empty(), "a view still holds it");
        std::thread::spawn(move || drop(tail)).join().unwrap();
        assert_eq!(held(&POOL), [ptr]);
    }

    #[test]
    fn a_request_it_does_not_fit_allocates() {
        static POOL: Pool = Pool::new();
        let size = 4 * MIN_POOLED;
        drop(POOL.take(size));
        // Too large, and too small to take a buffer twice its size.
        let big = POOL.take(size + 1);
        let small = POOL.take(size / MAX_SLACK - 1);
        assert_eq!((POOL.stats().recycled, POOL.stats().fresh), (0, 3));
        assert!(big.capacity() > size && small.capacity() < size);
        assert_eq!(held(&POOL).len(), 1);
        // Below the floor nothing is pooled or counted.
        drop(POOL.take(MIN_POOLED - 1));
        assert_eq!(POOL.stats().fresh, 3);
        assert_eq!(held(&POOL).len(), 1);
    }

    #[test]
    fn a_size_no_allocator_can_give_yields_an_empty_buffer() {
        static POOL: Pool = Pool::new();
        // Past `isize::MAX`, and past any address space.
        for capacity in [usize::MAX, 1 << 62] {
            let mut buf = POOL.take(capacity);
            assert_eq!(buf.len(), 0);
            buf.extend_from_slice(&[7; 16]);
            assert_eq!(&buf[..], &[7; 16]);
        }
        assert_eq!(POOL.stats().fresh, 2);
        assert!(held(&POOL).is_empty(), "a small grown buffer is freed");
    }

    #[test]
    fn retained_bytes_never_exceed_the_cap() {
        static POOL: Pool = Pool::new();
        let size = 1 << 20;
        let count = RETAINED_CAP / size + 2;
        let bufs: Vec<PoolBuf> = (0..count).map(|_| POOL.take(size)).collect();
        let ptrs: Vec<*const u8> = bufs.iter().map(|b| b.as_ptr()).collect();
        for buf in bufs {
            drop(buf);
            assert!(POOL.stats().retained_bytes as usize <= RETAINED_CAP);
        }
        // The pool was full when the last two came back: they were freed.
        assert_eq!(POOL.stats().retained_bytes as usize, RETAINED_CAP);
        assert_eq!(held(&POOL), ptrs[..count - 2]);
    }
}
