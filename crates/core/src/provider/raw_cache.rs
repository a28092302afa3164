//! The raw-record cache: on the chunked substrate, the raw (EVST) ropes
//! of the records a provider's newest derived stores wrote, so that a
//! just-stored model loads, and its child delta-encodes, with no log read
//! and no chain decode.
//!
//! * **Filled** by the store landing (`provider/catalog.rs`) alone: a
//!   store with a local parent puts each record's validated rope, with the
//!   delta depth it is stored at, after its writes and before the model
//!   is published.
//! * **Taken** by the delta encoder: a child's base entry leaves the cache
//!   when the child is encoded against it, since the child is now the
//!   lineage's newest record.
//! * **Read** by `READ` and `READ_RANGE`, before the store.
//! * **Dropped** by the release path (`provider/refs.rs`) before a
//!   record's last reference goes, so an entry lives no longer than the
//!   record under its key; a record is immutable while it is stored (a
//!   write refuses a held key), so an entry is the bytes its key holds.
//!
//! In-process an entry is a view of the writer's own tensor buffers, so
//! the cache copies nothing; it holds at most [`RAW_CACHE_CAP`] bytes and
//! evicts the oldest entry first.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use evostore_tensor::{rope, TensorKey};
use parking_lot::Mutex;

/// Bytes of raw records a provider keeps at most. On the
/// `replicated_finetune` benchmark a provider holds the newest generation
/// of 8 lineages (primary and mirror) at 2.1 MB each, 16.8 MB in all: at
/// 16 MiB the encoder's base hit rate fell to 73 % and `store_ms_p50`
/// rose 1.33×; 24, 32 and 48 MiB all held the working set (97.7 % hits)
/// and moved nothing measured. 32 MiB leaves room for nearly twice the
/// lineages.
pub const RAW_CACHE_CAP: usize = 32 << 20;

/// A cached record: its raw rope and the delta depth it is stored at (0
/// for a record stored raw).
pub(super) struct RawRecord {
    pub(super) rope: Vec<Bytes>,
    pub(super) depth: u8,
}

struct Entry {
    record: RawRecord,
    /// Its place in [`Entries::order`].
    stamp: u64,
    len: usize,
}

#[derive(Default)]
struct Entries {
    by_key: HashMap<TensorKey, Entry>,
    /// Insertion stamp → key, oldest first.
    order: BTreeMap<u64, TensorKey>,
    next_stamp: u64,
    bytes: usize,
}

impl Entries {
    fn remove(&mut self, key: &TensorKey) -> Option<RawRecord> {
        let entry = self.by_key.remove(key)?;
        self.order.remove(&entry.stamp);
        self.bytes -= entry.len;
        Some(entry.record)
    }
}

/// One provider's raw-record cache.
pub(super) struct RawCache {
    cap: usize,
    entries: Mutex<Entries>,
}

impl RawCache {
    pub(super) fn new() -> RawCache {
        RawCache::with_cap(RAW_CACHE_CAP)
    }

    fn with_cap(cap: usize) -> RawCache {
        RawCache {
            cap,
            entries: Mutex::default(),
        }
    }

    /// Keep `rope` as `key`'s raw record, stored at delta `depth`, in place
    /// of any entry under `key`, and evict the oldest entries past the
    /// cap. A record larger than the cap is not kept.
    pub(super) fn admit(&self, key: TensorKey, rope: Vec<Bytes>, depth: u8) {
        let len = rope::len(&rope);
        let mut entries = self.entries.lock();
        entries.remove(&key);
        if len > self.cap {
            return;
        }
        let stamp = entries.next_stamp;
        entries.next_stamp += 1;
        entries.order.insert(stamp, key);
        entries.bytes += len;
        let record = RawRecord { rope, depth };
        entries.by_key.insert(key, Entry { record, stamp, len });
        while entries.bytes > self.cap {
            let (_, &oldest) = entries.order.first_key_value().expect("bytes held");
            entries.remove(&oldest);
        }
    }

    /// `key`'s raw record, left in the cache.
    pub(super) fn get(&self, key: &TensorKey) -> Option<Vec<Bytes>> {
        let entries = self.entries.lock();
        entries.by_key.get(key).map(|e| e.record.rope.clone())
    }

    /// `key`'s raw record, taken out of the cache.
    pub(super) fn take(&self, key: &TensorKey) -> Option<RawRecord> {
        self.entries.lock().remove(key)
    }

    /// Forget `key`'s entry, if there is one.
    pub(super) fn remove(&self, key: &TensorKey) {
        self.entries.lock().remove(key);
    }

    /// Bytes of raw records held.
    pub(super) fn bytes(&self) -> usize {
        self.entries.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use evostore_tensor::{ModelId, VertexId};

    use super::*;

    fn key(i: u64) -> TensorKey {
        TensorKey::new(ModelId(i), VertexId(1), 0)
    }

    /// A rope of `len` bytes, in two segments.
    fn rope_of(len: usize, fill: u8) -> Vec<Bytes> {
        let bytes = Bytes::from(vec![fill; len]);
        vec![bytes.slice(..len / 2), bytes.slice(len / 2..)]
    }

    #[test]
    fn the_oldest_entries_go_first_when_the_cap_is_passed() {
        let cache = RawCache::with_cap(100);
        for i in 0..4 {
            cache.admit(key(i), rope_of(30, i as u8), 0);
        }
        // 120 bytes put: the oldest goes, the three newest stay.
        assert_eq!(cache.bytes(), 90);
        assert!(cache.get(&key(0)).is_none());
        for i in 1..4 {
            assert_eq!(cache.get(&key(i)), Some(rope_of(30, i as u8)));
        }
        // A re-admitted key counts as new: the next eviction passes it over.
        cache.admit(key(1), rope_of(30, 9), 2);
        cache.admit(key(4), rope_of(30, 4), 0);
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(cache.take(&key(1)).map(|r| r.depth), Some(2));
        assert_eq!(cache.bytes(), 60);
        // One entry that fills the cache pushes out everything else.
        cache.admit(key(5), rope_of(100, 5), 0);
        assert_eq!(cache.bytes(), 100);
        assert!(cache.get(&key(3)).is_none() && cache.get(&key(4)).is_none());
    }

    #[test]
    fn a_take_hands_the_record_over_once() {
        let cache = RawCache::with_cap(100);
        cache.admit(key(1), rope_of(40, 1), 3);
        let taken = cache.take(&key(1)).expect("held");
        assert_eq!((taken.rope, taken.depth), (rope_of(40, 1), 3));
        assert!(cache.take(&key(1)).is_none());
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn the_byte_count_follows_every_change() {
        let cache = RawCache::with_cap(100);
        cache.admit(key(1), rope_of(10, 1), 0);
        cache.admit(key(2), rope_of(20, 2), 1);
        assert_eq!(cache.bytes(), 30);
        // A re-admitted key's new bytes replace its old ones.
        cache.admit(key(1), rope_of(14, 3), 0);
        assert_eq!(cache.bytes(), 34);
        cache.remove(&key(2));
        cache.remove(&key(2));
        assert_eq!(cache.bytes(), 14);
        // A record past the cap is not kept, and takes its key's old
        // entry with it.
        cache.admit(key(1), rope_of(101, 4), 0);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.entries.lock().order.is_empty());
    }
}
