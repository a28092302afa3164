//! The key-value backend abstraction.

use bytes::Bytes;

use crate::metrics::MetricsSnapshot;

/// Errors a backend can produce.
///
/// In-memory backends only ever return `NotFound`; the log store adds I/O
/// and corruption cases.
#[derive(Debug)]
pub enum KvError {
    /// Key not present.
    NotFound,
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A persisted record failed its integrity check.
    Corrupt { detail: String },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::NotFound => write!(f, "key not found"),
            KvError::Io(e) => write!(f, "kv i/o error: {e}"),
            KvError::Corrupt { detail } => write!(f, "kv corruption: {detail}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<std::io::Error> for KvError {
    fn from(e: std::io::Error) -> Self {
        KvError::Io(e)
    }
}

impl PartialEq for KvError {
    fn eq(&self, other: &Self) -> bool {
        matches!(
            (self, other),
            (KvError::NotFound, KvError::NotFound)
                | (KvError::Corrupt { .. }, KvError::Corrupt { .. })
        )
    }
}

/// A thread-safe key-value store.
///
/// All methods take `&self`: implementations synchronize internally, since
/// a provider serves many concurrent clients.
pub trait KvBackend: Send + Sync {
    /// Insert or overwrite `key`.
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError>;

    /// Fetch a value (cheap clone of a shared buffer for in-memory
    /// backends).
    fn get(&self, key: &[u8]) -> Result<Bytes, KvError>;

    /// Append the value under `key` to `out`, recording the same read
    /// metrics as [`KvBackend::get`]; on an error `out` is as it was.
    /// A backend that reads its values from a file reads this one into
    /// its place in `out` — how [`crate::ChunkedStore`] lays a record's
    /// chunks end to end without a buffer per chunk. The default copies
    /// the value `get` returns.
    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<(), KvError> {
        out.extend_from_slice(&self.get(key)?);
        Ok(())
    }

    /// Insert or overwrite `key` with a value held as a rope: `segments`
    /// in order are the value's bytes. [`KvBackend::get`] returns their
    /// concatenation, exactly as if it had been [`KvBackend::put`].
    ///
    /// Backends that keep values in memory store the rope as it is — a
    /// tensor record that borrows its payload is never copied on its way
    /// in. The default, for backends that write the bytes out anyway,
    /// gathers and `put`s.
    fn put_segments(&self, key: &[u8], segments: Vec<Bytes>) -> Result<(), KvError> {
        self.put(key, evostore_tensor::rope::flatten(&segments))
    }

    /// Zero-copy fetch of a *memory-resident* value: `Some` is the value
    /// as an ordered list of the backend's own shared buffers (cheap
    /// clones; one for a value stored whole, one per chunk or segment for
    /// a value stored in pieces) — no I/O, no promotion side effects —
    /// and records the same read metrics as a successful
    /// [`KvBackend::get`]: exactly one read of the full logical length.
    /// `None` means the value is not memory-resident — absent, or any
    /// piece of it parked on disk — and records *nothing*: the caller is
    /// expected to fall back to `get`, whose miss/read accounting then
    /// keeps the counters identical to a plain single-get path.
    ///
    /// The default (disk-backed or non-caching stores) is `None`.
    fn get_resident(&self, key: &[u8]) -> Option<Vec<Bytes>> {
        let _ = key;
        None
    }

    /// Remove a key. `Ok(true)` when it existed.
    fn delete(&self, key: &[u8]) -> Result<bool, KvError>;

    /// Presence check without copying the value.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_ok()
    }

    /// Number of live keys.
    fn len(&self) -> usize;

    /// True when no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of live values (the storage-space metric of Fig 10).
    fn bytes_used(&self) -> usize;

    /// Snapshot of all live keys (diagnostics, GC audits, compaction).
    fn keys(&self) -> Vec<Vec<u8>>;

    /// Visit every live key without materializing a `Vec<Vec<u8>>`
    /// snapshot — the allocation-free form of [`KvBackend::keys`] for
    /// digest and GC-audit passes that only need to iterate. Keys may be
    /// visited in any order; mutations made *during* the walk (from
    /// other threads) may or may not be observed, exactly like `keys`.
    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        for k in self.keys() {
            f(&k);
        }
    }

    /// Operation/byte counters, for backends that keep them. `None`
    /// means the backend doesn't track metrics; aggregators should
    /// treat it as all-zero rather than an error.
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

impl<T: KvBackend + ?Sized> KvBackend for Box<T> {
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        (**self).put(key, value)
    }
    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        (**self).get(key)
    }
    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<(), KvError> {
        (**self).get_into(key, out)
    }
    fn put_segments(&self, key: &[u8], segments: Vec<Bytes>) -> Result<(), KvError> {
        (**self).put_segments(key, segments)
    }
    fn get_resident(&self, key: &[u8]) -> Option<Vec<Bytes>> {
        (**self).get_resident(key)
    }
    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        (**self).delete(key)
    }
    fn contains(&self, key: &[u8]) -> bool {
        (**self).contains(key)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn bytes_used(&self) -> usize {
        (**self).bytes_used()
    }
    fn keys(&self) -> Vec<Vec<u8>> {
        (**self).keys()
    }
    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        (**self).for_each_key(f)
    }
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        (**self).metrics_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(KvError::NotFound.to_string(), "key not found");
        let c = KvError::Corrupt {
            detail: "bad crc".into(),
        };
        assert!(c.to_string().contains("bad crc"));
    }

    #[test]
    fn error_eq_ignores_detail() {
        let a = KvError::Corrupt { detail: "x".into() };
        let b = KvError::Corrupt { detail: "y".into() };
        assert_eq!(a, b);
        assert_ne!(a, KvError::NotFound);
    }
}
