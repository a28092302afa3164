//! Append-only log store (the RocksDB-substitute persistent backend).
//!
//! A provider configured for persistence appends every put to a segment
//! file and keeps an in-memory index `key -> (segment, offset)`. Deletes
//! append tombstones. Re-opening a directory replays the segments (newest
//! record wins), stopping at the first torn record of the final segment —
//! the standard crash-recovery contract of log-structured stores. Torn
//! means a prefix of a record, or a record whose check fails, *under this
//! format's magic*: bytes this build cannot verify because another format
//! wrote them (format 1's `"LOGS"` records carry an FNV-1a check) are
//! refused with [`KvError::Corrupt`] and never truncated.
//! Compaction rewrites live records once dead bytes dominate; a pass that
//! fails before its rewrite is down changes nothing a reader sees.
//!
//! Format of one record (format 2):
//!
//! ```text
//! magic  u32  0x4C4F4732 ("LOG2")
//! klen   u32
//! vlen   u32  (u32::MAX = tombstone)
//! key    klen bytes
//! value  vlen bytes (absent for tombstones)
//! crc    u64  checksum64(key ++ value)
//! ```

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::api::{KvBackend, KvError};
use crate::metrics::StoreMetrics;

const MAGIC: u32 = 0x4C4F_4732;
/// Record magic of log format 1 (`"LOGS"`), whose crc was the low half of
/// FNV-1a-128. Recognised only to be refused.
const LEGACY_MAGIC: u32 = 0x4C4F_4753;
const TOMBSTONE: u32 = u32::MAX;
const HEADER: usize = 12;
const TRAILER: usize = 8;
/// Rotate the active segment beyond this many bytes.
const SEGMENT_MAX_BYTES: u64 = 64 * 1024 * 1024;
/// Compact when dead bytes exceed this fraction of total bytes.
const COMPACT_GARBAGE_RATIO: f64 = 0.5;

#[derive(Clone)]
struct IndexEntry {
    segment: u64,
    /// Offset of the *value* inside the segment file.
    value_offset: u64,
    value_len: u32,
}

struct Segment {
    file: Arc<File>,
    path: PathBuf,
    len: u64,
}

struct Inner {
    dir: PathBuf,
    segment_max_bytes: u64,
    compact_garbage_ratio: f64,
    segments: HashMap<u64, Segment>,
    active: u64,
    // The books: the index and the byte counts of the segments' records.
    // Every record landing goes through `land`; compaction adds only a
    // failed pass's copies (dead) and drops the segments it unlinks.
    index: HashMap<Box<[u8]>, IndexEntry>,
    live_bytes: u64,
    /// Bytes of overwritten/deleted records (compaction trigger).
    dead_bytes: u64,
    total_bytes: u64,
}

/// Append-only persistent KV backend.
pub struct LogStore {
    inner: Mutex<Inner>,
    metrics: StoreMetrics,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

fn record_len(klen: usize, vlen: usize) -> u64 {
    (HEADER + klen + vlen + TRAILER) as u64
}

/// Write every byte of `parts`, in order, retrying short writes.
fn write_all_vectored(mut file: &File, mut parts: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !parts.is_empty() {
        match file.write_vectored(parts) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl LogStore {
    /// Open (or create) a log store in `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<LogStore, KvError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;

        // Discover existing segments.
        let mut ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
            {
                if let Ok(id) = rest.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();

        let mut inner = Inner {
            dir: dir.clone(),
            segment_max_bytes: SEGMENT_MAX_BYTES,
            compact_garbage_ratio: COMPACT_GARBAGE_RATIO,
            segments: HashMap::new(),
            active: 0,
            index: HashMap::new(),
            live_bytes: 0,
            dead_bytes: 0,
            total_bytes: 0,
        };

        let last = ids.last().copied();
        for id in &ids {
            inner.replay_segment(*id, Some(*id) == last)?;
        }

        let active = last.unwrap_or(0);
        if !inner.segments.contains_key(&active) {
            inner.create_segment(active)?;
        }
        inner.active = active;

        Ok(LogStore {
            inner: Mutex::new(inner),
            metrics: StoreMetrics::new(),
        })
    }

    /// Operation counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Number of on-disk segment files (diagnostics; compaction tests).
    pub fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Total bytes across all segment files, including dead records.
    pub fn disk_bytes(&self) -> u64 {
        self.inner.lock().total_bytes
    }

    /// Force a compaction regardless of the garbage ratio.
    pub fn compact(&self) -> Result<(), KvError> {
        self.inner.lock().compact()
    }
}

impl Inner {
    /// A record of `key` landed at `value_offset` of `segment`: a value of
    /// `value_len` bytes, or a tombstone (`None`). It is now the key's
    /// newest version; the version it replaces is dead, and so is a
    /// tombstone itself. Replay, put, delete and the compaction rewrite
    /// all keep their books here.
    fn land(&mut self, key: &[u8], value_len: Option<u32>, segment: u64, value_offset: u64) {
        let len = value_len.unwrap_or(0) as usize;
        self.total_bytes += record_len(key.len(), len);
        self.live_bytes += len as u64;
        let replaced = match value_len {
            Some(value_len) => self.index.insert(
                key.into(),
                IndexEntry {
                    segment,
                    value_offset,
                    value_len,
                },
            ),
            None => {
                self.dead_bytes += record_len(key.len(), 0);
                self.index.remove(key)
            }
        };
        if let Some(old) = replaced {
            self.dead_bytes += record_len(key.len(), old.value_len as usize);
            self.live_bytes -= old.value_len as u64;
        }
    }

    fn create_segment(&mut self, id: u64) -> Result<(), KvError> {
        let path = segment_path(&self.dir, id);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        self.segments.insert(
            id,
            Segment {
                file: Arc::new(file),
                path,
                len,
            },
        );
        Ok(())
    }

    /// Replay one segment into the books. For the final (possibly torn)
    /// segment, a torn tail is truncated away; for earlier segments it is
    /// an error, and so are foreign bytes in any segment.
    fn replay_segment(&mut self, id: u64, tolerate_torn_tail: bool) -> Result<(), KvError> {
        let path = segment_path(&self.dir, id);
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut pos = 0usize;
        let valid_up_to;
        loop {
            if pos == buf.len() {
                valid_up_to = pos;
                break;
            }
            match parse_record(&buf[pos..]) {
                Ok((key, value, consumed)) => {
                    let value_offset = (pos + HEADER + key.len()) as u64;
                    let value_len = value.map(|v| v.len() as u32);
                    self.land(key, value_len, id, value_offset);
                    pos += consumed;
                }
                Err(NotARecord::Torn(_)) if tolerate_torn_tail => {
                    valid_up_to = pos;
                    break;
                }
                Err(NotARecord::Torn(detail) | NotARecord::Foreign(detail)) => {
                    return Err(KvError::Corrupt {
                        detail: format!("segment {id} offset {pos}: {detail}"),
                    });
                }
            }
        }

        if valid_up_to < buf.len() {
            // Truncate the torn tail so future appends start clean.
            file.set_len(valid_up_to as u64)?;
        }

        self.segments.insert(
            id,
            Segment {
                file: Arc::new(file),
                path,
                len: valid_up_to as u64,
            },
        );
        Ok(())
    }

    /// Append one record to the active segment, rotating first when it is
    /// full, and return where its value lies: `(segment, value_offset)`.
    /// The books are the caller's to keep.
    fn append(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(u64, u64), KvError> {
        self.maybe_rotate()?;
        let id = self.active;
        let seg = self.segments.get_mut(&id).expect("active segment exists");

        let mut head = [0u8; HEADER];
        head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        head[4..8].copy_from_slice(&(key.len() as u32).to_le_bytes());
        let vword = value.map_or(TOMBSTONE, |v| v.len() as u32);
        head[8..12].copy_from_slice(&vword.to_le_bytes());
        let crc = evostore_tensor::checksum64_parts([key].into_iter().chain(value));
        let crc = crc.to_le_bytes();

        // The record goes out from where its pieces lie, in one vectored
        // write: append mode keeps it one record at the OS level, and the
        // Inner mutex serializes writers.
        let value = value.unwrap_or_default();
        let written = write_all_vectored(
            &seg.file,
            &mut [
                IoSlice::new(&head),
                IoSlice::new(key),
                IoSlice::new(value),
                IoSlice::new(&crc),
            ],
        );
        if let Err(e) = written {
            // Cut what part of the record got out, so the next append does
            // not land behind a torn record that replay would refuse.
            seg.file.set_len(seg.len)?;
            return Err(e.into());
        }
        let value_offset = seg.len + (HEADER + key.len()) as u64;
        seg.len += record_len(key.len(), value.len());
        Ok((id, value_offset))
    }

    /// Append a record and enter it in the books.
    fn write(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(), KvError> {
        let (segment, value_offset) = self.append(key, value)?;
        let value_len = value.map(|v| v.len() as u32);
        self.land(key, value_len, segment, value_offset);
        Ok(())
    }

    fn maybe_rotate(&mut self) -> Result<(), KvError> {
        let full = self
            .segments
            .get(&self.active)
            .map(|s| s.len >= self.segment_max_bytes)
            .unwrap_or(true);
        if full {
            let next = self.active + 1;
            self.create_segment(next)?;
            self.active = next;
        }
        Ok(())
    }

    fn should_compact(&self) -> bool {
        self.total_bytes > 0
            && (self.dead_bytes as f64) / (self.total_bytes as f64) > self.compact_garbage_ratio
            && self.dead_bytes > 4096
    }

    /// Rewrite all live records into fresh segments, numbered above every
    /// existing one, and delete the old files. The index moves to the
    /// copies only once every live record is down: a pass that fails
    /// before that leaves every read answering as it did, keeps what it
    /// wrote as dead bytes for the next pass to unlink, and leaves the
    /// active segment its last one, so later appends replay after its
    /// copies.
    fn compact(&mut self) -> Result<(), KvError> {
        // Snapshot live entries (key -> value bytes).
        let mut live: Vec<(Box<[u8]>, Vec<u8>)> = Vec::with_capacity(self.index.len());
        for (key, entry) in &self.index {
            let seg = self
                .segments
                .get(&entry.segment)
                .ok_or_else(|| KvError::Corrupt {
                    detail: format!("index references missing segment {}", entry.segment),
                })?;
            let mut buf = vec![0u8; entry.value_len as usize];
            seg.file.read_exact_at(&mut buf, entry.value_offset)?;
            live.push((key.clone(), buf));
        }

        let mut old: Vec<u64> = self.segments.keys().copied().collect();
        old.sort_unstable();
        let mut copies = Vec::with_capacity(live.len());
        if let Err(e) = self.rewrite(&live, &mut copies) {
            let written: u64 = live[..copies.len()]
                .iter()
                .map(|(key, value)| record_len(key.len(), value.len()))
                .sum();
            self.dead_bytes += written;
            self.total_bytes += written;
            return Err(e);
        }
        // Every old record is dead once its copy lands, so an old
        // segment leaves the books whole when it is unlinked.
        for ((key, value), (segment, value_offset)) in live.iter().zip(copies) {
            self.land(key, Some(value.len() as u32), segment, value_offset);
        }

        // Unlink oldest first and stop at the first failure. A deleted
        // key's put then never outlives the tombstone that killed it: any
        // segment left behind has every newer segment left with it, and
        // replay reads them in id order. What stays is dead weight for the
        // next compaction to unlink.
        for id in &old {
            match std::fs::remove_file(&self.segments[id].path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            let seg = self.segments.remove(id).expect("old segment is tracked");
            self.dead_bytes -= seg.len;
            self.total_bytes -= seg.len;
        }
        Ok(())
    }

    /// Write `live` into segments numbered from `active + 1` on, pushing
    /// where each value landed, `(segment, value_offset)`, onto `copies`.
    fn rewrite(
        &mut self,
        live: &[(Box<[u8]>, Vec<u8>)],
        copies: &mut Vec<(u64, u64)>,
    ) -> Result<(), KvError> {
        self.create_segment(self.active + 1)?;
        self.active += 1;
        for (key, value) in live {
            copies.push(self.append(key, Some(value))?);
        }
        Ok(())
    }
}

/// (key, value-or-tombstone, bytes consumed).
type ParsedRecord<'a> = (&'a [u8], Option<&'a [u8]>, usize);

/// Why the bytes at a replay position are not a valid record.
enum NotARecord {
    /// A prefix of a record under this format's magic, or one whose check
    /// fails: what a crash mid-append leaves at the tail.
    Torn(String),
    /// Bytes under another magic. This build did not write them and
    /// cannot verify them, so they are never mistaken for a torn tail.
    Foreign(String),
}

/// Parse one record from `buf`.
fn parse_record(buf: &[u8]) -> Result<ParsedRecord<'_>, NotARecord> {
    use NotARecord::{Foreign, Torn};
    if buf.len() < 4 {
        return Err(Torn("short header".into()));
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if magic == LEGACY_MAGIC {
        return Err(Foreign(
            "record written by log format 1 (FNV-1a check); this build reads format 2".into(),
        ));
    }
    if magic != MAGIC {
        return Err(Foreign(format!("bad magic 0x{magic:08x}")));
    }
    if buf.len() < HEADER {
        return Err(Torn("short header".into()));
    }
    let klen = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    let vword = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let (vlen, tomb) = if vword == TOMBSTONE {
        (0usize, true)
    } else {
        (vword as usize, false)
    };
    let need = HEADER + klen + vlen + TRAILER;
    if buf.len() < need {
        return Err(Torn("short record".into()));
    }
    let key = &buf[HEADER..HEADER + klen];
    let value = &buf[HEADER + klen..HEADER + klen + vlen];
    let crc = u64::from_le_bytes(
        buf[HEADER + klen + vlen..need]
            .try_into()
            .expect("8-byte trailer"),
    );
    if evostore_tensor::checksum64_parts([key, value]) != crc {
        return Err(Torn("crc mismatch".into()));
    }
    Ok((key, if tomb { None } else { Some(value) }, need))
}

impl KvBackend for LogStore {
    fn put(&self, key: &[u8], value: Bytes) -> Result<(), KvError> {
        self.metrics.record_put(value.len());
        let mut inner = self.inner.lock();
        inner.write(key, Some(&value))?;
        if inner.should_compact() {
            inner.compact()?;
        }
        Ok(())
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }

    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        let mut value = Vec::new();
        self.get_into(key, &mut value)?;
        Ok(Bytes::from(value))
    }

    /// The value is read from its segment straight into `out`.
    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<(), KvError> {
        // Look up under the lock, read the file outside it.
        let (file, offset, len) = {
            let inner = self.inner.lock();
            match inner.index.get(key) {
                Some(e) => {
                    let seg = inner
                        .segments
                        .get(&e.segment)
                        .ok_or_else(|| KvError::Corrupt {
                            detail: format!("missing segment {}", e.segment),
                        })?;
                    (Arc::clone(&seg.file), e.value_offset, e.value_len as usize)
                }
                None => {
                    self.metrics.record_miss();
                    return Err(KvError::NotFound);
                }
            }
        };
        let at = out.len();
        out.resize(at + len, 0);
        if let Err(e) = file.read_exact_at(&mut out[at..], offset) {
            out.truncate(at);
            return Err(e.into());
        }
        self.metrics.record_get(len);
        Ok(())
    }

    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        let mut inner = self.inner.lock();
        if !inner.index.contains_key(key) {
            return Ok(false);
        }
        inner.write(key, None)?;
        self.metrics.record_delete();
        if inner.should_compact() {
            inner.compact()?;
        }
        Ok(true)
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.inner.lock().index.contains_key(key)
    }

    fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    fn bytes_used(&self) -> usize {
        self.inner.lock().live_bytes as usize
    }

    /// Walks the index under the lock.
    fn for_each_key(&self, f: &mut dyn FnMut(&[u8])) {
        let inner = self.inner.lock();
        for k in inner.index.keys() {
            f(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogStore {
        /// Open with other limits than the production constants: small
        /// segments, or a garbage ratio that never triggers (manual
        /// compaction only).
        fn open_tuned(dir: &Path, segment_max_bytes: u64, compact_garbage_ratio: f64) -> LogStore {
            let s = LogStore::open(dir).unwrap();
            {
                let mut inner = s.inner.lock();
                inner.segment_max_bytes = segment_max_bytes;
                inner.compact_garbage_ratio = compact_garbage_ratio;
            }
            s
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "evostore-logstore-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let dir = tmpdir("basic");
        let s = LogStore::open(&dir).unwrap();
        s.put(b"k1", Bytes::from_static(b"v1")).unwrap();
        s.put(b"k2", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(s.get(b"k1").unwrap(), Bytes::from_static(b"v1"));
        assert_eq!(s.len(), 2);
        assert!(s.delete(b"k1").unwrap());
        assert_eq!(s.get(b"k1"), Err(KvError::NotFound));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_into_appends_the_value_and_a_miss_leaves_the_buffer() {
        let dir = tmpdir("into");
        let s = LogStore::open(&dir).unwrap();
        s.put(b"k", Bytes::from_static(b"value")).unwrap();
        let mut out = b"held ".to_vec();
        s.get_into(b"k", &mut out).unwrap();
        assert_eq!(out, b"held value");
        assert_eq!(s.get_into(b"gone", &mut out), Err(KvError::NotFound));
        assert_eq!(out, b"held value");
        let m = s.metrics().snapshot();
        assert_eq!((m.gets, m.bytes_read, m.misses), (1, 5, 1));
    }

    #[test]
    fn reopen_recovers_state() {
        let dir = tmpdir("reopen");
        {
            let s = LogStore::open(&dir).unwrap();
            s.put(b"a", Bytes::from_static(b"1")).unwrap();
            s.put(b"b", Bytes::from_static(b"2")).unwrap();
            s.put(b"a", Bytes::from_static(b"3")).unwrap(); // overwrite
            s.delete(b"b").unwrap();
        }
        let s = LogStore::open(&dir).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Bytes::from_static(b"3"));
        assert_eq!(s.get(b"b"), Err(KvError::NotFound));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tmpdir("torn");
        {
            let s = LogStore::open(&dir).unwrap();
            s.put(b"good", Bytes::from_static(b"value")).unwrap();
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let seg = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&MAGIC.to_le_bytes()).unwrap();
        f.write_all(&[9, 0, 0, 0]).unwrap(); // klen, then nothing
        drop(f);

        let s = LogStore::open(&dir).unwrap();
        assert_eq!(s.get(b"good").unwrap(), Bytes::from_static(b"value"));
        assert_eq!(s.len(), 1);
        // Tail gone: appends after recovery must work and survive reopen.
        s.put(b"next", Bytes::from_static(b"n")).unwrap();
        drop(s);
        let s = LogStore::open(&dir).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(b"next").unwrap(), Bytes::from_static(b"n"));
    }

    #[test]
    fn legacy_format_segment_is_refused_not_truncated() {
        let dir = tmpdir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // One record exactly as log format 1 framed it: "LOGS" magic, crc =
        // low half of FNV-1a-128 over key ++ value.
        let (key, value) = (&b"model-7"[..], &b"weights"[..]);
        let mut fnv = evostore_tensor::Fnv128::new();
        fnv.update(key);
        fnv.update(value);
        let mut rec = Vec::new();
        rec.extend_from_slice(&LEGACY_MAGIC.to_le_bytes());
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(key);
        rec.extend_from_slice(value);
        rec.extend_from_slice(&fnv.finish().low64().to_le_bytes());
        let seg = segment_path(&dir, 0);
        std::fs::write(&seg, &rec).unwrap();

        // The only (hence final) segment: the torn-tail path must not eat it.
        match LogStore::open(&dir) {
            Err(KvError::Corrupt { detail }) => {
                assert!(detail.contains("written by log format 1"), "{detail}")
            }
            other => panic!("expected a format error, got ok={}", other.is_ok()),
        }
        assert_eq!(std::fs::read(&seg).unwrap(), rec, "segment was modified");

        // Likewise behind valid format-2 records, and for any unknown magic.
        for magic in [LEGACY_MAGIC, 0xDEAD_BEEF] {
            let dir = tmpdir("legacy-tail");
            {
                let s = LogStore::open(&dir).unwrap();
                s.put(b"good", Bytes::from_static(b"value")).unwrap();
            }
            let seg = segment_path(&dir, 0);
            let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
            f.write_all(&magic.to_le_bytes()).unwrap();
            f.write_all(&rec[4..]).unwrap();
            drop(f);
            let before = std::fs::metadata(&seg).unwrap().len();
            assert!(matches!(LogStore::open(&dir), Err(KvError::Corrupt { .. })));
            assert_eq!(std::fs::metadata(&seg).unwrap().len(), before);
        }
    }

    #[test]
    fn segments_rotate() {
        let dir = tmpdir("rotate");
        let s = LogStore::open_tuned(&dir, 256, 10.0); // never compact in this test
        for i in 0..50u32 {
            s.put(&i.to_le_bytes(), Bytes::from(vec![7u8; 64])).unwrap();
        }
        assert!(s.segment_count() > 1, "expected rotation");
        for i in 0..50u32 {
            assert_eq!(s.get(&i.to_le_bytes()).unwrap().len(), 64);
        }
    }

    #[test]
    fn compaction_reclaims_space() {
        let dir = tmpdir("compact");
        let s = LogStore::open_tuned(&dir, 4096, 10.0); // manual compaction only
        for round in 0..20u32 {
            for k in 0..10u32 {
                s.put(&k.to_le_bytes(), Bytes::from(vec![round as u8; 128]))
                    .unwrap();
            }
        }
        let before = s.disk_bytes();
        s.compact().unwrap();
        let after = s.disk_bytes();
        assert!(after < before / 4, "compaction {before} -> {after}");
        for k in 0..10u32 {
            assert_eq!(
                s.get(&k.to_le_bytes()).unwrap(),
                Bytes::from(vec![19u8; 128])
            );
        }
        // And state survives a reopen post-compaction.
        drop(s);
        let s = LogStore::open(&dir).unwrap();
        assert_eq!(s.len(), 10);
    }

    /// Bytes across the segment files in `dir`.
    fn segment_bytes(dir: &Path) -> u64 {
        let files = segment_files(dir);
        files.iter().map(|p| p.metadata().unwrap().len()).sum()
    }

    /// The segment files in `dir`, oldest first.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
    }

    /// Compaction unlinks the old segments oldest first and stops at the
    /// first failed unlink. Failing the unlink of each old segment in turn
    /// (its path made a directory, which `unlink` refuses) must leave that
    /// segment and every newer one on disk; every such state reopens with
    /// no deleted key live and every live key at its last value, and the
    /// next compaction unlinks what was left.
    #[test]
    fn an_interrupted_compaction_never_brings_a_deleted_key_back() {
        let fill = |name: &str| {
            let dir = tmpdir(name);
            let s = LogStore::open_tuned(&dir, 256, 10.0); // manual compaction only
            for i in 0..16u32 {
                s.put(&i.to_le_bytes(), Bytes::from(vec![i as u8; 48]))
                    .unwrap();
            }
            // Tombstones land segments after the puts they kill; key 4 is
            // put again after its delete.
            for i in (0..16u32).step_by(2) {
                s.delete(&i.to_le_bytes()).unwrap();
            }
            s.put(&4u32.to_le_bytes(), Bytes::from(vec![99u8; 48]))
                .unwrap();
            (dir, s)
        };
        let check = |s: &LogStore, state: &str| {
            for i in 0..16u32 {
                let want = match i {
                    4 => Some(vec![99u8; 48]),
                    i if i % 2 == 0 => None,
                    i => Some(vec![i as u8; 48]),
                };
                let got = s.get(&i.to_le_bytes()).ok().map(|v| v.to_vec());
                assert_eq!(got, want, "key {i}, {state}");
            }
            assert_eq!(s.len(), 9, "{state}");
        };
        let (probe, _) = fill("interrupted");
        let segments = segment_files(&probe).len();
        assert!(segments >= 4, "only {segments} segments");
        let _ = std::fs::remove_dir_all(&probe);
        for k in 0..segments {
            let (dir, s) = fill(&format!("interrupted-{k}"));
            let old = segment_files(&dir);
            let stuck = &old[k];
            let bytes = std::fs::read(stuck).unwrap();
            std::fs::remove_file(stuck).unwrap();
            std::fs::create_dir(stuck).unwrap();
            assert!(s.compact().is_err(), "unlink of segment {k} must fail");
            for (j, path) in old.iter().enumerate() {
                assert_eq!(path.exists(), j >= k, "segment {j} after a stop at {k}");
            }
            check(&s, &format!("live after a stop at {k}"));
            // The unlink failed, so the file is still there: reopen.
            std::fs::remove_dir(stuck).unwrap();
            std::fs::write(stuck, bytes).unwrap();
            assert_eq!(
                s.disk_bytes(),
                segment_bytes(&dir),
                "bytes after a stop at {k}"
            );
            check(
                &LogStore::open(&dir).unwrap(),
                &format!("reopened with old segments {k}.. left"),
            );
            // What stayed is unlinked by the next compaction.
            s.compact().unwrap();
            assert!(old.iter().all(|path| !path.exists()));
            drop(s);
            check(&LogStore::open(&dir).unwrap(), "reopened after a retry");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A compaction that fails before its rewrite is down changes nothing
    /// a reader sees. The pass is made to fail by making the path of a
    /// segment it will create a directory: (a) its first new segment,
    /// (b) its third, so it fails after rotating mid-rewrite. Either way
    /// every key is served as before with the same `len` and
    /// `bytes_used`, what the pass wrote stays on disk as dead bytes,
    /// later deletes and overwrites still land (and reopen honours them,
    /// so they were written after the pass's copies), and the next
    /// compaction succeeds and unlinks what the failed pass left.
    #[test]
    fn a_failed_compaction_changes_nothing() {
        use std::collections::BTreeMap;
        fn check(s: &LogStore, want: &BTreeMap<u32, Vec<u8>>, state: &str) {
            for i in 0..16u32 {
                let got = s.get(&i.to_le_bytes()).ok().map(|v| v.to_vec());
                assert_eq!(got.as_ref(), want.get(&i), "key {i}, {state}");
            }
            assert_eq!(s.len(), want.len(), "{state}");
            let used: usize = want.values().map(Vec::len).sum();
            assert_eq!(s.bytes_used(), used, "{state}");
        }
        for (case, written) in [("first", 0u64), ("third", 2)] {
            let dir = tmpdir(&format!("failed-compaction-{case}"));
            let s = LogStore::open_tuned(&dir, 256, 10.0); // manual compaction only
            let mut want = BTreeMap::new();
            for i in 0..16u32 {
                s.put(&i.to_le_bytes(), Bytes::from(vec![i as u8; 48]))
                    .unwrap();
                want.insert(i, vec![i as u8; 48]);
            }
            for i in (0..16u32).step_by(4) {
                s.delete(&i.to_le_bytes()).unwrap();
                want.remove(&i);
            }
            check(&s, &want, "before the pass");
            let last = s.inner.lock().active;
            let old = segment_files(&dir);
            // Twelve live 72-byte records fill three 256-byte segments.
            let stuck = segment_path(&dir, last + 1 + written);
            std::fs::create_dir(&stuck).unwrap();

            assert!(s.compact().is_err(), "{case}: the pass must fail");
            check(&s, &want, &format!("{case}: after the failed pass"));
            let left: Vec<PathBuf> = (1..=written)
                .map(|k| segment_path(&dir, last + k))
                .collect();
            assert!(left.iter().all(|p| p.is_file()), "{case}: kept on disk");
            std::fs::remove_dir(&stuck).unwrap();
            assert_eq!(s.disk_bytes(), segment_bytes(&dir), "{case}: tracked bytes");

            // Whichever keys the pass copied, some of these were among
            // them: a delete or put that landed before the copies would
            // lose to them on replay.
            for i in (1..16u32).step_by(4) {
                assert!(s.delete(&i.to_le_bytes()).unwrap(), "{case}: delete {i}");
                want.remove(&i);
            }
            for i in (2..16u32).step_by(4) {
                s.put(&i.to_le_bytes(), Bytes::from(vec![99u8; 48]))
                    .unwrap();
                want.insert(i, vec![99u8; 48]);
            }
            check(&s, &want, &format!("{case}: after later writes"));
            check(
                &LogStore::open(&dir).unwrap(),
                &want,
                &format!("{case}: reopened after the failed pass"),
            );

            s.compact().unwrap();
            assert!(old.iter().chain(&left).all(|p| !p.exists()), "{case}");
            assert_eq!(s.disk_bytes(), segment_bytes(&dir), "{case}: after a retry");
            check(&s, &want, &format!("{case}: after a retry"));
            drop(s);
            check(
                &LogStore::open(&dir).unwrap(),
                &want,
                &format!("{case}: reopened after a retry"),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn automatic_compaction_triggers() {
        let dir = tmpdir("autocompact");
        let s = LogStore::open(&dir).unwrap();
        for round in 0..40u32 {
            s.put(b"hot", Bytes::from(vec![round as u8; 1024])).unwrap();
        }
        // 39 dead versions of "hot" -> ratio >> 0.5 -> compacted.
        assert!(
            s.disk_bytes() < 8 * 1024,
            "disk {} too large",
            s.disk_bytes()
        );
        assert_eq!(s.get(b"hot").unwrap(), Bytes::from(vec![39u8; 1024]));
    }

    #[test]
    fn corrupt_middle_segment_is_an_error() {
        let dir = tmpdir("corruptmid");
        {
            let s = LogStore::open_tuned(&dir, 128, 10.0);
            for i in 0..20u32 {
                s.put(&i.to_le_bytes(), Bytes::from(vec![1u8; 64])).unwrap();
            }
            assert!(s.segment_count() >= 2);
        }
        // Corrupt a byte in the middle of the FIRST segment.
        let seg = segment_path(&dir, 0);
        let data = std::fs::read(&seg).unwrap();
        let mut bad = data.clone();
        bad[HEADER + 2] ^= 0xFF;
        std::fs::write(&seg, bad).unwrap();
        match LogStore::open(&dir) {
            Err(KvError::Corrupt { .. }) => {}
            other => panic!("expected corruption error, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let dir = tmpdir("concurrent");
        let s = std::sync::Arc::new(LogStore::open(&dir).unwrap());
        let writers: Vec<_> = (0..4u8)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let key = [t, i as u8, (i >> 8) as u8];
                        s.put(&key, Bytes::from(vec![t; 32])).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let readers: Vec<_> = (0..4u8)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let key = [t, i as u8, (i >> 8) as u8];
                        assert_eq!(s.get(&key).unwrap(), Bytes::from(vec![t; 32]));
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(s.len(), 400);
    }
}
