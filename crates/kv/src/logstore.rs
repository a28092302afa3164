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
//!
//! Space comes back through a segment cleaner (the LFS cleaner / Bitcask
//! merge shape): once dead bytes dominate, the sealed segment with the most
//! dead bytes per byte it must keep has its live records, and the
//! tombstones still needed, copied to the active segment, and is
//! unlinked. A step that fails before its copies are down changes nothing
//! a reader sees.
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

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Write};
use std::os::raw::{c_int, c_void};
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::api::{KvBackend, KvError};
use crate::metrics::StoreMetrics;
use crate::pool;

const MAGIC: u32 = 0x4C4F_4732;
/// Record magic of log format 1 (`"LOGS"`), whose crc was the low half of
/// FNV-1a-128. Recognised only to be refused.
const LEGACY_MAGIC: u32 = 0x4C4F_4753;
const TOMBSTONE: u32 = u32::MAX;
const HEADER: usize = 12;
const TRAILER: usize = 8;
/// Rotate the active segment beyond this many bytes.
const SEGMENT_MAX_BYTES: u64 = 8 * 1024 * 1024;
/// Clean when dead bytes exceed this fraction of total bytes.
const COMPACT_GARBAGE_RATIO: f64 = 0.5;
/// Bytes a segment is read through, on replay and by the cleaner; a
/// record larger than this is read whole.
const READ_WINDOW: usize = 1024 * 1024;

struct IndexEntry {
    segment: u64,
    /// Offset of the *value* inside the segment file.
    value_offset: u64,
    value_len: u32,
    /// The oldest segment that may hold a record of this key.
    floor: u64,
}

/// Where a deleted key's tombstone lies, and the oldest segment it
/// guards: the first one that may still hold a record of the key.
struct Tomb {
    segment: u64,
    /// Offset just past the tombstone's key.
    offset: u64,
    floor: u64,
}

struct Segment {
    file: Arc<File>,
    path: PathBuf,
    len: u64,
    /// Bytes of the records here that the cleaner must carry: live
    /// values, and tombstones that still guard an older segment.
    keep: u64,
    /// Deleted keys whose tombstone guards this segment as its oldest.
    /// Entries go stale when the key is put again or its tombstone is
    /// copied; `unlink` skips those.
    guards: Vec<Box<[u8]>>,
}

impl Segment {
    fn new(file: File, path: PathBuf, len: u64) -> Segment {
        Segment {
            file: Arc::new(file),
            path,
            len,
            keep: 0,
            guards: Vec::new(),
        }
    }

    /// Bytes no reader or replay needs.
    fn dead(&self) -> u64 {
        self.len - self.keep
    }
}

struct Inner {
    dir: PathBuf,
    segment_max_bytes: u64,
    compact_garbage_ratio: f64,
    segments: BTreeMap<u64, Segment>,
    active: u64,
    // The books: the index, the tombstones still needed, and the byte
    // counts, store-wide and per segment. Every record landing goes
    // through `land`; the cleaner adds only a failed step's copies (dead)
    // and drops the segments it unlinks.
    index: HashMap<Box<[u8]>, IndexEntry>,
    deleted: HashMap<Box<[u8]>, Tomb>,
    /// Value bytes of the live records (`bytes_used`).
    live_bytes: u64,
    /// Bytes of overwritten/deleted records and of tombstones no longer
    /// needed (the cleaning trigger).
    dead_bytes: u64,
    total_bytes: u64,
}

/// Append-only persistent KV backend.
///
/// A live store owns its directory: it holds an exclusive lock on the
/// directory's `LOCK` file until it is dropped, and a second open of the
/// directory meanwhile fails with [`KvError::Locked`].
pub struct LogStore {
    inner: Mutex<Inner>,
    metrics: StoreMetrics,
    /// Held, never read: closing the file releases the lock.
    _lock: File,
}

/// The file a live store locks in its directory.
const LOCK_FILE: &str = "LOCK";

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
    /// Open (or create) a log store in `dir`. Fails with
    /// [`KvError::Locked`] while another live store holds `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<LogStore, KvError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => return Err(KvError::Locked { dir }),
            Err(std::fs::TryLockError::Error(e)) => return Err(e.into()),
        }

        // Discover existing segments.
        let mut ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let name = name
                .to_str()
                .and_then(|n| n.strip_prefix("seg-")?.strip_suffix(".log"));
            ids.extend(name.and_then(|id| id.parse::<u64>().ok()));
        }
        ids.sort_unstable();

        let mut inner = Inner {
            dir: dir.clone(),
            segment_max_bytes: SEGMENT_MAX_BYTES,
            compact_garbage_ratio: COMPACT_GARBAGE_RATIO,
            segments: BTreeMap::new(),
            active: 0,
            index: HashMap::new(),
            deleted: HashMap::new(),
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
            _lock: lock,
        })
    }

    /// Where `key`'s value lies: its segment file, offset and length.
    /// Looked up under the lock; the caller reads the file outside it.
    fn locate(&self, key: &[u8]) -> Result<(Arc<File>, u64, usize), KvError> {
        let inner = self.inner.lock();
        let Some(e) = inner.index.get(key) else {
            self.metrics.record_miss();
            return Err(KvError::NotFound);
        };
        let seg = inner
            .segments
            .get(&e.segment)
            .ok_or_else(|| KvError::Corrupt {
                detail: format!("missing segment {}", e.segment),
            })?;
        Ok((Arc::clone(&seg.file), e.value_offset, e.value_len as usize))
    }

    /// Append the `len` bytes at `offset` of `file` to `out`; on an error
    /// `out` is as it was. The bytes are read into `out`'s spare capacity
    /// as they are, never zero-filled first: a value is written once, by
    /// the read. A read that reaches past the end of the file is an
    /// `UnexpectedEof` error.
    fn read_at(
        &self,
        file: &File,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), KvError> {
        // `off_t` is 64 bits on the 64-bit Unix targets this builds for.
        extern "C" {
            fn pread(fd: c_int, buf: *mut c_void, count: usize, offset: i64) -> isize;
        }
        out.reserve(len);
        let at = out.len();
        let mut done = 0;
        while done < len {
            let spare = &mut out.spare_capacity_mut()[done..len];
            let from = i64::try_from(offset + done as u64)
                .map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
            // SAFETY: `spare` is `len - done` bytes of `out`'s allocation
            // past its initialized length, borrowed mutably for this call
            // alone, and `pread` writes at most `count` bytes through the
            // pointer. `file` holds the descriptor open for the call.
            let n = unsafe {
                pread(
                    file.as_raw_fd(),
                    spare.as_mut_ptr().cast(),
                    spare.len(),
                    from,
                )
            };
            match n {
                0 => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
                n if n > 0 => done += n as usize,
                _ => match io::Error::last_os_error() {
                    e if e.kind() == io::ErrorKind::Interrupted => continue,
                    e => return Err(e.into()),
                },
            }
        }
        // SAFETY: the loop above ran until `pread` had written every one
        // of the `len` bytes past `at`, and `reserve` made room for them.
        unsafe { out.set_len(at + len) };
        self.metrics.record_get(len);
        Ok(())
    }

    /// Operation counters.
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Number of on-disk segment files (diagnostics; cleaner tests).
    pub fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Total bytes across all segment files, including dead records.
    pub fn disk_bytes(&self) -> u64 {
        self.inner.lock().total_bytes
    }

    /// Clean until no segment holds dead bytes, whatever the garbage
    /// ratio: the cleaner's step, run to the end.
    pub fn compact(&self) -> Result<(), KvError> {
        let mut inner = self.inner.lock();
        while inner.clean_step(true)?.is_some() {}
        Ok(())
    }
}

impl Inner {
    /// A record of `key` landed at `value_offset` of `segment`: a value of
    /// `value_len` bytes, or a tombstone (`None`). It is now the key's
    /// newest version; the version it replaces is dead. A tombstone is
    /// kept while a segment older than it may hold a record of its key,
    /// and is dead from the start otherwise. Replay, put, delete and the
    /// cleaner's copies all keep their books here.
    fn land(&mut self, key: &[u8], value_len: Option<u32>, segment: u64, value_offset: u64) {
        let len = record_len(key.len(), value_len.unwrap_or(0) as usize);
        self.total_bytes += len;
        // What the record replaces, the key's live value or the tombstone
        // guarding its older records, is dead; it passes on the oldest
        // segment that may hold a record of the key.
        let replaced = if let Some(old) = self.index.remove(key) {
            self.live_bytes -= old.value_len as u64;
            let old_len = record_len(key.len(), old.value_len as usize);
            Some((old.segment, old_len, old.floor))
        } else {
            let tomb = self.deleted.remove(key);
            tomb.map(|t| (t.segment, record_len(key.len(), 0), t.floor))
        };
        let floor = replaced.map(|(old_segment, old_len, floor)| {
            self.segments.get_mut(&old_segment).expect("replaced").keep -= old_len;
            self.dead_bytes += old_len;
            floor
        });
        if let Some(value_len) = value_len {
            self.live_bytes += value_len as u64;
            self.segments.get_mut(&segment).expect("landing").keep += len;
            let floor = floor.unwrap_or(segment);
            let entry = IndexEntry {
                segment,
                value_offset,
                value_len,
                floor,
            };
            self.index.insert(key.into(), entry);
            return;
        }
        let oldest = floor.and_then(|floor| self.segments.range_mut(floor..segment).next());
        let Some((&floor, oldest)) = oldest else {
            self.dead_bytes += len;
            return;
        };
        oldest.guards.push(key.into());
        self.segments.get_mut(&segment).expect("landing").keep += len;
        let tomb = Tomb {
            segment,
            offset: value_offset,
            floor,
        };
        self.deleted.insert(key.into(), tomb);
    }

    fn create_segment(&mut self, id: u64) -> Result<(), KvError> {
        let path = segment_path(&self.dir, id);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        self.segments.insert(id, Segment::new(file, path, len));
        Ok(())
    }

    /// Replay one segment into the books. For the final (possibly torn)
    /// segment, a torn tail is truncated away; for earlier segments it is
    /// an error, and so are foreign bytes in any segment.
    fn replay_segment(&mut self, id: u64, tolerate_torn_tail: bool) -> Result<(), KvError> {
        let path = segment_path(&self.dir, id);
        let file = OpenOptions::new().read(true).append(true).open(&path)?;
        self.segments.insert(id, Segment::new(file, path, 0));
        let file = Arc::clone(&self.segments[&id].file);
        let (valid_up_to, bad) = scan(&file, |key, value, value_offset| {
            self.land(key, value.map(|v| v.len() as u32), id, value_offset)
        })?;
        self.segments.get_mut(&id).expect("replayed").len = valid_up_to;
        let detail = match bad {
            None => return Ok(()),
            Some(NotARecord::Short(_) | NotARecord::Torn(_)) if tolerate_torn_tail => {
                // Truncate the torn tail so future appends start clean.
                file.set_len(valid_up_to)?;
                return Ok(());
            }
            Some(NotARecord::Short(_)) => "short record".to_string(),
            Some(NotARecord::Torn(detail) | NotARecord::Foreign(detail)) => detail,
        };
        Err(KvError::Corrupt {
            detail: format!("segment {id} offset {valid_up_to}: {detail}"),
        })
    }

    /// Append one record to the active segment, rotating first when it is
    /// full, and return where its value lies: `(segment, value_offset)`.
    /// The books are the caller's to keep.
    fn append(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(u64, u64), KvError> {
        if self.segments[&self.active].len >= self.segment_max_bytes {
            self.seal()?;
        }
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

    /// Start a new active segment; the old one is sealed.
    fn seal(&mut self) -> Result<(), KvError> {
        self.create_segment(self.active + 1)?;
        self.active += 1;
        Ok(())
    }

    fn should_clean(&self) -> bool {
        self.total_bytes > 0
            && (self.dead_bytes as f64) / (self.total_bytes as f64) > self.compact_garbage_ratio
            && self.dead_bytes > 4096
    }

    /// Clean while dead bytes dominate: any number of steps that only
    /// unlink, and at most one that copies. A write that triggers a
    /// failed step stands: the failure is counted, and the next write's
    /// trigger retries it.
    fn clean(&mut self) -> Result<(), KvError> {
        let mut may_copy = true;
        while self.should_clean() {
            match self.clean_step(may_copy)? {
                Some(copied) => may_copy &= !copied,
                None => break,
            }
        }
        Ok(())
    }

    /// One cleaner step on the sealed segment with the most dead bytes per
    /// byte it must keep, the oldest among equals. When only the active
    /// segment holds dead bytes it is sealed first. The victim's live
    /// records and needed tombstones are copied to the active segment and
    /// land once all are down; then it is unlinked. Returns whether it
    /// copied, or `None` when no segment holds dead bytes or the victim
    /// has records to copy and `may_copy` is false.
    fn clean_step(&mut self, may_copy: bool) -> Result<Option<bool>, KvError> {
        let victim = match self.victim() {
            Some(id) => id,
            None if may_copy && self.segments[&self.active].dead() > 0 => {
                self.seal()?;
                self.active - 1
            }
            None => return Ok(None),
        };
        let copies = self.segments[&victim].keep > 0;
        if copies {
            if !may_copy {
                return Ok(None);
            }
            self.carry_forward(victim)?;
        }
        self.unlink(victim)?;
        Ok(Some(copies))
    }

    /// The sealed segment with the most dead bytes per byte it keeps.
    fn victim(&self) -> Option<u64> {
        let ratio = |s: &Segment| s.dead() as f64 / s.keep as f64;
        let sealed = self.segments.range(..self.active);
        sealed
            .filter(|(_, s)| s.dead() > 0)
            .max_by(|(a_id, a), (b_id, b)| ratio(a).total_cmp(&ratio(b)).then(b_id.cmp(a_id)))
            .map(|(&id, _)| id)
    }

    /// Copy `victim`'s live records and the tombstones it carries to the
    /// active segment, and land the copies once every one is down. A copy
    /// that fails leaves the books as they were, with what it wrote
    /// counted dead; later appends land above it, so replay reads them
    /// after it.
    fn carry_forward(&mut self, victim: u64) -> Result<(), KvError> {
        let file = Arc::clone(&self.segments[&victim].file);
        let mut keep = Vec::new();
        let (end, bad) = scan(&file, |key, value, value_offset| {
            let at = (victim, value_offset);
            let kept = match value {
                Some(_) => (self.index.get(key)).is_some_and(|e| (e.segment, e.value_offset) == at),
                None => (self.deleted.get(key)).is_some_and(|t| (t.segment, t.offset) == at),
            };
            if kept {
                keep.push((Box::<[u8]>::from(key), value.map(<[u8]>::to_vec)));
            }
        })?;
        if bad.is_some() {
            return Err(KvError::Corrupt {
                detail: format!("segment {victim} offset {end}: not a record"),
            });
        }
        let (mut copies, mut written) = (Vec::with_capacity(keep.len()), 0);
        for (key, value) in &keep {
            match self.append(key, value.as_deref()) {
                Ok(at) => copies.push(at),
                Err(e) => {
                    self.dead_bytes += written;
                    self.total_bytes += written;
                    return Err(e);
                }
            }
            written += record_len(key.len(), value.as_ref().map_or(0, Vec::len));
        }
        for ((key, value), (segment, value_offset)) in keep.iter().zip(copies) {
            let value_len = value.as_ref().map(|v| v.len() as u32);
            self.land(key, value_len, segment, value_offset);
        }
        Ok(())
    }

    /// Unlink a sealed segment that holds nothing to keep. The tombstones
    /// that guarded it move on to the next segment that may hold their
    /// keys' records, below the tombstone; one with none left is dead.
    fn unlink(&mut self, id: u64) -> Result<(), KvError> {
        match std::fs::remove_file(&self.segments[&id].path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let seg = self.segments.remove(&id).expect("victim is tracked");
        self.dead_bytes -= seg.len;
        self.total_bytes -= seg.len;
        for key in seg.guards {
            let Some(tomb) = self.deleted.get_mut(&key).filter(|t| t.floor == id) else {
                continue;
            };
            match self.segments.range_mut(id..tomb.segment).next() {
                Some((&next, older)) => {
                    tomb.floor = next;
                    older.guards.push(key);
                }
                None => {
                    let len = record_len(key.len(), 0);
                    self.segments.get_mut(&tomb.segment).expect("tomb").keep -= len;
                    self.dead_bytes += len;
                    self.deleted.remove(&key);
                }
            }
        }
        Ok(())
    }
}

/// Why the bytes at a scan position are not a valid record.
enum NotARecord {
    /// A prefix of a record under this format's magic: `need` bytes from
    /// its start would hold it (a header while the header is short). At
    /// the end of a file, what a crash mid-append leaves.
    Short(usize),
    /// A record under this format's magic whose check fails: torn too.
    Torn(String),
    /// Bytes under another magic. This build did not write them and
    /// cannot verify them, so they are never mistaken for a torn tail.
    Foreign(String),
}

/// Hand every record of `file` to `f`, oldest first, as (key, value or
/// tombstone, value offset), reading through a window of `READ_WINDOW`
/// bytes that grows only for a record larger than it. Returns where the
/// valid records end, and why the bytes there are not a record, if any
/// are left.
fn scan(
    file: &File,
    mut f: impl FnMut(&[u8], Option<&[u8]>, u64),
) -> Result<(u64, Option<NotARecord>), KvError> {
    let file_len = file.metadata()?.len();
    let (mut buf, mut base, mut pos) = (Vec::new(), 0u64, 0usize);
    loop {
        match parse_record(&buf[pos..]) {
            Ok((key, value, consumed)) => {
                f(key, value, base + (pos + HEADER + key.len()) as u64);
                pos += consumed;
            }
            Err(NotARecord::Short(need)) => {
                let at = base + pos as u64;
                if at + need as u64 > file_len {
                    return Ok((at, (at < file_len).then_some(NotARecord::Short(need))));
                }
                // Slide the window to the record and read on.
                buf.drain(..pos);
                (base, pos) = (at, 0);
                let have = buf.len();
                buf.resize(
                    (need.max(READ_WINDOW) as u64).min(file_len - at) as usize,
                    0,
                );
                file.read_exact_at(&mut buf[have..], at + have as u64)?;
            }
            Err(bad) => return Ok((base + pos as u64, Some(bad))),
        }
    }
}

/// (key, value-or-tombstone, bytes consumed).
type ParsedRecord<'a> = (&'a [u8], Option<&'a [u8]>, usize);

/// Parse one record from `buf`.
fn parse_record(buf: &[u8]) -> Result<ParsedRecord<'_>, NotARecord> {
    use NotARecord::{Foreign, Short, Torn};
    if buf.len() < 4 {
        return Err(Short(HEADER));
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
        return Err(Short(HEADER));
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
        return Err(Short(need));
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
        if inner.clean().is_err() {
            self.metrics.clean_failures.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn metrics_snapshot(&self) -> Option<crate::metrics::MetricsSnapshot> {
        Some(self.metrics.snapshot())
    }

    /// The value is read into a buffer from [`crate::pool`].
    fn get(&self, key: &[u8]) -> Result<Bytes, KvError> {
        let (file, offset, len) = self.locate(key)?;
        let mut value = pool::take(len);
        self.read_at(&file, offset, len, &mut value)?;
        Ok(value.freeze())
    }

    /// The value is read from its segment straight into `out`.
    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> Result<(), KvError> {
        let (file, offset, len) = self.locate(key)?;
        self.read_at(&file, offset, len, out)
    }

    fn delete(&self, key: &[u8]) -> Result<bool, KvError> {
        let mut inner = self.inner.lock();
        if !inner.index.contains_key(key) {
            return Ok(false);
        }
        inner.write(key, None)?;
        self.metrics.record_delete();
        if inner.clean().is_err() {
            self.metrics.clean_failures.fetch_add(1, Ordering::Relaxed);
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
    use std::collections::BTreeMap;

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

    /// A scratch directory, removed with the [`open_image`] copy beside it
    /// when the guard drops (after any store declared later).
    #[derive(Debug)]
    struct TmpDir(PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = PathBuf;
        fn deref(&self) -> &PathBuf {
            &self.0
        }
    }

    impl AsRef<Path> for TmpDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
            let _ = std::fs::remove_dir_all(self.0.with_extension("image"));
        }
    }

    fn tmpdir(name: &str) -> TmpDir {
        let d = std::env::temp_dir().join(format!(
            "evostore-logstore-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        TmpDir(d)
    }

    /// A live directory has one owner: a second open fails, naming the
    /// directory, until the first store is dropped.
    #[test]
    fn a_live_directory_refuses_a_second_open() {
        let dir = tmpdir("lock");
        let s = LogStore::open(&dir).unwrap();
        s.put(b"k", Bytes::from_static(b"v")).unwrap();
        match LogStore::open(&dir) {
            Err(e) => {
                assert_eq!(e, KvError::Locked { dir: dir.clone() });
                assert!(e.to_string().contains(&dir.display().to_string()), "{e}");
            }
            Ok(_) => panic!("a second store opened a live directory"),
        }
        drop(s);
        let s = LogStore::open(&dir).unwrap();
        assert_eq!(s.get(b"k").unwrap(), Bytes::from_static(b"v"));
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
    fn a_read_past_the_end_of_its_file_fails_and_leaves_the_buffer() {
        let dir = tmpdir("past-end");
        let s = LogStore::open(&dir).unwrap();
        s.put(b"k", Bytes::from_static(b"value")).unwrap();
        let (file, offset, len) = s.locate(b"k").unwrap();
        let mut out = b"held ".to_vec();
        s.read_at(&file, offset, len, &mut out).unwrap();
        assert_eq!(out, b"held value");
        out.truncate(5);
        // Reads that end one byte past the end, start at it, start
        // beyond it, or run from the value to past the end.
        let end = file.metadata().unwrap().len();
        let tail = (end - offset) as usize;
        for (from, len) in [(end - 2, 3), (end, 1), (end + 9, 4), (offset, tail + 1)] {
            match s.read_at(&file, from, len, &mut out) {
                Err(KvError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("read of {len} at {from}, past {end}: {other:?}"),
            }
            assert_eq!(out, b"held ");
        }
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

    /// Open what `dir` holds on disk now, as a restart would, while the
    /// store writing it is live (and owns `dir`): a copy of its segment
    /// files is replayed.
    fn open_image(dir: &Path) -> LogStore {
        let image = dir.with_extension("image");
        let _ = std::fs::remove_dir_all(&image);
        std::fs::create_dir_all(&image).unwrap();
        for path in segment_files(dir) {
            let name = path.file_name().unwrap();
            if name.to_string_lossy().starts_with("seg-") {
                std::fs::copy(&path, image.join(name)).unwrap();
            }
        }
        LogStore::open(&image).unwrap()
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

    /// Every book against a recount from the segments, the index and
    /// the tombstones kept.
    fn assert_books(s: &LogStore, dir: &Path, state: &str) {
        let inner = s.inner.lock();
        let sum = |f: fn(&Segment) -> u64| inner.segments.values().map(f).sum::<u64>();
        let live: u64 = inner.index.values().map(|e| e.value_len as u64).sum();
        assert_eq!(
            (inner.total_bytes, inner.dead_bytes, inner.live_bytes),
            (sum(|seg| seg.len), sum(Segment::dead), live),
            "{state}: store-wide books"
        );
        assert_eq!(inner.total_bytes, segment_bytes(dir), "{state}: files");
        let mut keep: HashMap<u64, u64> = HashMap::new();
        for (key, tomb) in &inner.deleted {
            assert!(
                tomb.floor < tomb.segment,
                "{state}: a tomb guards below itself"
            );
            assert!(
                inner.segments.contains_key(&tomb.floor),
                "{state}: floor is on disk"
            );
            assert!(!inner.index.contains_key(key), "{state}: deleted and live");
            *keep.entry(tomb.segment).or_default() += record_len(key.len(), 0);
        }
        for (key, e) in &inner.index {
            *keep.entry(e.segment).or_default() += record_len(key.len(), e.value_len as usize);
        }
        for (id, seg) in &inner.segments {
            let kept = keep.get(id).copied().unwrap_or(0);
            assert_eq!(seg.keep, kept, "{state}: records kept in segment {id}");
        }
    }

    /// Reads, `len` and `bytes_used` against a model of the store.
    fn assert_matches(s: &LogStore, want: &BTreeMap<u32, Vec<u8>>, keys: u32, state: &str) {
        for i in 0..keys {
            let got = s.get(&i.to_le_bytes()).ok().map(|v| v.to_vec());
            assert_eq!(got.as_ref(), want.get(&i), "key {i}, {state}");
        }
        assert_eq!(s.len(), want.len(), "{state}");
        let used: usize = want.values().map(Vec::len).sum();
        assert_eq!(s.bytes_used(), used, "{state}");
    }

    fn put_n(s: &LogStore, want: &mut BTreeMap<u32, Vec<u8>>, i: u32, len: usize, byte: u8) {
        s.put(&i.to_le_bytes(), Bytes::from(vec![byte; len]))
            .unwrap();
        want.insert(i, vec![byte; len]);
    }

    fn delete_n(s: &LogStore, want: &mut BTreeMap<u32, Vec<u8>>, i: u32) {
        assert_eq!(
            s.delete(&i.to_le_bytes()).unwrap(),
            want.remove(&i).is_some()
        );
    }

    /// Sixteen 72-byte records in four sealed 256-byte segments, the
    /// first key of each deleted, plus key 16: the tombstones land in
    /// segment 4 and guard the segments that hold their keys' puts.
    fn four_sealed(name: &str) -> (TmpDir, LogStore, BTreeMap<u32, Vec<u8>>) {
        let dir = tmpdir(name);
        let s = LogStore::open_tuned(&dir, 256, 10.0); // manual cleaning only
        let mut want = BTreeMap::new();
        for i in 0..16u32 {
            put_n(&s, &mut want, i, 48, i as u8);
        }
        for i in (0..16u32).step_by(4) {
            delete_n(&s, &mut want, i);
        }
        put_n(&s, &mut want, 16, 48, 16);
        (dir, s, want)
    }

    /// The cleaner unlinks a victim only once its copies have landed. A
    /// failed unlink (the victim's path made a directory, which `unlink`
    /// refuses) of each victim in turn leaves that victim on disk beside
    /// its copies: every such state serves every key as before, reopens
    /// with no deleted key live (a key found in two segments resolves to
    /// the later record) and the next step unlinks what was left.
    #[test]
    fn an_interrupted_compaction_never_brings_a_deleted_key_back() {
        let (_probe, s, _) = four_sealed("interrupted");
        let mut victims = Vec::new();
        loop {
            let mut inner = s.inner.lock();
            let Some(victim) = inner.victim() else { break };
            victims.push(victim);
            inner.clean_step(true).unwrap();
        }
        assert!(victims.len() >= 4, "only {} victims", victims.len());
        for (k, &victim) in victims.iter().enumerate() {
            let (dir, s, want) = four_sealed(&format!("interrupted-{k}"));
            for _ in 0..k {
                s.inner.lock().clean_step(true).unwrap();
            }
            assert_eq!(s.inner.lock().victim(), Some(victim));
            let stuck = segment_path(&dir, victim);
            let bytes = std::fs::read(&stuck).unwrap();
            std::fs::remove_file(&stuck).unwrap();
            std::fs::create_dir(&stuck).unwrap();
            assert!(s.compact().is_err(), "unlink of victim {k} must fail");
            assert_matches(&s, &want, 17, &format!("live after victim {k} stayed"));
            // The unlink failed, so the file is still there: reopen.
            std::fs::remove_dir(&stuck).unwrap();
            std::fs::write(&stuck, bytes).unwrap();
            assert_books(&s, &dir, &format!("victim {k} stayed"));
            let reopened = open_image(&dir);
            assert_matches(&reopened, &want, 17, &format!("reopened, victim {k} left"));
            drop(reopened);
            // What stayed is unlinked by the next step.
            s.compact().unwrap();
            assert!(!stuck.exists(), "victim {k} unlinked on retry");
            assert_books(&s, &dir, &format!("retry after victim {k}"));
            drop(s);
            let reopened = LogStore::open(&dir).unwrap();
            assert_matches(&reopened, &want, 17, "reopened after a retry");
        }
    }

    /// A cleaner step that fails before its copies land changes nothing a
    /// reader sees. It is made to fail by making the path of a segment it
    /// will create a directory: (a) when garbage sits only in the active
    /// segment, the segment the step seals it with; (b) the segment the
    /// copies rotate into, so it fails after two of the victim's three
    /// records are down. Either way every key is served as before, what
    /// the step wrote stays on disk as dead bytes, later deletes and
    /// overwrites land above it (reopen honours them), and the next step
    /// cleans what the failed one left.
    #[test]
    fn a_failed_compaction_changes_nothing() {
        for case in ["seal", "mid-copy"] {
            let dir = tmpdir(&format!("failed-compaction-{case}"));
            let mut want = BTreeMap::new();
            let s = if case == "seal" {
                let s = LogStore::open_tuned(&dir, 1 << 20, 10.0); // manual cleaning only
                for i in 0..16u32 {
                    put_n(&s, &mut want, i, 48, i as u8);
                }
                delete_n(&s, &mut want, 3);
                put_n(&s, &mut want, 5, 48, 55);
                s
            } else {
                // Keys 0..16 fill segments 0..3; deleting key 0 leaves
                // segment 0 the only victim, with three live records, and
                // two more puts leave room in segment 4 for two copies.
                let s = LogStore::open_tuned(&dir, 256, 10.0);
                for i in 0..16u32 {
                    put_n(&s, &mut want, i, 48, i as u8);
                }
                delete_n(&s, &mut want, 0);
                put_n(&s, &mut want, 16, 48, 16);
                put_n(&s, &mut want, 17, 48, 17);
                assert_eq!(s.inner.lock().victim(), Some(0));
                s
            };
            let active = s.inner.lock().active;
            let active_len = s.inner.lock().segments[&active].len;
            let stuck = segment_path(&dir, active + 1);
            std::fs::create_dir(&stuck).unwrap();

            assert!(s.compact().is_err(), "{case}: the step must fail");
            assert_matches(&s, &want, 18, &format!("{case}: after the failed step"));
            let wrote = s.inner.lock().segments[&active].len - active_len;
            assert_eq!(wrote, if case == "seal" { 0 } else { 2 * 72 }, "{case}");
            std::fs::remove_dir(&stuck).unwrap();
            assert_books(&s, &dir, &format!("{case}: after the failed step"));

            // Some of these keys were among the copies: a delete or put
            // that landed below them would lose to them on replay.
            for i in (1..18u32).step_by(4) {
                delete_n(&s, &mut want, i);
            }
            for i in (2..18u32).step_by(4) {
                put_n(&s, &mut want, i, 48, 99);
            }
            assert_matches(&s, &want, 18, &format!("{case}: after later writes"));
            assert_matches(
                &open_image(&dir),
                &want,
                18,
                &format!("{case}: reopened after the failed step"),
            );

            s.compact().unwrap();
            assert!(s.inner.lock().victim().is_none(), "{case}: cleaned");
            assert_books(&s, &dir, &format!("{case}: after a retry"));
            assert_matches(&s, &want, 18, &format!("{case}: after a retry"));
            drop(s);
            assert_matches(
                &LogStore::open(&dir).unwrap(),
                &want,
                18,
                &format!("{case}: reopened after a retry"),
            );
        }
    }

    /// A write whose cleaning fails still succeeds: the failed step is
    /// counted, and the next write's trigger cleans.
    #[test]
    fn a_write_stands_when_the_cleaning_it_triggers_fails() {
        let dir = tmpdir("write-stands");
        let s = LogStore::open_tuned(&dir, 1 << 20, COMPACT_GARBAGE_RATIO);
        let mut want = BTreeMap::new();
        // Garbage only in the active segment: the step seals it first.
        let stuck = segment_path(&dir, 1);
        std::fs::create_dir(&stuck).unwrap();
        let mut round = 0u8;
        while s.metrics().clean_failures() == 0 {
            put_n(&s, &mut want, 0, 1024, round);
            round += 1;
            assert!(round < 16, "the trigger never fired");
        }
        assert_matches(&s, &want, 1, "after the failed step");
        assert_eq!(s.segment_count(), 1);
        let before = s.disk_bytes();
        assert!(before > 4 * 1024, "garbage stays until a step succeeds");

        std::fs::remove_dir(&stuck).unwrap();
        assert!(
            s.delete(&0u32.to_le_bytes()).unwrap(),
            "a delete stands too"
        );
        want.remove(&0);
        put_n(&s, &mut want, 1, 16, 1);
        assert_eq!(s.metrics().clean_failures(), 1);
        assert!(s.disk_bytes() < 1024, "{before} -> {}", s.disk_bytes());
        assert_eq!(s.segment_count(), 1);
        assert_books(&s, &dir, "after the retry");
        drop(s);
        assert_matches(&LogStore::open(&dir).unwrap(), &want, 2, "reopened");
    }

    /// A crash between a step's copies and its unlink, or inside its
    /// copies, reopens to the state before the step: (a) the victim's
    /// bytes put back after a whole step, (b) the same with the active
    /// segment cut inside the copies, every 20 bytes. The victim carries
    /// tombstones that guard the segment below it.
    #[test]
    fn a_crash_inside_a_cleaner_step_reopens_to_the_same_state() {
        let fill = |dir: &Path| {
            let s = LogStore::open_tuned(dir, 1024, 10.0); // manual cleaning only
            let mut want = BTreeMap::new();
            // Segment 0: long-lived keys; segment 1: keys 0..15.
            for i in 100..105u32 {
                put_n(&s, &mut want, i, 200, 1);
            }
            for i in 0..15u32 {
                put_n(&s, &mut want, i, 48, i as u8);
            }
            // Segment 2: six tombstones guarding segment 1, then key 20
            // overwritten nine times, then keys 21..24, the last of them
            // in segment 3.
            for i in 0..6u32 {
                delete_n(&s, &mut want, i);
            }
            for round in 0..10u8 {
                put_n(&s, &mut want, 20, 48, round);
            }
            for i in 21..25u32 {
                put_n(&s, &mut want, i, 48, i as u8);
            }
            (s, want)
        };
        let probe = tmpdir("crash-probe");
        let (s, _) = fill(&probe);
        let (active, copies_at) = {
            let inner = s.inner.lock();
            assert_eq!(inner.victim(), Some(2));
            assert_eq!(inner.segments[&2].keep, 6 * 24 + 4 * 72);
            (inner.active, inner.segments[&inner.active].len)
        };
        assert_eq!(s.inner.lock().clean_step(true).unwrap(), Some(true));
        let copies_len = s.inner.lock().segments[&active].len - copies_at;
        assert_eq!(copies_len, 6 * 24 + 4 * 72, "tombstones and live records");
        drop(s);

        let cuts = (0..copies_len).step_by(20).map(Some).chain([None]);
        for cut in cuts {
            let dir = tmpdir(&format!("crash-{cut:?}"));
            let (s, want) = fill(&dir);
            let victim_bytes = std::fs::read(segment_path(&dir, 2)).unwrap();
            s.inner.lock().clean_step(true).unwrap();
            assert!(!segment_path(&dir, 2).exists());
            drop(s);
            std::fs::write(segment_path(&dir, 2), &victim_bytes).unwrap();
            if let Some(cut) = cut {
                let f = OpenOptions::new()
                    .write(true)
                    .open(segment_path(&dir, active));
                f.unwrap().set_len(copies_at + cut).unwrap();
            }
            let s = LogStore::open(&dir).unwrap();
            assert_matches(&s, &want, 106, &format!("reopened with cut {cut:?}"));
            assert_books(&s, &dir, &format!("cut {cut:?}"));
            s.compact().unwrap();
            assert_matches(&s, &want, 106, &format!("cleaned after cut {cut:?}"));
            drop(s);
            let s = LogStore::open(&dir).unwrap();
            assert_matches(&s, &want, 106, &format!("reopened after cut {cut:?}"));
        }
    }

    /// Seeded random histories of put, delete, compact and reopen, against
    /// a `BTreeMap` after every step, with the books recounted. Key 100's
    /// put sits in the oldest segment beside long-lived keys when it is
    /// deleted, so its tombstone must survive every clean of the segments
    /// above until that segment goes.
    #[test]
    fn random_histories_match_a_model() {
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let dir = tmpdir(&format!("model-{seed}"));
            let open = || LogStore::open_tuned(&dir, 512, COMPACT_GARBAGE_RATIO);
            let mut s = open();
            let mut want = BTreeMap::new();
            for i in 100..104u32 {
                put_n(&s, &mut want, i, 100, i as u8);
            }
            for step in 0..700u32 {
                let state = format!("seed {seed} step {step}");
                match rng.random_range(0..100u32) {
                    0..=54 => {
                        let len = rng.random_range(0..160usize);
                        put_n(&s, &mut want, rng.random_range(0..24u32), len, step as u8);
                    }
                    55..=89 => delete_n(&s, &mut want, rng.random_range(0..24u32)),
                    90..=93 => s.compact().unwrap(),
                    94..=97 => {
                        drop(s);
                        s = open();
                    }
                    _ => delete_n(&s, &mut want, 100),
                }
                assert_matches(&s, &want, 104, &state);
                assert_books(&s, &dir, &state);
            }
            assert!(s.metrics().clean_failures() == 0);
            drop(s);
            assert_matches(&open(), &want, 104, &format!("seed {seed}: reopened"));
        }
    }

    /// Tombstones are carried only while a segment older than them may
    /// hold their keys' records, not while any older segment exists: over
    /// many put / delete cycles behind a long-lived oldest segment the
    /// disk stays bounded.
    #[test]
    fn tombstones_do_not_pile_up_behind_a_long_lived_segment() {
        let dir = tmpdir("tomb-bound");
        let s = LogStore::open_tuned(&dir, 512, COMPACT_GARBAGE_RATIO);
        let mut want = BTreeMap::new();
        for i in 5000..5008u32 {
            put_n(&s, &mut want, i, 200, 7);
        }
        let mut peak = 0;
        for cycle in 0..400u32 {
            for i in 0..8 {
                put_n(&s, &mut want, cycle * 8 + i, 40, cycle as u8);
            }
            for i in 0..8 {
                delete_n(&s, &mut want, cycle * 8 + i);
            }
            peak = peak.max(s.disk_bytes());
        }
        assert!(
            segment_path(&dir, 0).exists(),
            "the oldest segment lives on"
        );
        assert!(peak < 16 * 1024, "disk peaked at {peak} bytes");
        assert!(s.inner.lock().deleted.len() < 64, "tombstones kept");
        assert_books(&s, &dir, "after the cycles");
        drop(s);
        assert_matches(&LogStore::open(&dir).unwrap(), &want, 5008, "reopened");
    }

    /// Unlinking a tombstone's oldest guarded segment moves its guard to
    /// the next segment below it: that one may hold the key's records
    /// too. Key 1 is put in segment 0, put again in segment 1 and deleted
    /// in segment 2; cleaning segment 0 and then segment 2 must carry the
    /// tombstone, or reopen serves key 1 from segment 1.
    #[test]
    fn a_tombstone_guards_every_segment_below_it_that_held_its_key() {
        let dir = tmpdir("guard-moves");
        let s = LogStore::open_tuned(&dir, 256, 10.0); // manual cleaning only
        let mut want = BTreeMap::new();
        for (round, i) in [1, 10, 10, 11, 1, 13, 14, 15].into_iter().enumerate() {
            put_n(&s, &mut want, i, 48, round as u8);
        }
        delete_n(&s, &mut want, 1);
        for round in 0..3 {
            put_n(&s, &mut want, 16, 48, round);
        }
        put_n(&s, &mut want, 17, 48, 17);
        put_n(&s, &mut want, 18, 48, 18); // opens segment 3
        for victim in [0, 2] {
            let mut inner = s.inner.lock();
            assert_eq!(inner.victim(), Some(victim));
            assert_eq!(inner.clean_step(true).unwrap(), Some(true));
        }
        assert!(
            segment_path(&dir, 1).exists(),
            "key 1's second put is on disk"
        );
        assert_books(&s, &dir, "after two steps");
        drop(s);
        assert_matches(&LogStore::open(&dir).unwrap(), &want, 19, "reopened");
    }

    /// Replay reads through a bounded window: a record larger than the
    /// window, a torn tail past the first window, and foreign bytes in mid
    /// file past it (refused, never truncated).
    #[test]
    fn replay_reads_through_a_window() {
        let dir = tmpdir("window");
        let big = vec![5u8; READ_WINDOW + READ_WINDOW / 2];
        {
            let s = LogStore::open(&dir).unwrap();
            s.put(b"small", Bytes::from_static(b"s")).unwrap();
            s.put(b"big", Bytes::from(big.clone())).unwrap();
            for i in 0..40u32 {
                s.put(&i.to_le_bytes(), Bytes::from(vec![i as u8; 40_000]))
                    .unwrap();
            }
        }
        let check = |s: &LogStore| {
            assert_eq!(s.get(b"big").unwrap(), Bytes::from(big.clone()));
            for i in 0..40u32 {
                assert_eq!(s.get(&i.to_le_bytes()).unwrap().len(), 40_000);
            }
            assert_eq!(s.len(), 42);
        };
        check(&LogStore::open(&dir).unwrap());

        // Torn: a header promising more bytes than follow.
        let seg = segment_path(&dir, 0);
        let good = std::fs::metadata(&seg).unwrap().len();
        assert!(good > 2 * READ_WINDOW as u64);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&MAGIC.to_le_bytes()).unwrap();
        f.write_all(&[1, 0, 0, 0, 200, 0, 0, 0, 9]).unwrap();
        drop(f);
        check(&LogStore::open(&dir).unwrap());
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            good,
            "torn tail cut"
        );

        // Foreign: unknown magic past the first window, valid records after.
        let mut bytes = std::fs::read(&seg).unwrap();
        // The magic of the twentieth 40 kB record.
        let at =
            (record_len(5, 1) + record_len(3, big.len()) + 20 * record_len(4, 40_000)) as usize;
        assert!(at > READ_WINDOW && at + 40_024 < good as usize);
        bytes[at..at + 4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        match LogStore::open(&dir) {
            Err(KvError::Corrupt { detail }) => assert!(detail.contains("bad magic"), "{detail}"),
            other => panic!("expected a format error, got ok={}", other.is_ok()),
        }
        assert_eq!(std::fs::read(&seg).unwrap(), bytes, "segment was modified");
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
