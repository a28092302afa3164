//! Pins the resident-read accounting contract across every backend: a
//! `get_resident` hit records exactly one read of the value's logical
//! length (same as `get`), however many pieces the value is held in, and
//! the not-resident path — `get_resident` returning `None` followed by
//! the caller's fallback `get` — must leave the metrics snapshot
//! *identical* to a plain single `get`, in particular never
//! double-counting the read when the value has to come off the disk tier.

use bytes::Bytes;
use evostore_kv::{ChunkedStore, KvBackend, LogStore, MemPoolStore, MetricsSnapshot};
use evostore_tensor::rope;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("evostore-getref-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run `get_resident` + fallback `get` (the provider read path) on one
/// store and a plain `get` on an identically-prepared twin; both
/// snapshots must agree exactly.
fn assert_fallback_counts_once<B: KvBackend>(probe: B, twin: B, key: &[u8], value_len: usize) {
    match probe.get_resident(key) {
        Some(segments) => assert_eq!(rope::len(&segments), value_len),
        None => {
            probe.get(key).expect("value must be readable via get");
        }
    }
    twin.get(key).expect("value must be readable via get");

    let probe_m = probe.metrics_snapshot().expect("metrics tracked");
    let twin_m = twin.metrics_snapshot().expect("metrics tracked");
    assert_eq!(
        probe_m, twin_m,
        "resident-read accounting diverged from the single-get path"
    );
    assert_eq!((probe_m.gets, probe_m.bytes_read as usize), (1, value_len));
    assert_eq!(probe_m.misses, 0, "a served read must not count a miss");
}

#[test]
fn mempool_hit_counts_one_read() {
    let s = MemPoolStore::new();
    s.put(b"k", Bytes::from(vec![1u8; 50])).unwrap();
    let got = s.get_resident(b"k").expect("memory-resident");
    assert_eq!(rope::len(&got), 50);
    let m = s.metrics_snapshot().unwrap();
    assert_eq!((m.gets, m.misses, m.bytes_read), (1, 0, 50));
}

#[test]
fn mempool_rope_hit_counts_one_read() {
    // A value put as a rope is one value: one read of its logical
    // length, through either read.
    let (probe, twin) = (MemPoolStore::new(), MemPoolStore::new());
    for s in [&probe, &twin] {
        let rope = vec![
            Bytes::from(vec![1u8; 24]),
            Bytes::from(vec![2u8; 70]),
            Bytes::from(vec![3u8; 8]),
        ];
        s.put_segments(b"k", rope).unwrap();
    }
    assert_fallback_counts_once(probe, twin, b"k", 102);
}

#[test]
fn mempool_absent_counts_one_miss_via_fallback() {
    let s = MemPoolStore::new();
    assert!(s.get_resident(b"gone").is_none());
    let m = s.metrics_snapshot().unwrap();
    assert_eq!(
        (m.gets, m.misses),
        (0, 0),
        "a resident-read miss records nothing"
    );
    let _ = s.get(b"gone");
    let m = s.metrics_snapshot().unwrap();
    assert_eq!((m.gets, m.misses), (0, 1));
}

#[test]
fn logstore_disk_resident_fallback_counts_once() {
    let dir = tmpdir("log");
    let probe = LogStore::open(dir.join("probe")).unwrap();
    let twin = LogStore::open(dir.join("twin")).unwrap();
    for s in [&probe, &twin] {
        s.put(b"k", Bytes::from(vec![2u8; 80])).unwrap();
    }
    assert!(
        probe.get_resident(b"k").is_none(),
        "log values are disk-resident"
    );
    assert_fallback_counts_once(probe, twin, b"k", 80);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn logstore_rope_put_reads_back_and_counts_once() {
    // The gathering default of `put_segments`, on the log, read back
    // after a reopen.
    let dir = tmpdir("rope-log");
    let probe = LogStore::open(dir.join("probe")).unwrap();
    let twin = LogStore::open(dir.join("twin")).unwrap();
    for s in [&probe, &twin] {
        let rope = vec![Bytes::from(vec![4u8; 10]), Bytes::from(vec![5u8; 30])];
        s.put_segments(b"k", rope).unwrap();
    }
    assert_eq!(twin.get(b"k").unwrap()[8..12], [4, 4, 5, 5]);
    drop((probe, twin));
    let probe = LogStore::open(dir.join("probe")).unwrap();
    let twin = LogStore::open(dir.join("twin")).unwrap();
    assert!(probe.get_resident(b"k").is_none());
    assert_fallback_counts_once(probe, twin, b"k", 40);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunked_multi_chunk_fallback_counts_once() {
    // Chunks parked in a log: nothing is resident, whatever the count.
    let dir = tmpdir("chunk-log");
    let open =
        |name: &str| ChunkedStore::open(LogStore::open(dir.join(name)).unwrap(), 16).unwrap();
    let (probe, twin) = (open("probe"), open("twin"));
    for s in [&probe, &twin] {
        s.put(b"k", Bytes::from(vec![7u8; 100])).unwrap();
    }
    assert!(
        probe.get_resident(b"k").is_none(),
        "disk-parked chunks decline the resident read"
    );
    assert_fallback_counts_once(probe, twin, b"k", 100);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunked_multi_chunk_resident_counts_one_read() {
    // Seven resident chunks are one logical read — no fallback, nothing
    // reassembled — and the twin's plain `get` counts the same.
    let probe = ChunkedStore::open(MemPoolStore::new(), 16).unwrap();
    let twin = ChunkedStore::open(MemPoolStore::new(), 16).unwrap();
    for s in [&probe, &twin] {
        s.put(b"k", Bytes::from((0..100u8).collect::<Vec<u8>>()))
            .unwrap();
    }
    let segments = probe.get_resident(b"k").expect("every chunk is resident");
    assert_eq!(segments.len(), 7);
    assert_eq!(rope::flatten(&segments), twin.get(b"k").unwrap());
    assert_eq!(probe.metrics_snapshot(), twin.metrics_snapshot());
    let m = probe.metrics_snapshot().unwrap();
    assert_eq!((m.gets, m.misses, m.bytes_read), (1, 0, 100));
}

#[test]
fn chunked_single_chunk_hit_counts_one_read() {
    let s = ChunkedStore::open(MemPoolStore::new(), 256).unwrap();
    s.put(b"k", Bytes::from(vec![8u8; 100])).unwrap();
    assert_eq!(rope::len(&s.get_resident(b"k").unwrap()), 100);
    let m = s.metrics_snapshot().unwrap();
    assert_eq!((m.gets, m.misses, m.bytes_read), (1, 0, 100));
}

#[test]
fn segments_count_one_read() {
    let s = ChunkedStore::open(MemPoolStore::new(), 16).unwrap();
    s.put(b"k", Bytes::from(vec![1u8; 64])).unwrap();
    let segs = s.get_resident(b"k").unwrap();
    assert_eq!(segs.len(), 4);
    let m = s.metrics_snapshot().unwrap();
    assert_eq!((m.gets, m.bytes_read), (1, 64));
    // Absent key records nothing (fallback get supplies the miss).
    assert!(s.get_resident(b"absent").is_none());
    let m2 = s.metrics_snapshot().unwrap();
    assert_eq!(MetricsSnapshot { ..m2 }, m);
}
