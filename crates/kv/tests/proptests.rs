//! Model-based property tests: both backends must behave exactly like a
//! reference `HashMap` under arbitrary operation sequences, and the log
//! store must additionally survive reopen at any point.

use bytes::Bytes;
use evostore_kv::{ChunkedStore, KvBackend, LogStore, MemPoolStore, RefCountedStore};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
    Get(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Get),
    ]
}

fn check_against_reference<B: KvBackend>(store: &B, ops: &[Op]) {
    let mut reference: HashMap<u8, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(&[*k], Bytes::from(v.clone())).unwrap();
                reference.insert(*k, v.clone());
            }
            Op::Delete(k) => {
                let existed = store.delete(&[*k]).unwrap();
                assert_eq!(existed, reference.remove(k).is_some());
            }
            Op::Get(k) => {
                let got = store.get(&[*k]).ok().map(|b| b.to_vec());
                assert_eq!(got, reference.get(k).cloned());
            }
        }
        assert_eq!(store.len(), reference.len());
        assert_eq!(
            store.bytes_used(),
            reference.values().map(Vec::len).sum::<usize>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mempool_matches_reference(ops in prop::collection::vec(arb_op(), 0..120)) {
        check_against_reference(&MemPoolStore::new(), &ops);
    }

    #[test]
    fn logstore_matches_reference(ops in prop::collection::vec(arb_op(), 0..120)) {
        let dir = std::env::temp_dir().join(format!(
            "evostore-kv-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        check_against_reference(&LogStore::open(&dir).unwrap(), &ops);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Split an op sequence at an arbitrary point, close and reopen the
    /// log store in between: the final state must equal the uninterrupted
    /// reference.
    #[test]
    fn logstore_reopen_preserves_state(
        ops in prop::collection::vec(arb_op(), 1..80),
        split_frac in 0.0f64..1.0
    ) {
        let dir = std::env::temp_dir().join(format!(
            "evostore-kv-reopen-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let split = ((ops.len() as f64) * split_frac) as usize;
        let mut reference: HashMap<u8, Vec<u8>> = HashMap::new();

        {
            let s = LogStore::open(&dir).unwrap();
            for op in &ops[..split] {
                match op {
                    Op::Put(k, v) => {
                        s.put(&[*k], Bytes::from(v.clone())).unwrap();
                        reference.insert(*k, v.clone());
                    }
                    Op::Delete(k) => {
                        s.delete(&[*k]).unwrap();
                        reference.remove(k);
                    }
                    Op::Get(_) => {}
                }
            }
        } // dropped: close

        let s = LogStore::open(&dir).unwrap();
        for op in &ops[split..] {
            match op {
                Op::Put(k, v) => {
                    s.put(&[*k], Bytes::from(v.clone())).unwrap();
                    reference.insert(*k, v.clone());
                }
                Op::Delete(k) => {
                    s.delete(&[*k]).unwrap();
                    reference.remove(k);
                }
                Op::Get(k) => {
                    let got = s.get(&[*k]).ok().map(|b| b.to_vec());
                    prop_assert_eq!(got, reference.get(k).cloned());
                }
            }
        }
        prop_assert_eq!(s.len(), reference.len());
        for (k, v) in &reference {
            prop_assert_eq!(s.get(&[*k]).unwrap().to_vec(), v.clone());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The content-addressed store behaves exactly like a reference map
    /// at every chunk size, including sizes far below a payload (many
    /// chunks per value) and far above (single-chunk fast path). Physical
    /// occupancy can only shrink relative to logical bytes (dedup) plus
    /// bounded per-value manifest overhead.
    #[test]
    fn chunked_matches_reference(
        ops in prop::collection::vec(arb_op(), 0..100),
        chunk_size in 1usize..96,
    ) {
        let store = ChunkedStore::open(MemPoolStore::new(), chunk_size).unwrap();
        let mut reference: HashMap<u8, Vec<u8>> = HashMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    store.put(&[*k], Bytes::from(v.clone())).unwrap();
                    reference.insert(*k, v.clone());
                }
                Op::Delete(k) => {
                    let existed = store.delete(&[*k]).unwrap();
                    prop_assert_eq!(existed, reference.remove(k).is_some());
                }
                Op::Get(k) => {
                    let got = store.get(&[*k]).ok().map(|b| b.to_vec());
                    prop_assert_eq!(got, reference.get(k).cloned());
                }
            }
            prop_assert_eq!(store.len(), reference.len());
        }
        let stats = store.stats();
        let logical: usize = reference.values().map(Vec::len).sum();
        prop_assert_eq!(stats.logical_bytes as usize, logical);
        prop_assert_eq!(stats.manifests as usize, reference.len());
        // Every surviving value roundtrips bytewise through both read
        // paths: contiguous get and the zero-copy segment plane.
        for (k, v) in &reference {
            prop_assert_eq!(store.get(&[*k]).unwrap().to_vec(), v.clone());
            let segs = store.get_resident(&[*k]).unwrap();
            let total: usize = segs.iter().map(Bytes::len).sum();
            prop_assert_eq!(total, v.len());
            let mut joined = Vec::with_capacity(total);
            for s in &segs {
                joined.extend_from_slice(s);
            }
            prop_assert_eq!(&joined, v);
            if !v.is_empty() {
                prop_assert!(segs.iter().all(|s| s.len() <= chunk_size));
            }
        }
        // Dedup invariant: chunks are unique, so physical payload bytes
        // never exceed logical bytes + per-value manifest overhead.
        let manifest_overhead = reference.len() * (16 + logical.div_ceil(chunk_size.max(1)) * 16 + 32);
        prop_assert!(
            (stats.physical_bytes as usize) <= logical + manifest_overhead,
            "physical {} exceeds logical {} + manifest bound {}",
            stats.physical_bytes, logical, manifest_overhead
        );
    }

    /// Reopening a chunked log store at an arbitrary point preserves every
    /// value and rebuilds chunk refcounts so later deletes still reclaim.
    #[test]
    fn chunked_logstore_reopen_preserves_state(
        puts in prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)), 1..24),
        chunk_size in 1usize..48,
        split_frac in 0.0f64..1.0,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "evostore-chunk-reopen-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let split = ((puts.len() as f64) * split_frac) as usize;
        let mut reference: HashMap<u8, Vec<u8>> = HashMap::new();
        {
            let s = ChunkedStore::open(LogStore::open(&dir).unwrap(), chunk_size).unwrap();
            for (k, v) in &puts[..split] {
                s.put(&[*k], Bytes::from(v.clone())).unwrap();
                reference.insert(*k, v.clone());
            }
        } // dropped: close
        let s = ChunkedStore::open(LogStore::open(&dir).unwrap(), chunk_size).unwrap();
        for (k, v) in &puts[split..] {
            s.put(&[*k], Bytes::from(v.clone())).unwrap();
            reference.insert(*k, v.clone());
        }
        prop_assert_eq!(s.len(), reference.len());
        for (k, v) in &reference {
            prop_assert_eq!(s.get(&[*k]).unwrap().to_vec(), v.clone());
        }
        // Refcounts were rebuilt on reopen: deleting everything leaves no
        // chunks or manifests behind.
        for k in reference.keys() {
            prop_assert!(s.delete(&[*k]).unwrap());
        }
        let stats = s.stats();
        prop_assert_eq!(stats.chunks, 0);
        prop_assert_eq!(stats.manifests, 0);
        prop_assert!(s.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Putting a value as a rope, split anywhere, is putting its bytes:
    /// the same chunk hashes, chunk refcounts (probed by deleting down to
    /// nothing) and `ChunkStats` as the flat put, overwrites and repeated
    /// content included, and the same bytes back through both reads.
    #[test]
    fn chunked_rope_put_matches_flat_put(
        puts in prop::collection::vec(
            (0u8..6, prop::collection::vec(0u8..4, 0..96), prop::collection::vec(any::<usize>(), 0..5)),
            1..16,
        ),
        chunk_size in 1usize..40,
    ) {
        let by_rope = ChunkedStore::open(MemPoolStore::new(), chunk_size).unwrap();
        let by_flat = ChunkedStore::open(MemPoolStore::new(), chunk_size).unwrap();
        for (k, v, cuts) in &puts {
            let mut rest = Bytes::from(v.clone());
            let mut rope = Vec::new();
            for cut in cuts {
                rope.push(rest.split_to(cut % (rest.len() + 1)));
            }
            rope.push(rest);
            by_rope.put_segments(&[*k], rope).unwrap();
            by_flat.put(&[*k], Bytes::from(v.clone())).unwrap();
            prop_assert_eq!(by_rope.stats(), by_flat.stats());
            prop_assert_eq!(by_rope.chunk_manifest(&[*k]), by_flat.chunk_manifest(&[*k]));
            prop_assert_eq!(&by_rope.get(&[*k]).unwrap()[..], &v[..]);
            let resident = by_rope.get_resident(&[*k]).unwrap();
            prop_assert_eq!(&evostore_tensor::rope::flatten(&resident)[..], &v[..]);
        }
        for k in 0u8..6 {
            prop_assert_eq!(by_rope.delete(&[k]).unwrap(), by_flat.delete(&[k]).unwrap());
            prop_assert_eq!(by_rope.stats(), by_flat.stats());
        }
        prop_assert_eq!(by_rope.bytes_used(), 0);
    }

    /// Refcount lifecycle: after an arbitrary interleaving of incr/decr
    /// that nets to zero for every key, the store is empty and the audit
    /// passes at every step.
    #[test]
    fn refcount_net_zero_empties_store(keys in prop::collection::vec(any::<u8>(), 1..12), extra in 0u64..6) {
        let s = RefCountedStore::new(MemPoolStore::new());
        let uniq: std::collections::HashSet<u8> = keys.iter().copied().collect();
        for k in &uniq {
            s.put(&[*k], Bytes::from(vec![*k; 8]), 1).unwrap();
            for _ in 0..extra {
                s.incr(&[*k]).unwrap();
            }
        }
        s.audit().unwrap();
        for k in &uniq {
            for _ in 0..extra {
                assert!(s.decr(&[*k]).unwrap() > 0);
            }
            assert_eq!(s.decr(&[*k]).unwrap(), 0);
        }
        prop_assert!(s.is_empty());
        prop_assert_eq!(s.bytes_used(), 0);
        s.audit().unwrap();
    }
}
