//! Property tests for the RPC fabric: payload fidelity under arbitrary
//! bodies, routing across many endpoints, and bulk-region semantics.

use bytes::Bytes;
use evostore_obs::{FlightRecorder, MonotonicClock, TimeSource, Tracer};
use evostore_rpc::{broadcast, Fabric, RetryPolicy, TraceHandle};
use proptest::prelude::*;
use std::sync::Arc;

evostore_rpc::rpc_methods! {
    /// Replies with the serving endpoint's index.
    Who = "v": u64 => u64;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary request bodies echo back byte-identically through the
    /// service-thread path.
    #[test]
    fn echo_is_identity(body in prop::collection::vec(any::<u8>(), 0..4096)) {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(2);
        ep.register("echo", Ok);
        let reply = fabric.call(ep.id(), "echo", Bytes::from(body.clone())).unwrap();
        prop_assert_eq!(reply.as_ref(), &body[..]);
    }

    /// With N endpoints each tagging replies with their index, every
    /// request routes to exactly the endpoint it was addressed to.
    #[test]
    fn routing_is_exact(n in 1usize..12, calls in prop::collection::vec(any::<u8>(), 1..64)) {
        let fabric = Fabric::new();
        let eps: Vec<_> = (0..n)
            .map(|i| {
                let ep = fabric.create_endpoint(1);
                ep.register("who", move |_| Ok(Bytes::from(vec![i as u8])));
                ep
            })
            .collect();
        for c in calls {
            let target = (c as usize) % n;
            let reply = fabric.call(eps[target].id(), "who", Bytes::new()).unwrap();
            prop_assert_eq!(reply.as_ref(), &[target as u8]);
        }
    }

    /// Broadcast returns one reply per target, in target order.
    #[test]
    fn broadcast_covers_all_targets(n in 1usize..10) {
        let fabric = Fabric::new();
        let eps: Vec<_> = (0..n)
            .map(|i| {
                let ep = fabric.create_endpoint(1);
                ep.serve(Who, move |_| Ok(i as u64));
                ep
            })
            .collect();
        let ids: Vec<_> = eps.iter().map(|e| e.id()).collect();
        // Untraced, then under a trace handle: same replies, plus one
        // attempt span per target.
        let wall: Arc<dyn TimeSource> = Arc::new(MonotonicClock::default());
        let ring = Arc::new(FlightRecorder::new("caller", 64, wall));
        let tracer = Tracer::new(Arc::clone(&ring));
        let root = tracer.start_root("op");
        let handle = TraceHandle::new(&tracer, root.ctx());
        for trace in [None, Some(&handle)] {
            let replies =
                broadcast(&fabric, &ids, Who, &0, &RetryPolicy::no_retry(), None, trace).unwrap();
            prop_assert_eq!(replies.len(), n);
            for (i, (from, reply)) in replies.iter().enumerate() {
                prop_assert_eq!(*from, ids[i]);
                prop_assert_eq!(reply.as_ref().unwrap(), &(i as u64));
            }
        }
        let attempts = ring.spans_for_trace(root.ctx().trace_id);
        prop_assert_eq!(attempts.len(), n);
        prop_assert!(attempts.iter().all(|s| s.name == "v" && s.is_ok()));
    }

    /// Bulk regions: expose/get preserves bytes; ranges slice correctly;
    /// release makes the handle invalid; no region leaks.
    #[test]
    fn bulk_region_semantics(data in prop::collection::vec(any::<u8>(), 1..2048), cuts in prop::collection::vec((any::<u16>(), any::<u16>()), 0..8)) {
        let fabric = Fabric::new();
        let h = fabric.bulk_expose_vec(vec![Bytes::from(data.clone())]);
        let full = fabric.bulk_get_vec(h).unwrap();
        prop_assert_eq!(&full.to_bytes()[..], &data[..]);
        for (a, b) in cuts {
            let off = (a as usize) % data.len();
            let len = (b as usize) % (data.len() - off + 1);
            let got = full.slice(off, len).unwrap();
            prop_assert_eq!(got.as_ref(), &data[off..off + len]);
        }
        prop_assert!(fabric.bulk_release(h));
        prop_assert!(fabric.bulk_get_vec(h).is_err());
        // A take is a get plus the release, on success and on failure.
        let h = fabric.bulk_expose_vec(vec![Bytes::from(data.clone())]);
        prop_assert_eq!(&fabric.bulk_take(h).unwrap().to_bytes()[..], &data[..]);
        prop_assert!(fabric.bulk_take(h).is_err());
        prop_assert_eq!(fabric.bulk_regions(), 0);
    }

    /// A vectored region's logical bytes are identical to the equivalent
    /// one-segment region under arbitrary segment splits: the gathering
    /// `to_bytes`, every gathering `slice`, and the copy-free
    /// `slice_rope` all agree with the flat buffer.
    #[test]
    fn vectored_region_matches_contiguous(
        data in prop::collection::vec(any::<u8>(), 1..2048),
        splits in prop::collection::vec(any::<u16>(), 0..8),
        cuts in prop::collection::vec((any::<u16>(), any::<u16>()), 0..8),
    ) {
        let fabric = Fabric::new();
        let flat = Bytes::from(data.clone());

        // Cut the buffer at arbitrary sorted positions. A repeated
        // position leaves an empty segment between its neighbours, so
        // runs of empty segments are interleaved anywhere.
        let mut at: Vec<usize> = splits.iter().map(|&s| (s as usize) % (data.len() + 1)).collect();
        at.sort_unstable();
        let mut segments = Vec::new();
        let mut prev = 0usize;
        for cut in at {
            segments.push(flat.slice(prev..cut));
            prev = cut;
        }
        segments.push(flat.slice(prev..));

        let hv = fabric.bulk_expose_vec(segments.clone());
        let hc = fabric.bulk_expose_vec(vec![flat.clone()]);
        let rope = fabric.bulk_get_vec(hv).unwrap();
        let contiguous = fabric.bulk_get_vec(hc).unwrap();

        // Gather ≡ contiguous; the one-segment gather is the buffer itself.
        prop_assert_eq!(&rope.to_bytes()[..], &data[..]);
        prop_assert_eq!(contiguous.to_bytes().as_ptr(), flat.as_ptr());

        // Rope path: segment list reassembles to the same logical bytes.
        prop_assert_eq!(rope.len(), data.len());
        let reassembled: Vec<u8> = rope.segments().iter().flat_map(|s| s.iter().copied()).collect();
        prop_assert_eq!(&reassembled[..], &data[..]);

        // Every range agrees between the two exposures.
        for (a, b) in cuts {
            let off = (a as usize) % data.len();
            let len = (b as usize) % (data.len() - off + 1);
            let v = rope.slice(off, len).unwrap();
            let c = contiguous.slice(off, len).unwrap();
            prop_assert_eq!(v.as_ref(), c.as_ref());
            prop_assert_eq!(v.as_ref(), &data[off..off + len]);
            // The rope slice never copies: every piece points into the
            // flat buffer where its bytes are, and a range inside one
            // segment is one piece — which the gathering slice shares too.
            let pieces = rope.slice_rope(off, len).unwrap();
            let mut next = off;
            for piece in &pieces {
                prop_assert!(!piece.is_empty());
                prop_assert_eq!(piece.as_ptr(), flat[next..].as_ptr());
                next += piece.len();
            }
            prop_assert_eq!(next, off + len);
            let in_segment = len > 0 && segments.iter().any(|s| {
                let start = s.as_ptr() as usize - flat.as_ptr() as usize;
                !s.is_empty() && start <= off && off + len <= start + s.len()
            });
            if in_segment {
                prop_assert_eq!(pieces.len(), 1);
                prop_assert_eq!(v.as_ptr(), flat[off..].as_ptr());
            }
        }
        // Out-of-bounds fails identically on both, gathering or not.
        for region in [&rope, &contiguous] {
            prop_assert!(region.slice(data.len(), 1).is_none());
            prop_assert!(region.slice_rope(data.len(), 1).is_none());
            prop_assert!(region.slice_rope(usize::MAX, 2).is_none());
        }

        prop_assert!(fabric.bulk_release(hv));
        prop_assert!(fabric.bulk_release(hc));
        prop_assert_eq!(fabric.bulk_regions(), 0);
    }

    /// Handlers that error never take the endpoint down: subsequent calls
    /// still succeed.
    #[test]
    fn handler_errors_are_isolated(msgs in prop::collection::vec(any::<bool>(), 1..32)) {
        let fabric = Fabric::new();
        let ep = fabric.create_endpoint(1);
        ep.register("maybe", |body: Bytes| {
            if body.first() == Some(&1) {
                Err("requested failure".into())
            } else {
                Ok(Bytes::from_static(b"ok"))
            }
        });
        for fail in msgs {
            let body = Bytes::from(vec![fail as u8]);
            let r = fabric.call(ep.id(), "maybe", body);
            prop_assert_eq!(r.is_err(), fail);
        }
    }
}
