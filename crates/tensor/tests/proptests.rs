//! Property-based tests for the tensor substrate.

use bytes::Bytes;
use evostore_tensor::{
    decode_delta, delta_header, encode_delta, encode_delta_segments, is_delta, is_delta_segments,
    payload_range, payload_range_segments, read_tensor, read_tensor_segments, rope,
    validate_record, validate_segments, write_tensor, write_tensor_segments, DType, SerError,
    TensorData, TensorKey,
};
use evostore_tensor::{ModelId, VertexId};
use proptest::prelude::*;

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop::sample::select(DType::ALL.to_vec())
}

fn arb_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..16, 0..4)
}

fn arb_tensor() -> impl Strategy<Value = TensorData> {
    (arb_dtype(), arb_shape(), any::<u64>()).prop_map(|(dt, shape, seed)| {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        TensorData::random(&mut rng, dt, shape)
    })
}

/// `bytes` cut into a rope at `cuts` (each taken modulo what is left, so
/// empty segments and cuts at either end occur).
fn resplit(bytes: &Bytes, cuts: &[usize]) -> Vec<Bytes> {
    let mut rest = bytes.clone();
    let mut out = Vec::with_capacity(cuts.len() + 1);
    for cut in cuts {
        out.push(rest.split_to(cut % (rest.len() + 1)));
    }
    out.push(rest);
    out
}

proptest! {
    /// The segmented encoder's rope is the contiguous record, for every
    /// dtype, scalar and empty-dim shapes included.
    #[test]
    fn segments_concatenate_to_the_record(t in arb_tensor()) {
        let record = write_tensor_segments(&t);
        prop_assert_eq!(rope::flatten(record.segments()), write_tensor(&t));
        prop_assert_eq!(read_tensor_segments(record.segments()).unwrap(), t);
    }

    /// Every segmented decoder entry point over an arbitrary re-split of
    /// a record — intact, cut short, or with one byte flipped — answers
    /// what the contiguous call answers: the same value or the same
    /// error, so in the same precedence.
    #[test]
    fn resplit_records_decode_like_contiguous_ones(
        t in arb_tensor(),
        cuts in prop::collection::vec(any::<usize>(), 0..6),
        damage in (any::<bool>(), any::<usize>(), 1u8..=255),
        keep in (any::<bool>(), any::<usize>()),
    ) {
        let mut rec = write_tensor(&t).to_vec();
        if let (true, pos, flip) = damage {
            let pos = pos % rec.len();
            rec[pos] ^= flip;
        }
        if let (true, keep) = keep {
            rec.truncate(keep % (rec.len() + 1));
        }
        let rec = Bytes::from(rec);
        let rope = resplit(&rec, &cuts);
        prop_assert_eq!(validate_segments(&rope), validate_record(&rec));
        prop_assert_eq!(read_tensor_segments(&rope), read_tensor(rec.clone()));
        prop_assert_eq!(payload_range_segments(&rope), payload_range(&rec));
        prop_assert_eq!(is_delta_segments(&rope), is_delta(&rec));
    }

    /// Serialization roundtrips for arbitrary dtype/shape/content.
    #[test]
    fn ser_roundtrip(t in arb_tensor()) {
        let rec = write_tensor(&t);
        let back = read_tensor(rec).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Any truncation of a valid record is rejected, never mis-decoded.
    #[test]
    fn ser_truncation_always_rejected(t in arb_tensor(), frac in 0.0f64..1.0) {
        let rec = write_tensor(&t);
        let cut = ((rec.len() as f64) * frac) as usize;
        if cut < rec.len() {
            prop_assert!(read_tensor(rec.slice(..cut)).is_err());
        }
    }

    /// Single-byte corruption anywhere in the record is detected.
    #[test]
    fn ser_corruption_detected(t in arb_tensor(), pos_seed in any::<u64>(), flip in 1u8..=255) {
        let rec = write_tensor(&t).to_vec();
        let mut pos = (pos_seed as usize) % rec.len();
        if pos == 6 || pos == 7 {
            // Bytes 6..8 are explicit header padding, ignored by the decoder.
            pos = 0;
        }
        let mut bad = rec.clone();
        bad[pos] ^= flip;
        match read_tensor(Bytes::from(bad)) {
            // Either an explicit decode error...
            Err(_) => {}
            // ...or the corruption hit a shape/len byte combination that
            // still frames consistently. That can only happen if it decodes
            // to a *different* tensor, never silently to the same one —
            // but the check catches payload flips, so a successful decode must
            // mean header bytes were flipped into another valid header.
            Ok(decoded) => {
                prop_assert!(decoded != t, "corruption at {pos} produced identical tensor");
            }
        }
    }

    /// Equal content implies equal hash; different payload implies different
    /// hash (no collisions observed at property-test scale).
    #[test]
    fn content_hash_consistency(t in arb_tensor()) {
        prop_assert_eq!(t.content_hash(), t.clone().content_hash());
        if t.byte_len() > 0 {
            let mut v = t.bytes().to_vec();
            v[0] ^= 1;
            let other = TensorData::from_bytes(t.dtype(), t.shape().to_vec(), Bytes::from(v)).unwrap();
            prop_assert_ne!(t.content_hash(), other.content_hash());
        }
    }

    /// TensorKey byte encoding is a bijection.
    #[test]
    fn tensor_key_roundtrip(owner in any::<u64>(), vertex in any::<u32>(), slot in any::<u32>()) {
        let k = TensorKey::new(ModelId(owner), VertexId(vertex), slot);
        prop_assert_eq!(TensorKey::decode(&k.encode()), Some(k));
    }

    /// Placement always lands in range.
    #[test]
    fn placement_in_range(id in any::<u64>(), n in 1usize..1024) {
        prop_assert!(ModelId(id).provider_for(n) < n);
    }

    /// Delta encode → decode is byte-identical for arbitrary
    /// tensor/ancestor pairs, across the whole derivation spectrum:
    /// identical payloads, sparse perturbations of the ancestor, and
    /// completely unrelated random tensors. Whenever the codec accepts a
    /// pair, decoding against the same base must reproduce the derived
    /// record exactly.
    #[test]
    fn delta_roundtrip_arbitrary_pairs(
        dt in arb_dtype(),
        shape in prop::collection::vec(1usize..12, 1..4),
        base_seed in any::<u64>(),
        kind in 0u8..3,
        fraction in 0.0f64..1.0,
        depth in 0u8..8,
    ) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(base_seed);
        let base = TensorData::random(&mut rng, dt, shape.clone());
        let derived = match kind {
            0 => base.clone(),                                // untouched layer
            1 => base.perturbed_sparse(&mut rng, fraction),   // fine-tuned layer
            _ => TensorData::random(&mut rng, dt, shape),     // retrained layer
        };
        let raw = write_tensor(&derived);
        let base_raw = write_tensor(&base);
        let key = TensorKey::new(ModelId(7), VertexId(3), 0).encode();
        let encoded = encode_delta(&raw, &base_raw, key, depth);
        // From the record and its base as ropes, each split anywhere: the
        // same record out.
        let rope = resplit(&raw, &[base_seed as usize, (base_seed >> 32) as usize]);
        let base_rope = resplit(&base_raw, &[(base_seed >> 16) as usize, base_seed.rotate_left(8) as usize]);
        prop_assert_eq!(&encode_delta_segments(&rope, &base_rope, key, depth), &encoded);
        if let Some(delta) = encoded {
            prop_assert!(is_delta(&delta));
            prop_assert!(delta.len() < raw.len(), "kept delta must save space");
            let header = delta_header(&delta).unwrap();
            prop_assert_eq!(header.base_key, key);
            prop_assert_eq!(header.depth, depth);
            prop_assert_eq!(header.raw_len, raw.len());
            let back = decode_delta(&delta, &base_raw).unwrap();
            prop_assert_eq!(back.as_ref(), raw.as_ref());
            // The reconstructed record still decodes to the derived tensor.
            prop_assert_eq!(read_tensor(back).unwrap(), derived);
        }
    }

    /// A raw tensor record is never mistaken for a delta record, so the
    /// read path's `is_delta` dispatch cannot misfire on whole payloads.
    #[test]
    fn raw_records_never_look_like_deltas(t in arb_tensor()) {
        prop_assert!(!is_delta(&write_tensor(&t)));
    }

    /// Decoding against the wrong-sized base fails loudly instead of
    /// producing bytes.
    #[test]
    fn delta_wrong_base_rejected(seed in any::<u64>(), grow in 1usize..64) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let base = TensorData::random(&mut rng, DType::F32, vec![16]);
        let derived = base.perturbed_sparse(&mut rng, 0.1);
        let raw = write_tensor(&derived);
        let base_raw = write_tensor(&base);
        let key = TensorKey::new(ModelId(1), VertexId(0), 0).encode();
        if let Some(delta) = encode_delta(&raw, &base_raw, key, 1) {
            let mut wrong = base_raw.to_vec();
            wrong.extend(vec![0u8; grow]);
            prop_assert!(decode_delta(&delta, &wrong).is_err());
        }
    }

    /// A record decodes with a LengthMismatch if we lie about the dtype in a
    /// way that changes the element size.
    #[test]
    fn dtype_swap_caught(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t = TensorData::random(&mut rng, DType::F32, vec![3]);
        let mut rec = write_tensor(&t).to_vec();
        rec[4] = DType::F64.tag(); // same framing, different element size
        match read_tensor(Bytes::from(rec)) {
            Err(SerError::LengthMismatch { .. }) => {}
            other => prop_assert!(false, "expected LengthMismatch, got {other:?}"),
        }
    }
}
