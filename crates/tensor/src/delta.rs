//! Float-aware delta encoding of tensor records against an ancestor.
//!
//! Fine-tuning perturbs a tensor's values slightly; the byte image of the
//! fine-tuned tensor is *nearly* identical to its ancestor's. Storing the
//! full record wastes the capacity the lineage structure offers (the same
//! observation NeurStore and TStore exploit). The codec here turns a
//! serialized tensor record into a compact *delta record*:
//!
//! 1. XOR the raw record against the ancestor's raw record (same length —
//!    fine-tuning preserves dtype and shape, so the [`crate::ser`] framing
//!    is byte-identical except for payload and checksum). Unchanged bytes
//!    become zero.
//! 2. Byte-transpose the XOR image in 4-byte lanes. For `f32` payloads the
//!    sign/exponent/high-mantissa bytes of touched elements often XOR to
//!    zero even when the low mantissa bytes differ, so grouping bytes by
//!    lane concentrates the zeros into long runs.
//! 3. Run-length encode zero runs (literals pass through framed).
//!
//! Encoding is *opportunistic*: [`encode_delta`] returns `None` unless the
//! delta record saves at least 1/16th of the raw record, so callers always
//! fall back to raw storage when the delta doesn't win (unrelated content,
//! dtype change, resized layer).
//!
//! A delta record is self-describing:
//!
//! ```text
//! magic    u32   0x4556444C ("EVDL")
//! version  u8    1
//! depth    u8    chain depth (1 = encoded against a raw base)
//! _pad     u16   zero
//! base     16 B  KV key of the base record (a TensorKey encoding)
//! raw_len  u64   length of the reconstructed raw record
//! comp_len u64   compressed body length
//! body     comp_len bytes
//! check    u64   checksum64(body)
//! ```
//!
//! The magic is disjoint from the tensor-record magic (`"EVST"`), so a
//! provider can classify a stored record by its first four bytes.

use bytes::{BufMut, Bytes, BytesMut};

use crate::hash::checksum64;

/// First four bytes of a delta record ("EVDL" when read as LE u32).
pub const DELTA_MAGIC: u32 = 0x4556_444C;

const VERSION: u8 = 1;
/// Fixed header length: magic + version + depth + pad + base + raw_len +
/// comp_len.
const HEADER_LEN: usize = 4 + 1 + 1 + 2 + 16 + 8 + 8;
/// Trailing checksum length.
const CHECK_LEN: usize = 8;
/// Number of byte lanes in the transpose (f32 width; works fine for other
/// dtypes too, it is just a byte permutation).
const LANES: usize = 4;
/// A zero run must be at least this long to beat its 5-byte token.
const ZERO_RUN_MIN: usize = 6;
/// Encoding must save at least raw_len / MIN_SAVINGS_DENOM bytes.
const MIN_SAVINGS_DENOM: usize = 16;

/// Errors produced while decoding a delta record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Record shorter than its own framing claims.
    Truncated,
    /// Bad magic number — not a delta record.
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u8),
    /// The supplied base record does not match the length recorded at
    /// encode time — the caller resolved the wrong base.
    BaseMismatch { expected: usize, actual: usize },
    /// Integrity checksum failed (corrupted body).
    ChecksumMismatch,
    /// Unknown RLE token tag.
    BadToken(u8),
    /// The RLE stream decoded to the wrong length.
    LengthMismatch { expected: usize, actual: usize },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Truncated => write!(f, "truncated delta record"),
            DeltaError::BadMagic(m) => write!(f, "bad delta magic 0x{m:08x}"),
            DeltaError::BadVersion(v) => write!(f, "unsupported delta version {v}"),
            DeltaError::BaseMismatch { expected, actual } => {
                write!(f, "base record length {actual} != expected {expected}")
            }
            DeltaError::ChecksumMismatch => write!(f, "delta body checksum mismatch"),
            DeltaError::BadToken(t) => write!(f, "unknown delta RLE token {t}"),
            DeltaError::LengthMismatch { expected, actual } => {
                write!(f, "delta decoded length {actual} != expected {expected}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Parsed header of a delta record (without touching the body).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// KV key of the base record this delta was encoded against.
    pub base_key: [u8; 16],
    /// Chain depth: 1 = base is a raw record, 2 = base is itself a
    /// depth-1 delta, ...
    pub depth: u8,
    /// Length of the reconstructed raw record.
    pub raw_len: usize,
}

/// True when `record` carries the delta magic.
#[inline]
pub fn is_delta(record: &[u8]) -> bool {
    record.len() >= 4 && u32::from_le_bytes(record[0..4].try_into().unwrap()) == DELTA_MAGIC
}

/// Bytes of record prefix [`delta_probe`] needs to parse a header.
pub const DELTA_PROBE_LEN: usize = HEADER_LEN;

/// Parse the header of a delta record produced by [`encode_delta`].
pub fn delta_header(record: &[u8]) -> Result<DeltaHeader, DeltaError> {
    delta_probe(record, record.len())
}

/// Parse a delta header from a *prefix* of the record (at least
/// [`DELTA_PROBE_LEN`] bytes) plus the record's total length — the
/// chunk-negotiated transfer plane validates framing from a record's
/// head chunk without ever assembling the record.
pub fn delta_probe(prefix: &[u8], record_len: usize) -> Result<DeltaHeader, DeltaError> {
    if prefix.len() < 4 {
        return Err(DeltaError::Truncated);
    }
    let magic = u32::from_le_bytes(prefix[0..4].try_into().unwrap());
    if magic != DELTA_MAGIC {
        return Err(DeltaError::BadMagic(magic));
    }
    if prefix.len() < HEADER_LEN {
        return Err(DeltaError::Truncated);
    }
    let version = prefix[4];
    if version != VERSION {
        return Err(DeltaError::BadVersion(version));
    }
    let depth = prefix[5];
    let mut base_key = [0u8; 16];
    base_key.copy_from_slice(&prefix[8..24]);
    let raw_len = u64::from_le_bytes(prefix[24..32].try_into().unwrap()) as usize;
    let comp_len = u64::from_le_bytes(prefix[32..40].try_into().unwrap()) as usize;
    if record_len < HEADER_LEN + comp_len + CHECK_LEN {
        return Err(DeltaError::Truncated);
    }
    Ok(DeltaHeader {
        base_key,
        depth,
        raw_len,
    })
}

/// Encode `raw` as a delta against `base_raw`.
///
/// Returns `None` when the delta cannot win: the records differ in length
/// (dtype/shape changed), the input is empty, or the compressed form does
/// not save at least 1/16th of the raw record. The caller stores the raw
/// record in that case.
pub fn encode_delta(raw: &[u8], base_raw: &[u8], base_key: [u8; 16], depth: u8) -> Option<Bytes> {
    if raw.len() != base_raw.len() || raw.is_empty() {
        return None;
    }
    let mut xored = vec![0u8; raw.len()];
    for ((out, a), b) in xored.iter_mut().zip(raw).zip(base_raw) {
        *out = a ^ b;
    }
    let trans = transpose(&xored);
    let body = rle_encode(&trans);
    let total = HEADER_LEN + body.len() + CHECK_LEN;
    if total + raw.len() / MIN_SAVINGS_DENOM > raw.len() {
        return None;
    }
    let mut buf = BytesMut::with_capacity(total);
    buf.put_u32_le(DELTA_MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(depth);
    buf.put_u16_le(0);
    buf.extend_from_slice(&base_key);
    buf.put_u64_le(raw.len() as u64);
    buf.put_u64_le(body.len() as u64);
    buf.extend_from_slice(&body);
    buf.put_u64_le(checksum64(&body));
    Some(buf.freeze())
}

/// Reconstruct the raw record from a delta record and the *raw* bytes of
/// its base (callers resolve — and, for chained deltas, recursively
/// reconstruct — the base via [`delta_header`]).
pub fn decode_delta(record: &[u8], base_raw: &[u8]) -> Result<Bytes, DeltaError> {
    let header = delta_header(record)?;
    if base_raw.len() != header.raw_len {
        return Err(DeltaError::BaseMismatch {
            expected: header.raw_len,
            actual: base_raw.len(),
        });
    }
    let comp_len = u64::from_le_bytes(record[32..40].try_into().unwrap()) as usize;
    let body = &record[HEADER_LEN..HEADER_LEN + comp_len];
    let check = u64::from_le_bytes(
        record[HEADER_LEN + comp_len..HEADER_LEN + comp_len + CHECK_LEN]
            .try_into()
            .unwrap(),
    );
    if checksum64(body) != check {
        return Err(DeltaError::ChecksumMismatch);
    }
    let trans = rle_decode(body, header.raw_len)?;
    let mut out = untranspose(&trans);
    for (o, b) in out.iter_mut().zip(base_raw) {
        *o ^= b;
    }
    Ok(Bytes::from(out))
}

/// Group bytes by position-within-a-4-byte-lane: all lane-0 bytes, then
/// all lane-1 bytes, ... Tail bytes (len % 4) pass through unpermuted.
fn transpose(src: &[u8]) -> Vec<u8> {
    let words = src.len() / LANES;
    let mut out = Vec::with_capacity(src.len());
    for lane in 0..LANES {
        for w in 0..words {
            out.push(src[w * LANES + lane]);
        }
    }
    out.extend_from_slice(&src[words * LANES..]);
    out
}

/// Inverse of [`transpose`].
fn untranspose(src: &[u8]) -> Vec<u8> {
    let words = src.len() / LANES;
    let mut out = vec![0u8; src.len()];
    let mut idx = 0;
    for lane in 0..LANES {
        for w in 0..words {
            out[w * LANES + lane] = src[idx];
            idx += 1;
        }
    }
    out[words * LANES..].copy_from_slice(&src[idx..]);
    out
}

/// Zero-run RLE. Token stream: `[0, len u32]` emits `len` zero bytes,
/// `[1, len u32, bytes...]` emits a literal.
fn rle_encode(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 8 + 16);
    let mut i = 0;
    let mut lit_start = 0;
    while i < src.len() {
        if src[i] == 0 {
            let run_start = i;
            while i < src.len() && src[i] == 0 {
                i += 1;
            }
            let run = i - run_start;
            if run >= ZERO_RUN_MIN {
                flush_literal(&mut out, &src[lit_start..run_start]);
                out.push(0);
                out.extend_from_slice(&(run as u32).to_le_bytes());
                lit_start = i;
            }
            // Short zero runs fold into the surrounding literal.
        } else {
            i += 1;
        }
    }
    flush_literal(&mut out, &src[lit_start..]);
    out
}

fn flush_literal(out: &mut Vec<u8>, lit: &[u8]) {
    for part in lit.chunks(u32::MAX as usize) {
        out.push(1);
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(part);
    }
}

fn rle_decode(src: &[u8], expect_len: usize) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::with_capacity(expect_len);
    let mut i = 0;
    while i < src.len() {
        if i + 5 > src.len() {
            return Err(DeltaError::Truncated);
        }
        let tag = src[i];
        let len = u32::from_le_bytes(src[i + 1..i + 5].try_into().unwrap()) as usize;
        i += 5;
        match tag {
            0 => out.resize(out.len() + len, 0),
            1 => {
                if i + len > src.len() {
                    return Err(DeltaError::Truncated);
                }
                out.extend_from_slice(&src[i..i + len]);
                i += len;
            }
            t => return Err(DeltaError::BadToken(t)),
        }
        if out.len() > expect_len {
            return Err(DeltaError::LengthMismatch {
                expected: expect_len,
                actual: out.len(),
            });
        }
    }
    if out.len() != expect_len {
        return Err(DeltaError::LengthMismatch {
            expected: expect_len,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::ser::write_tensor;
    use crate::tensor::TensorData;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const KEY: [u8; 16] = [7u8; 16];

    #[test]
    fn sparse_perturbation_roundtrips_and_wins() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let base = TensorData::random(&mut rng, DType::F32, vec![64, 64]);
        let tuned = base.perturbed_sparse(&mut rng, 0.05);
        let base_rec = write_tensor(&base);
        let tuned_rec = write_tensor(&tuned);

        let delta = encode_delta(&tuned_rec, &base_rec, KEY, 1).expect("sparse delta must win");
        assert!(
            delta.len() * 4 < tuned_rec.len(),
            "delta {} vs raw {}",
            delta.len(),
            tuned_rec.len()
        );
        let header = delta_header(&delta).unwrap();
        assert_eq!(header.base_key, KEY);
        assert_eq!(header.depth, 1);
        assert_eq!(header.raw_len, tuned_rec.len());
        assert!(is_delta(&delta));
        assert!(!is_delta(&tuned_rec));

        let back = decode_delta(&delta, &base_rec).unwrap();
        assert_eq!(back, tuned_rec);
    }

    #[test]
    fn identical_records_compress_to_header() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let t = TensorData::random(&mut rng, DType::F32, vec![256]);
        let rec = write_tensor(&t);
        let delta = encode_delta(&rec, &rec, KEY, 1).unwrap();
        assert!(delta.len() < 64, "all-zero delta should be tiny");
        assert_eq!(decode_delta(&delta, &rec).unwrap(), rec);
    }

    #[test]
    fn unrelated_content_declines() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let a = write_tensor(&TensorData::random(&mut rng, DType::F32, vec![512]));
        let b = write_tensor(&TensorData::random(&mut rng, DType::F32, vec![512]));
        assert_eq!(encode_delta(&a, &b, KEY, 1), None);
    }

    #[test]
    fn length_mismatch_declines() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let a = write_tensor(&TensorData::random(&mut rng, DType::F32, vec![64]));
        let b = write_tensor(&TensorData::random(&mut rng, DType::F32, vec![65]));
        assert_eq!(encode_delta(&a, &b, KEY, 1), None);
        assert_eq!(encode_delta(&[], &[], KEY, 1), None);
    }

    #[test]
    fn wrong_base_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let base = TensorData::random(&mut rng, DType::F32, vec![128]);
        let tuned = base.perturbed_sparse(&mut rng, 0.02);
        let base_rec = write_tensor(&base);
        let delta = encode_delta(&write_tensor(&tuned), &base_rec, KEY, 1).unwrap();
        let short = write_tensor(&TensorData::zeros(DType::F32, vec![4]));
        assert!(matches!(
            decode_delta(&delta, &short),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn corruption_detected() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let base = TensorData::random(&mut rng, DType::F32, vec![128]);
        let tuned = base.perturbed_sparse(&mut rng, 0.02);
        let base_rec = write_tensor(&base);
        let delta = encode_delta(&write_tensor(&tuned), &base_rec, KEY, 1).unwrap();

        let mut bad = delta.to_vec();
        let body_at = HEADER_LEN + 2;
        bad[body_at] ^= 0x40;
        assert!(matches!(
            decode_delta(&bad, &base_rec),
            Err(DeltaError::ChecksumMismatch)
        ));

        let mut bad_magic = delta.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            delta_header(&bad_magic),
            Err(DeltaError::BadMagic(_))
        ));

        let mut bad_version = delta.to_vec();
        bad_version[4] = 9;
        assert!(matches!(
            delta_header(&bad_version),
            Err(DeltaError::BadVersion(9))
        ));

        for cut in [0, 3, HEADER_LEN - 1, delta.len() - 1] {
            assert!(matches!(
                decode_delta(&delta[..cut], &base_rec),
                Err(DeltaError::Truncated)
            ));
        }
    }

    #[test]
    fn depth_is_preserved() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let base = TensorData::random(&mut rng, DType::F32, vec![64]);
        let tuned = base.perturbed_sparse(&mut rng, 0.02);
        let delta = encode_delta(&write_tensor(&tuned), &write_tensor(&base), KEY, 3).unwrap();
        assert_eq!(delta_header(&delta).unwrap().depth, 3);
    }

    #[test]
    fn transpose_roundtrip_all_tail_lengths() {
        for n in 0..40usize {
            let src: Vec<u8> = (0..n as u8).collect();
            assert_eq!(untranspose(&transpose(&src)), src, "len {n}");
        }
    }

    #[test]
    fn rle_roundtrip_edge_cases() {
        for src in [
            vec![],
            vec![0u8; 100],
            vec![1u8; 100],
            [vec![0u8; 50], vec![9u8; 3], vec![0u8; 50]].concat(),
            vec![0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2],
        ] {
            let enc = rle_encode(&src);
            assert_eq!(rle_decode(&enc, src.len()).unwrap(), src);
        }
    }
}
