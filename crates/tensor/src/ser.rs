//! Wire serialization of tensors.
//!
//! The repository moves tensors over the (simulated) fabric and persists
//! them in KV backends as opaque byte records. The format is deliberately
//! minimal — one fixed header, raw payload — because a design goal of
//! EvoStore is to avoid the heavyweight serialization of formats like HDF5
//! (which the baseline crate reproduces for comparison):
//!
//! ```text
//! magic   u32   0x45565354 ("EVST")
//! dtype   u8
//! rank    u8
//! _pad    u16   zero
//! dims    u64 x rank
//! len     u64   payload length in bytes
//! payload len bytes
//! check   u64   checksum64(payload) — integrity check
//! ```
//!
//! The check is the word-parallel lane hash of [`crate::hash`], computed
//! where the record is written ([`write_tensor`]), where a provider accepts
//! it ([`validate_record`]) and where it is decoded ([`read_tensor`]). A
//! record stamped by an earlier build (FNV-1a check) fails all three with
//! [`SerError::ChecksumMismatch`].
//!
//! A record need not be contiguous. Each of the three has a `_segments`
//! twin over a rope ([`crate::rope`]) with the same logical bytes:
//! [`write_tensor_segments`] hands back `[head, the tensor's own payload
//! buffer, check]` for a large tensor, so a store never copies the payload
//! into a record buffer, and [`validate_segments`] /
//! [`read_tensor_segments`] take that rope — or any other split of the
//! same bytes — through the one frame parser the contiguous calls use.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::dtype::DType;
use crate::hash::{checksum64, checksum64_parts};
use crate::rope;
use crate::tensor::TensorData;

const MAGIC: u32 = 0x4556_5354;
/// Trailing check length.
const CHECK_LEN: usize = 8;
/// Longest frame head: magic..pad, 255 dims, len.
const MAX_HEAD: usize = 8 + 255 * 8 + 8;

/// Payload size from which [`write_tensor_segments`] borrows the payload
/// instead of copying it into a fresh record buffer. Below it the three
/// segments cost more (two extra buffers and a segment list per record,
/// +18 % resident memory on a catalog of ≈300-byte tensors) than the copy
/// they save; the `record_encoding` group of the micro bench is the sweep
/// it was read from (EXPERIMENTS.md "Borrowed records").
pub const BORROW_MIN_BYTES: usize = 64 * 1024;

/// Errors produced while decoding a tensor record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerError {
    /// Record shorter than its own framing claims.
    Truncated,
    /// Bad magic number — not a tensor record.
    BadMagic(u32),
    /// Unknown dtype tag.
    BadDType(u8),
    /// Payload length disagrees with dtype x shape.
    LengthMismatch { expected: usize, actual: usize },
    /// Integrity checksum failed (corrupted payload).
    ChecksumMismatch,
}

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerError::Truncated => write!(f, "truncated tensor record"),
            SerError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            SerError::BadDType(t) => write!(f, "unknown dtype tag {t}"),
            SerError::LengthMismatch { expected, actual } => {
                write!(f, "payload length {actual} != expected {expected}")
            }
            SerError::ChecksumMismatch => write!(f, "tensor payload checksum mismatch"),
        }
    }
}

impl std::error::Error for SerError {}

/// The frame head of `t`'s record: everything before the payload.
fn put_head(buf: &mut BytesMut, t: &TensorData) {
    buf.put_u32_le(MAGIC);
    buf.put_u8(t.dtype().tag());
    buf.put_u8(t.shape().len() as u8);
    buf.put_u16_le(0);
    for &d in t.shape() {
        buf.put_u64_le(d as u64);
    }
    buf.put_u64_le(t.byte_len() as u64);
}

fn head_len(rank: usize) -> usize {
    8 + rank * 8 + 8
}

/// Encode a tensor into a self-contained contiguous record: the payload
/// is copied behind its frame head. The encoding of small tensors, and the
/// reference the segmented encoder is compared against.
pub fn write_tensor(t: &TensorData) -> Bytes {
    let payload = t.bytes();
    let mut buf = BytesMut::with_capacity(head_len(t.shape().len()) + payload.len() + CHECK_LEN);
    put_head(&mut buf, t);
    buf.extend_from_slice(payload);
    buf.put_u64_le(checksum64(payload));
    buf.freeze()
}

/// A tensor record as [`write_tensor_segments`] encodes it: a rope of one
/// or three segments, held inline — encoding a small tensor allocates its
/// record buffer and nothing else, as [`write_tensor`] does. (A segment
/// list allocated per record, freed while the record buffers beside it
/// live on in the pool, left the client's heap full of holes: +30 % on a
/// 3000-model set-up of ≈500-byte tensors.)
#[derive(Debug, Clone)]
pub enum Record {
    /// The one contiguous buffer [`write_tensor`] returns.
    Contiguous(Bytes),
    /// `[frame head, the tensor's own payload buffer, check]`
    /// ([`write_tensor_borrowed`]).
    Borrowed([Bytes; 3]),
}

impl Record {
    /// The record as a rope: its segments in order.
    pub fn segments(&self) -> &[Bytes] {
        match self {
            Record::Contiguous(record) => std::slice::from_ref(record),
            Record::Borrowed(segments) => segments,
        }
    }
}

/// Encode a tensor as a rope whose concatenation is [`write_tensor`]'s
/// record, byte for byte, choosing the encoding by size: from
/// [`BORROW_MIN_BYTES`] of payload up, the rope of
/// [`write_tensor_borrowed`]; below it, the one contiguous record.
pub fn write_tensor_segments(t: &TensorData) -> Record {
    if t.byte_len() < BORROW_MIN_BYTES {
        Record::Contiguous(write_tensor(t))
    } else {
        Record::Borrowed(write_tensor_borrowed(t))
    }
}

/// Encode a tensor as `[frame head, the tensor's own payload buffer,
/// check]`: the payload is shared (a refcount bump), never copied, so the
/// record pins that buffer for as long as it is stored. Callers want
/// [`write_tensor_segments`], which borrows only where it pays; this is
/// its large-tensor half, public for the sweep that places the threshold.
pub fn write_tensor_borrowed(t: &TensorData) -> [Bytes; 3] {
    // Head and check share one small buffer.
    let head = head_len(t.shape().len());
    let mut frame = BytesMut::with_capacity(head + CHECK_LEN);
    put_head(&mut frame, t);
    frame.put_u64_le(checksum64(t.bytes()));
    let frame = frame.freeze();
    [frame.slice(..head), t.bytes().clone(), frame.slice(head..)]
}

/// What a record's frame head says: the one parser behind every decoder
/// entry point, contiguous or segmented.
struct Frame {
    dtype: DType,
    rank: usize,
    /// Byte range of the payload within the record; the check follows it.
    payload: Range<usize>,
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

/// Parse the frame of a record `total` bytes long from `head`, its first
/// `min(total, head length)` bytes or more. Every length off the wire is
/// bounded with checked arithmetic: a record claiming more bytes than it
/// has — `u64::MAX` included — is [`SerError::Truncated`].
fn parse_frame(head: &[u8], total: usize) -> Result<Frame, SerError> {
    if total < 8 {
        return Err(SerError::Truncated);
    }
    let magic = u32::from_le_bytes(head[0..4].try_into().expect("4-byte field"));
    if magic != MAGIC {
        return Err(SerError::BadMagic(magic));
    }
    let dtype = DType::from_tag(head[4]).ok_or(SerError::BadDType(head[4]))?;
    let rank = head[5] as usize;
    let start = head_len(rank);
    if total < start {
        return Err(SerError::Truncated);
    }
    let end = usize::try_from(u64_at(head, start - 8))
        .ok()
        .and_then(|len| start.checked_add(len))
        .filter(|end| end.checked_add(CHECK_LEN).is_some_and(|all| all <= total))
        .ok_or(SerError::Truncated)?;
    Ok(Frame {
        dtype,
        rank,
        payload: start..end,
    })
}

/// [`parse_frame`] over a rope, plus the dims: the head is copied out of
/// however many segments it is spread over (at most [`MAX_HEAD`] bytes).
fn parse_segments(record: &[Bytes]) -> Result<(Frame, Vec<usize>), SerError> {
    let total = rope::len(record);
    let mut head = [0u8; MAX_HEAD];
    let mut have = rope::copy_to(record, 0, &mut head[..8]);
    if have == 8 {
        let want = head_len(head[5] as usize);
        have = rope::copy_to(record, 0, &mut head[..want]);
    }
    let frame = parse_frame(&head[..have], total)?;
    let shape = dims(&head, frame.rank);
    Ok((frame, shape))
}

fn dims(head: &[u8], rank: usize) -> Vec<usize> {
    (0..rank)
        .map(|i| u64_at(head, 8 + i * 8) as usize)
        .collect()
}

/// The checks behind the frame, shared by every decoder: the payload
/// integrity check first, then dims against payload length.
fn check_payload(
    frame: &Frame,
    shape: &[usize],
    computed: u64,
    stamped: u64,
) -> Result<(), SerError> {
    if computed != stamped {
        return Err(SerError::ChecksumMismatch);
    }
    // Checked: a corrupted record may claim absurd dims; that must surface
    // as a decode error, never an arithmetic panic.
    let expected = shape
        .iter()
        .try_fold(frame.dtype.size_of(), |acc, &d| acc.checked_mul(d))
        .unwrap_or(usize::MAX);
    if frame.payload.len() != expected {
        return Err(SerError::LengthMismatch {
            expected,
            actual: frame.payload.len(),
        });
    }
    Ok(())
}

/// The check stamped behind the payload of a rope record.
fn stamped_check(record: &[Bytes], frame: &Frame) -> u64 {
    let mut check = [0u8; CHECK_LEN];
    rope::copy_to(record, frame.payload.end, &mut check);
    u64::from_le_bytes(check)
}

/// Decode a record produced by [`write_tensor`].
pub fn read_tensor(record: Bytes) -> Result<TensorData, SerError> {
    let frame = parse_frame(&record, record.len())?;
    let shape = dims(&record, frame.rank);
    let payload = record.slice(frame.payload.clone());
    let stamped = u64_at(&record, frame.payload.end);
    check_payload(&frame, &shape, checksum64(&payload), stamped)?;
    Ok(TensorData::from_bytes(frame.dtype, shape, payload).expect("length already validated"))
}

/// [`read_tensor`] over a rope, however it is split: the same tensor or
/// the same error. A payload lying within one segment — always, for a
/// record [`write_tensor_segments`] wrote — is shared into the tensor, not
/// copied; one spread over several is gathered.
pub fn read_tensor_segments(record: &[Bytes]) -> Result<TensorData, SerError> {
    if let [one] = record {
        return read_tensor(one.clone());
    }
    let (frame, shape) = parse_segments(record)?;
    let payload = rope::slice_flat(record, frame.payload.clone());
    let stamped = stamped_check(record, &frame);
    check_payload(&frame, &shape, checksum64(&payload), stamped)?;
    Ok(TensorData::from_bytes(frame.dtype, shape, payload).expect("length already validated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = TensorData::random(&mut rng, DType::F32, vec![4, 5, 6]);
        let rec = write_tensor(&t);
        let back = read_tensor(rec).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn roundtrip_scalar_and_empty_dim() {
        let scalar = TensorData::zeros(DType::I64, vec![]);
        assert_eq!(read_tensor(write_tensor(&scalar)).unwrap(), scalar);
        let empty = TensorData::zeros(DType::F32, vec![0, 7]);
        assert_eq!(read_tensor(write_tensor(&empty)).unwrap(), empty);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut rec = write_tensor(&TensorData::zeros(DType::U8, vec![2])).to_vec();
        rec[0] ^= 0xFF;
        assert!(matches!(
            read_tensor(Bytes::from(rec)),
            Err(SerError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let rec = write_tensor(&TensorData::zeros(DType::F32, vec![8]));
        for cut in [0, 4, 7, rec.len() - 1] {
            let partial = rec.slice(..cut);
            assert!(read_tensor(partial).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn detects_payload_corruption() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let t = TensorData::random(&mut rng, DType::F32, vec![64]);
        let mut rec = write_tensor(&t).to_vec();
        // Flip one payload byte (header is 8 + 8 dims... payload starts at
        // 8 + 8 + 8 = 24 for rank 1).
        rec[30] ^= 0x01;
        assert_eq!(
            read_tensor(Bytes::from(rec)),
            Err(SerError::ChecksumMismatch)
        );
    }

    #[test]
    fn rejects_unknown_dtype() {
        let mut rec = write_tensor(&TensorData::zeros(DType::U8, vec![1])).to_vec();
        rec[4] = 99;
        assert!(matches!(
            read_tensor(Bytes::from(rec)),
            Err(SerError::BadDType(99))
        ));
    }
}

/// Byte range of the raw payload inside a record produced by
/// [`write_tensor`], plus the decoded dtype. Lets a provider serve
/// *partial* tensor reads (fine-grain access, §1) without decoding the
/// whole record.
pub fn payload_range(record: &[u8]) -> Result<(Range<usize>, DType), SerError> {
    let frame = parse_frame(record, record.len())?;
    Ok((frame.payload, frame.dtype))
}

/// [`payload_range`] over a rope: the *logical* byte range of the payload
/// ([`rope::slice_flat`] resolves it without touching the rest).
pub fn payload_range_segments(record: &[Bytes]) -> Result<(Range<usize>, DType), SerError> {
    let (frame, _) = parse_segments(record)?;
    Ok((frame.payload, frame.dtype))
}

/// Validate a record produced by [`write_tensor`] *without*
/// materializing a [`TensorData`]: framing (via the same checks as
/// [`payload_range`]), the payload integrity checksum, and the
/// dims-vs-length consistency check, returning the decoded `(shape,
/// dtype)` for spec comparison. Runs every check [`read_tensor`] runs —
/// same errors in the same precedence — but allocates only the shape
/// vector, so store-side manifest validation can fan out across a
/// thread pool over borrowed record slices.
pub fn validate_record(record: &[u8]) -> Result<(Vec<usize>, DType), SerError> {
    let frame = parse_frame(record, record.len())?;
    let shape = dims(record, frame.rank);
    let computed = checksum64(&record[frame.payload.clone()]);
    check_payload(&frame, &shape, computed, u64_at(record, frame.payload.end))?;
    Ok((shape, frame.dtype))
}

/// [`validate_record`] over a rope, however it is split: the same answer
/// or the same error, with the payload hashed where it lies.
pub fn validate_segments(record: &[Bytes]) -> Result<(Vec<usize>, DType), SerError> {
    if let [one] = record {
        return validate_record(one);
    }
    let (frame, shape) = parse_segments(record)?;
    let computed = checksum64_parts(rope::parts(record, frame.payload.clone()));
    check_payload(&frame, &shape, computed, stamped_check(record, &frame))?;
    Ok((shape, frame.dtype))
}

#[cfg(test)]
mod validate_record_tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn accepts_what_read_tensor_accepts() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for shape in [vec![4, 5, 6], vec![], vec![0, 7], vec![128]] {
            let t = TensorData::random(&mut rng, DType::F32, shape);
            let rec = write_tensor(&t);
            let (shape, dtype) = validate_record(&rec).unwrap();
            assert_eq!(shape, t.shape());
            assert_eq!(dtype, t.dtype());
        }
    }

    #[test]
    fn rejects_what_read_tensor_rejects() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let t = TensorData::random(&mut rng, DType::F32, vec![64]);
        let good = write_tensor(&t);

        let mut bad_magic = good.to_vec();
        bad_magic[0] ^= 0xFF;
        let mut bad_dtype = good.to_vec();
        bad_dtype[4] = 99;
        let mut corrupt = good.to_vec();
        corrupt[30] ^= 0x01;
        let mut bad_dims = good.to_vec();
        bad_dims[8] ^= 0x01; // dim no longer matches payload length

        for (rec, name) in [
            (&bad_magic, "magic"),
            (&bad_dtype, "dtype"),
            (&corrupt, "checksum"),
            (&bad_dims, "dims"),
            (&good[..good.len() - 9].to_vec(), "truncated"),
        ] {
            let fast = validate_record(rec);
            let full = read_tensor(Bytes::from(rec.clone()));
            assert!(fast.is_err(), "{name} accepted by validate_record");
            assert_eq!(
                fast.unwrap_err(),
                full.unwrap_err(),
                "{name}: fast and full validation disagree"
            );
        }
    }
}

#[cfg(test)]
mod payload_range_tests {
    use super::*;

    #[test]
    fn range_covers_exact_payload() {
        let t =
            TensorData::from_bytes(DType::U8, vec![4], bytes::Bytes::from(vec![10, 20, 30, 40]))
                .unwrap();
        let rec = write_tensor(&t);
        let (range, dtype) = payload_range(&rec).unwrap();
        assert_eq!(dtype, DType::U8);
        assert_eq!(&rec[range], &[10, 20, 30, 40]);
    }

    #[test]
    fn range_rejects_garbage() {
        assert!(payload_range(&[0u8; 4]).is_err());
        let t = TensorData::zeros(DType::F32, vec![2]);
        let mut rec = write_tensor(&t).to_vec();
        rec[0] ^= 0xFF;
        assert!(matches!(payload_range(&rec), Err(SerError::BadMagic(_))));
        let rec = write_tensor(&t);
        assert!(payload_range(&rec[..rec.len() - 9]).is_err());
    }
}

#[cfg(test)]
mod segments_tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One tensor per dtype on each side of the borrow threshold, the
    /// large ones with an element count that leaves a narrow dtype's
    /// payload off the word boundary.
    fn tensors() -> Vec<TensorData> {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut out = Vec::new();
        for dtype in DType::ALL {
            let large = BORROW_MIN_BYTES / dtype.size_of() + 3;
            for shape in [
                vec![],
                vec![0, 7],
                vec![5, 3],
                vec![large],
                vec![1, large, 1],
            ] {
                out.push(TensorData::random(&mut rng, dtype, shape));
            }
        }
        out
    }

    #[test]
    fn segments_concatenate_to_the_contiguous_record() {
        for t in tensors() {
            let record = write_tensor_segments(&t);
            let rope = record.segments();
            assert_eq!(rope::flatten(rope), write_tensor(&t), "{:?}", t.shape());
            if t.byte_len() < BORROW_MIN_BYTES {
                assert_eq!(rope.len(), 1, "small records stay contiguous");
                assert_ne!(rope[0].as_ptr(), t.bytes().as_ptr());
            } else {
                assert_eq!(rope.len(), 3);
                assert_eq!(rope[1].as_ptr(), t.bytes().as_ptr(), "payload is borrowed");
                assert_eq!(rope[0].len(), head_len(t.shape().len()));
                assert_eq!(rope[2].len(), CHECK_LEN);
            }
            assert_eq!(
                validate_segments(rope).unwrap(),
                (t.shape().to_vec(), t.dtype())
            );
            let back = read_tensor_segments(rope).unwrap();
            assert_eq!(back, t);
            let (range, dtype) = payload_range_segments(rope).unwrap();
            assert_eq!(
                (range.clone(), dtype),
                payload_range(&rope::flatten(rope)).unwrap()
            );
            if rope.len() == 3 {
                assert_eq!(
                    back.bytes().as_ptr(),
                    t.bytes().as_ptr(),
                    "decode shares it"
                );
                assert_eq!(rope::slice_flat(rope, range).as_ptr(), t.bytes().as_ptr());
            }
        }
    }

    #[test]
    fn borrow_threshold_is_exact() {
        for (len, segments) in [(BORROW_MIN_BYTES - 1, 1), (BORROW_MIN_BYTES, 3)] {
            let t = TensorData::zeros(DType::U8, vec![len]);
            assert_eq!(write_tensor_segments(&t).segments().len(), segments);
        }
    }

    #[test]
    fn corrupt_borrowed_payload_is_caught() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let t = TensorData::random(&mut rng, DType::F32, vec![BORROW_MIN_BYTES / 4]);
        let mut rope = write_tensor_borrowed(&t);
        let mut payload = rope[1].to_vec();
        payload[1000] ^= 1;
        rope[1] = Bytes::from(payload);
        assert_eq!(validate_segments(&rope), Err(SerError::ChecksumMismatch));
        assert_eq!(read_tensor_segments(&rope), Err(SerError::ChecksumMismatch));
        assert_eq!(validate_segments(&[]), Err(SerError::Truncated));
        assert_eq!(read_tensor_segments(&[]), Err(SerError::Truncated));
    }
}

/// Length fields crafted to overflow the frame arithmetic: every decoder
/// entry point answers `Truncated`, none panics.
#[cfg(test)]
mod overflow_tests {
    use super::*;

    /// A rank-1 record whose `len` field is `len`.
    fn crafted(len: u64) -> Vec<u8> {
        let mut rec = write_tensor(&TensorData::zeros(DType::F32, vec![4])).to_vec();
        rec[16..24].copy_from_slice(&len.to_le_bytes());
        rec
    }

    #[test]
    fn crafted_lengths_are_truncated_not_panics() {
        // header 24 + len + check 8: MAX inverts the range, MAX - 31 wraps
        // the bound to zero, MAX - 23 wraps `header + len` itself.
        for len in [
            u64::MAX,
            u64::MAX - 31,
            u64::MAX - 23,
            u64::MAX - 7,
            1 << 63,
            17,
        ] {
            let rec = crafted(len);
            assert_eq!(payload_range(&rec), Err(SerError::Truncated), "{len:#x}");
            assert_eq!(validate_record(&rec), Err(SerError::Truncated), "{len:#x}");
            assert_eq!(
                read_tensor(Bytes::from(rec.clone())),
                Err(SerError::Truncated),
                "{len:#x}"
            );
            for cut in [0, 5, 8, 20, 24, 30, rec.len()] {
                let rope = [
                    Bytes::copy_from_slice(&rec[..cut]),
                    Bytes::new(),
                    Bytes::copy_from_slice(&rec[cut..]),
                ];
                assert_eq!(payload_range_segments(&rope), Err(SerError::Truncated));
                assert_eq!(validate_segments(&rope), Err(SerError::Truncated));
                assert_eq!(read_tensor_segments(&rope), Err(SerError::Truncated));
            }
        }
    }
}
