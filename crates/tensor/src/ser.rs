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

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::dtype::DType;
use crate::hash::checksum64;
use crate::tensor::TensorData;

const MAGIC: u32 = 0x4556_5354;

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

/// Encode a tensor into a self-contained record.
pub fn write_tensor(t: &TensorData) -> Bytes {
    let payload = t.bytes();
    let mut buf = BytesMut::with_capacity(8 + 8 * t.shape().len() + 8 + payload.len() + 8);
    buf.put_u32_le(MAGIC);
    buf.put_u8(t.dtype().tag());
    buf.put_u8(t.shape().len() as u8);
    buf.put_u16_le(0);
    for &d in t.shape() {
        buf.put_u64_le(d as u64);
    }
    buf.put_u64_le(payload.len() as u64);
    buf.extend_from_slice(payload);
    buf.put_u64_le(checksum64(payload));
    buf.freeze()
}

/// Decode a record produced by [`write_tensor`].
pub fn read_tensor(mut record: Bytes) -> Result<TensorData, SerError> {
    if record.len() < 8 {
        return Err(SerError::Truncated);
    }
    let magic = record.get_u32_le();
    if magic != MAGIC {
        return Err(SerError::BadMagic(magic));
    }
    let dtag = record.get_u8();
    let dtype = DType::from_tag(dtag).ok_or(SerError::BadDType(dtag))?;
    let rank = record.get_u8() as usize;
    let _pad = record.get_u16_le();
    if record.len() < rank * 8 + 8 {
        return Err(SerError::Truncated);
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(record.get_u64_le() as usize);
    }
    let len = record.get_u64_le() as usize;
    if record.len() < len + 8 {
        return Err(SerError::Truncated);
    }
    let payload = record.split_to(len);
    let check = record.get_u64_le();
    if checksum64(&payload) != check {
        return Err(SerError::ChecksumMismatch);
    }
    // Checked: a corrupted record may claim absurd dims; that must surface
    // as a decode error, never an arithmetic panic.
    let expected = shape
        .iter()
        .try_fold(dtype.size_of(), |acc, &d| acc.checked_mul(d))
        .unwrap_or(usize::MAX);
    if payload.len() != expected {
        return Err(SerError::LengthMismatch {
            expected,
            actual: payload.len(),
        });
    }
    Ok(TensorData::from_bytes(dtype, shape, payload).expect("length already validated"))
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
pub fn payload_range(record: &[u8]) -> Result<(std::ops::Range<usize>, DType), SerError> {
    if record.len() < 8 {
        return Err(SerError::Truncated);
    }
    let magic = u32::from_le_bytes(record[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(SerError::BadMagic(magic));
    }
    let dtype = DType::from_tag(record[4]).ok_or(SerError::BadDType(record[4]))?;
    let rank = record[5] as usize;
    let header = 8 + rank * 8 + 8;
    if record.len() < header {
        return Err(SerError::Truncated);
    }
    let len = u64::from_le_bytes(record[header - 8..header].try_into().unwrap()) as usize;
    if record.len() < header + len + 8 {
        return Err(SerError::Truncated);
    }
    Ok((header..header + len, dtype))
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
    let (range, dtype) = payload_range(record)?;
    let rank = record[5] as usize;
    let mut shape = Vec::with_capacity(rank);
    for i in 0..rank {
        let at = 8 + i * 8;
        shape.push(u64::from_le_bytes(record[at..at + 8].try_into().unwrap()) as usize);
    }
    let payload = &record[range.clone()];
    let check = u64::from_le_bytes(record[range.end..range.end + 8].try_into().unwrap());
    if checksum64(payload) != check {
        return Err(SerError::ChecksumMismatch);
    }
    let expected = shape
        .iter()
        .try_fold(dtype.size_of(), |acc, &d| acc.checked_mul(d))
        .unwrap_or(usize::MAX);
    if payload.len() != expected {
        return Err(SerError::LengthMismatch {
            expected,
            actual: payload.len(),
        });
    }
    Ok((shape, dtype))
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
