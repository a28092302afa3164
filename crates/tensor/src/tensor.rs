//! Tensor payloads.

use bytes::Bytes;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dtype::DType;
use crate::hash::{ContentHash, Fnv128};

/// A typed, shaped, immutable binary buffer.
///
/// `TensorData` is the unit of storage, deduplication and transfer in the
/// repository. The payload is an [`Bytes`] buffer, so cloning a tensor —
/// e.g. when a derived model inherits a frozen layer — is a reference-count
/// bump, never a copy. Mutation is modeled as *replacement*: training a
/// layer produces a fresh `TensorData` (which is exactly how the repository
/// sees it: a new tensor owned by the new model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorData {
    dtype: DType,
    shape: Vec<usize>,
    data: Bytes,
}

impl TensorData {
    /// Build a tensor from raw bytes. Returns `None` when the payload length
    /// doesn't match `shape` x `dtype`.
    pub fn from_bytes(dtype: DType, shape: Vec<usize>, data: Bytes) -> Option<TensorData> {
        let expected: usize = shape.iter().product::<usize>() * dtype.size_of();
        if data.len() != expected {
            return None;
        }
        Some(TensorData { dtype, shape, data })
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(dtype: DType, shape: Vec<usize>) -> TensorData {
        let len: usize = shape.iter().product::<usize>() * dtype.size_of();
        TensorData {
            dtype,
            shape,
            data: Bytes::from(vec![0u8; len]),
        }
    }

    /// Randomly initialized tensor (uniform bytes — the repository never
    /// interprets values, so byte-level randomness is sufficient to make
    /// every freshly-trained tensor content-distinct).
    pub fn random<R: Rng + ?Sized>(rng: &mut R, dtype: DType, shape: Vec<usize>) -> TensorData {
        let len: usize = shape.iter().product::<usize>() * dtype.size_of();
        let mut buf = vec![0u8; len];
        rng.fill(&mut buf[..]);
        TensorData {
            dtype,
            shape,
            data: Bytes::from(buf),
        }
    }

    /// Element type.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Shape (row-major).
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.shape.iter().product()
    }

    /// Payload length in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Borrow the payload.
    #[inline]
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    /// Structural content hash of dtype + shape + payload. The few header
    /// fields go through [`Fnv128`] field by field; the payload enters as
    /// its 128-bit lane address ([`ContentHash::of_bytes`]), so the cost is
    /// one word-parallel pass over the bytes.
    pub fn content_hash(&self) -> ContentHash {
        let mut h = Fnv128::new();
        h.update(&[self.dtype.tag()]);
        h.update_u64(self.shape.len() as u64);
        for &d in &self.shape {
            h.update_u64(d as u64);
        }
        h.update(&ContentHash::of_bytes(&self.data).to_bytes());
        h.finish()
    }

    /// Simulate one training update: returns a *new* tensor of identical
    /// dtype/shape with fresh content. Used by the NAS workers to produce
    /// the "modified tensors" of a derived model.
    pub fn perturbed<R: Rng + ?Sized>(&self, rng: &mut R) -> TensorData {
        TensorData::random(rng, self.dtype, self.shape.clone())
    }

    /// Simulate one *fine-tuning* update: returns a new tensor of
    /// identical dtype/shape in which roughly `fraction` of the elements
    /// had their least-significant byte flipped and the rest are
    /// byte-identical to `self`. This is the byte-level signature of a
    /// small gradient step (low mantissa bits churn, sign/exponent bytes
    /// hold still), which is what the delta codec ([`crate::delta`])
    /// exploits.
    pub fn perturbed_sparse<R: Rng + ?Sized>(&self, rng: &mut R, fraction: f64) -> TensorData {
        let elem = self.dtype.size_of();
        let n = self.data.len().checked_div(elem).unwrap_or(0);
        if n == 0 {
            return self.clone();
        }
        let mut buf = self.data.to_vec();
        let changes = ((n as f64) * fraction.clamp(0.0, 1.0)).ceil().max(1.0) as usize;
        for _ in 0..changes {
            let e = rng.random_range(0..n);
            buf[e * elem] ^= rng.random_range(1..=255u8);
        }
        TensorData {
            dtype: self.dtype,
            shape: self.shape.clone(),
            data: Bytes::from(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zeros_has_right_length() {
        let t = TensorData::zeros(DType::F32, vec![3, 4]);
        assert_eq!(t.byte_len(), 48);
        assert_eq!(t.num_elements(), 12);
        assert!(t.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn from_bytes_validates_length() {
        let ok = TensorData::from_bytes(DType::U8, vec![4], Bytes::from(vec![1, 2, 3, 4]));
        assert!(ok.is_some());
        let bad = TensorData::from_bytes(DType::F32, vec![4], Bytes::from(vec![1, 2, 3, 4]));
        assert!(bad.is_none());
    }

    #[test]
    fn scalar_shape() {
        // Empty shape = scalar = one element.
        let t = TensorData::zeros(DType::F64, vec![]);
        assert_eq!(t.num_elements(), 1);
        assert_eq!(t.byte_len(), 8);
    }

    #[test]
    fn clone_shares_payload() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = TensorData::random(&mut rng, DType::F32, vec![256]);
        let u = t.clone();
        // Same allocation: Bytes pointer equality.
        assert_eq!(t.bytes().as_ptr(), u.bytes().as_ptr());
    }

    #[test]
    fn content_hash_distinguishes_dtype_and_shape() {
        let a = TensorData::zeros(DType::F32, vec![8]);
        let b = TensorData::zeros(DType::I32, vec![8]);
        let c = TensorData::zeros(DType::F32, vec![2, 4]);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn perturbed_sparse_changes_few_bytes() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let t = TensorData::random(&mut rng, DType::F32, vec![64, 64]);
        let p = t.perturbed_sparse(&mut rng, 0.05);
        assert_eq!(t.shape(), p.shape());
        assert_eq!(t.dtype(), p.dtype());
        assert_ne!(t.content_hash(), p.content_hash());
        let changed = t
            .bytes()
            .iter()
            .zip(p.bytes().iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0);
        // At most ~5% of elements touched, one byte each.
        assert!(changed <= t.num_elements() / 10, "changed {changed} bytes");
        // Scalars and empties survive.
        let s = TensorData::zeros(DType::F32, vec![0]);
        assert_eq!(s.perturbed_sparse(&mut rng, 0.5), s);
    }

    #[test]
    fn perturbed_changes_content_not_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = TensorData::random(&mut rng, DType::F32, vec![16, 16]);
        let p = t.perturbed(&mut rng);
        assert_eq!(t.shape(), p.shape());
        assert_eq!(t.dtype(), p.dtype());
        assert_ne!(t.content_hash(), p.content_hash());
    }
}
