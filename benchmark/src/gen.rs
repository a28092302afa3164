//! Seeded input generation and the fingerprints the in-run oracle
//! compares.
//!
//! Everything a workload feeds the system comes from one [`SplitMix64`]
//! stream seeded by `--seed`; the program under test only ever sees the
//! generated inputs. Generation and verification run outside the timed
//! sections and are accounted as `bench.loadgen_share`.

use std::collections::HashMap;

use bytes::Bytes;
use evostore_core::OwnerMap;
use evostore_graph::{CompactGraph, TensorSpec};
use evostore_tensor::{TensorData, TensorKey};

/// SplitMix64: one add and three multiply-xorshift steps per word, fast
/// enough that filling payloads stays a few percent of a store.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for a sub-generator (a thread, a user).
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        SplitMix64(self.word() ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    #[inline]
    pub fn word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.word() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.word() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// The genome generators of `evostore-graph` sample through `rand::Rng`.
impl rand::RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.word()
    }
}

/// A tensor of `spec`'s shape filled with seeded 8-byte words.
pub fn fill_tensor(spec: &TensorSpec, rng: &mut SplitMix64) -> TensorData {
    let mut buf = vec![0u8; spec.byte_len()];
    let mut words = buf.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&rng.word().to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = rng.word().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
    TensorData::from_bytes(spec.dtype, spec.shape.clone(), Bytes::from(buf))
        .expect("buffer sized from the spec")
}

/// A fine-tuning step: the parent's bytes with the low mantissa half of a
/// seeded 2 % of its f32 words rewritten — the byte signature the delta
/// codec is built for.
pub fn finetune(parent: &TensorData, rng: &mut SplitMix64) -> TensorData {
    let mut buf = parent.bytes().to_vec();
    let words = buf.len() / 4;
    for _ in 0..words.div_ceil(50) {
        let w = rng.below(words) * 4;
        let bits = rng.word();
        buf[w] ^= (bits as u8) | 1;
        buf[w + 1] ^= (bits >> 8) as u8;
    }
    TensorData::from_bytes(parent.dtype(), parent.shape().to_vec(), Bytes::from(buf))
        .expect("same shape as the parent")
}

/// One seeded tensor per parameter slot of every vertex `map` owns itself,
/// keyed the way `store_model` expects them.
pub fn owned_tensors(
    graph: &CompactGraph,
    map: &OwnerMap,
    rng: &mut SplitMix64,
) -> HashMap<TensorKey, TensorData> {
    let mut out = HashMap::new();
    for v in map.self_owned() {
        for spec in graph.param_specs(v) {
            out.insert(
                TensorKey::new(map.model, v, spec.slot),
                fill_tensor(&spec, rng),
            );
        }
    }
    out
}

/// Word-wise multiply-rotate hash over four independent lanes. The
/// oracle fingerprints every stored and every loaded tensor with it;
/// `TensorData::content_hash` (byte-serial 128-bit FNV-1a) runs at a
/// fraction of load throughput and would dominate the run.
pub fn fast_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [K, K.rotate_left(17), K.rotate_left(31), K.rotate_left(47)];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(31);
    }
    for &b in blocks.remainder() {
        h = (h ^ b as u64).wrapping_mul(K).rotate_left(31);
    }
    h ^ (h >> 32)
}

/// Fingerprint of dtype, shape and payload.
pub fn fingerprint(t: &TensorData) -> u64 {
    let mut h = fast_hash(t.bytes()) ^ ((t.dtype().tag() as u64) << 56);
    for &d in t.shape() {
        h = (h ^ d as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use evostore_tensor::DType;

    fn spec(n: usize) -> TensorSpec {
        TensorSpec {
            slot: 0,
            shape: vec![n],
            dtype: DType::F32,
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = fill_tensor(&spec(1001), &mut SplitMix64::new(7));
        let b = fill_tensor(&spec(1001), &mut SplitMix64::new(7));
        let c = fill_tensor(&spec(1001), &mut SplitMix64::new(8));
        assert_eq!(a, b);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn finetune_rewrites_about_two_percent_of_words() {
        let mut rng = SplitMix64::new(3);
        let parent = fill_tensor(&spec(50_000), &mut rng);
        let child = finetune(&parent, &mut rng);
        let changed = parent
            .bytes()
            .chunks(4)
            .zip(child.bytes().chunks(4))
            .filter(|(a, b)| a != b)
            .count();
        assert!((900..=1000).contains(&changed), "{changed} words changed");
        assert_ne!(fingerprint(&parent), fingerprint(&child));
    }

    #[test]
    fn fast_hash_sees_every_byte() {
        let base = vec![0u8; 100];
        let h = fast_hash(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] = 1;
            assert_ne!(fast_hash(&m), h, "byte {i} ignored");
        }
    }
}
