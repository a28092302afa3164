//! 128-bit content hashing.
//!
//! EvoStore identifies "the same layer configuration" and "the same tensor
//! payload" structurally, never by name (§4.2 of the paper: identical names
//! may describe different configurations and vice versa). We use FNV-1a with
//! a 128-bit state: it is deterministic across platforms and processes (so
//! hashes computed by one worker match hashes computed by a provider),
//! cheap, and — at 128 bits — collision-free for all practical catalog sizes.
//!
//! This is *not* a cryptographic hash; the repository is not adversarial.

use serde::{Deserialize, Serialize};

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit structural content hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Hash a byte slice in one shot.
    pub fn of_bytes(bytes: &[u8]) -> ContentHash {
        ContentHash(fnv1a128(bytes))
    }

    /// The low 64 bits, used when a smaller key is enough (e.g. shard
    /// selection).
    #[inline]
    pub fn low64(self) -> u64 {
        self.0 as u64
    }

    /// Fixed-width little-endian byte encoding, used as the physical KV
    /// key of a content-addressed chunk. Little-endian so the *first* key
    /// byte is the least-significant hash byte — FNV-1a mixes its low
    /// bits fastest, and this is the byte the fanned directory layout
    /// ([`ContentHash::fan`]) shards on (the `aa/bb/<digest>` layout of
    /// hash-addressed object stores).
    #[inline]
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Inverse of [`ContentHash::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<ContentHash> {
        if bytes.len() != 16 {
            return None;
        }
        Some(ContentHash(u128::from_le_bytes(bytes.try_into().ok()?)))
    }

    /// The two-level directory fan of this hash: the high and low nibble
    /// of the least-significant (best-mixed) byte. A store fanning on
    /// these gets a 16 x 16 directory tree with a uniform spread of
    /// chunks.
    #[inline]
    pub fn fan(self) -> (u8, u8) {
        let low = self.0 as u8;
        (low >> 4, low & 0x0F)
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContentHash({:032x})", self.0)
    }
}

impl std::fmt::Display for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One-shot FNV-1a over a byte slice with a 128-bit state.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.update(bytes);
    h.finish().0
}

/// The 64-bit integrity check stamped on every serialized record — EVST
/// tensors, EVDL deltas, chunk manifests, log-store entries, the HDF5-like
/// baseline's datasets. This function is the one place the check
/// algorithm is chosen (today: the low half of FNV-1a-128); its output
/// is part of every on-disk and on-wire format.
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum64_parts([bytes])
}

/// [`checksum64`] of the concatenation of `parts`, without building it.
pub fn checksum64_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = Fnv128::new();
    for part in parts {
        h.update(part);
    }
    h.finish().low64()
}

/// Incremental FNV-1a-128 hasher.
///
/// Layer configurations hash themselves field-by-field through this (see
/// `evostore-graph`), which avoids building an intermediate encoding buffer.
#[derive(Clone)]
pub struct Fnv128 {
    state: u128,
}

impl Fnv128 {
    /// Fresh hasher with the standard FNV offset basis.
    #[inline]
    pub fn new() -> Fnv128 {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= b as u128;
            s = s.wrapping_mul(FNV128_PRIME);
        }
        self.state = s;
    }

    /// Absorb a `u64` in a fixed (little-endian) encoding.
    #[inline]
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorb a `u32` in a fixed (little-endian) encoding.
    #[inline]
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Absorb a length-prefixed string (length prefix prevents ambiguity
    /// between `("ab","c")` and `("a","bc")`).
    #[inline]
    pub fn update_str(&mut self, s: &str) {
        self.update_u64(s.len() as u64);
        self.update(s.as_bytes());
    }

    /// Finalize.
    #[inline]
    pub fn finish(&self) -> ContentHash {
        ContentHash(self.state)
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_offset_basis() {
        assert_eq!(fnv1a128(&[]), FNV128_OFFSET);
    }

    #[test]
    fn deterministic() {
        let a = fnv1a128(b"evostore");
        let b = fnv1a128(b"evostore");
        assert_eq!(a, b);
    }

    #[test]
    fn sensitive_to_single_bit() {
        assert_ne!(fnv1a128(b"layer-0"), fnv1a128(b"layer-1"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv128::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finish().0, fnv1a128(b"hello world"));
    }

    #[test]
    fn checksum64_matches_known_vectors() {
        // Pinned: these values are baked into every stored record.
        assert_eq!(checksum64(b""), 0x62b8_2175_6295_c58d);
        assert_eq!(checksum64(b"a"), 0x7891_2b70_4e4a_8964);
        assert_eq!(checksum64(b"evostore"), 0x5264_b3e4_774a_c290);
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(checksum64(&ramp), 0x86b0_7bd6_fa33_708d);
        assert_eq!(
            checksum64_parts([&ramp[..100], &ramp[100..]]),
            checksum64(&ramp)
        );
    }

    #[test]
    fn str_framing_disambiguates() {
        let mut a = Fnv128::new();
        a.update_str("ab");
        a.update_str("c");
        let mut b = Fnv128::new();
        b.update_str("a");
        b.update_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_is_32_hex_chars() {
        let h = ContentHash::of_bytes(b"x");
        assert_eq!(h.to_string().len(), 32);
    }

    #[test]
    fn byte_encoding_roundtrips() {
        let h = ContentHash::of_bytes(b"chunk");
        assert_eq!(ContentHash::from_bytes(&h.to_bytes()), Some(h));
        assert_eq!(ContentHash::from_bytes(&[0u8; 15]), None);
        assert_eq!(ContentHash::from_bytes(&[0u8; 17]), None);
    }

    #[test]
    fn fan_matches_leading_key_byte() {
        for input in [&b"a"[..], b"bb", b"ccc", b"chunk-xyz"] {
            let h = ContentHash::of_bytes(input);
            let (hi, lo) = h.fan();
            let first = h.to_bytes()[0];
            assert_eq!(hi, first >> 4);
            assert_eq!(lo, first & 0x0F);
        }
    }

    #[test]
    fn fan_spreads_uniformly() {
        let mut buckets = [0usize; 256];
        for i in 0..4096u32 {
            let (hi, lo) = ContentHash::of_bytes(&i.to_le_bytes()).fan();
            buckets[(hi as usize) << 4 | lo as usize] += 1;
        }
        // 4096 hashes over 256 buckets: expect 16 each, allow wide slack.
        assert!(buckets.iter().all(|&c| c > 0), "empty fan bucket");
        assert!(*buckets.iter().max().unwrap() <= 48);
    }
}
