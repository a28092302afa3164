//! Content hashing: two families, chosen by what is being hashed.
//!
//! EvoStore identifies "the same layer configuration" and "the same tensor
//! payload" structurally, never by name (§4.2 of the paper: identical names
//! may describe different configurations and vice versa). Both families
//! are deterministic across platforms and processes (a hash computed by a
//! worker matches the one a provider computes) and use portable integer
//! arithmetic only. Neither is cryptographic; the repository is not
//! adversarial.
//!
//! * **Lane hash** — for *payload bytes*: tensor payloads, records,
//!   chunks, log entries. Four independent 64-bit lanes each absorb one
//!   little-endian 8-byte word of every 32-byte block through an
//!   invertible multiply-rotate round, so the four multiplies pipeline and
//!   the loop runs at memory bandwidth. [`checksum64`] /
//!   [`checksum64_parts`] (the record check) and
//!   [`ContentHash::of_bytes`] (the 128-bit content address) are two
//!   finalisations of this one kernel; `checksum64(b)` is the low half of
//!   `ContentHash::of_bytes(b)`. DESIGN.md ("Hashing and format
//!   versions") states the collision argument dedup relies on.
//! * **FNV-1a-128** ([`Fnv128`], [`fnv1a128`]) — for *short,
//!   field-by-field inputs*: layer and architecture signatures, which hash
//!   themselves field by field without building an encoding buffer, and
//!   `TensorKey` → shard routing. One byte per 128-bit multiply: it never
//!   sees a payload (`tools/check.sh` guards that).
//!
//! The lane hash's output is part of every on-disk and on-wire format; the
//! pinned vectors in this module's tests make any change to it a visible
//! diff.

use serde::{Deserialize, Serialize};

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit structural content hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Content address of a byte slice: the 128-bit output of the lane
    /// hash. Its low half equals [`checksum64`] of the same bytes.
    pub fn of_bytes(bytes: &[u8]) -> ContentHash {
        let mut h = LaneHasher::new();
        h.update(bytes);
        ContentHash(h.finish128())
    }

    /// The low 64 bits, used when a smaller key is enough (e.g. shard
    /// selection).
    #[inline]
    pub fn low64(self) -> u64 {
        self.0 as u64
    }

    /// Fixed-width little-endian byte encoding, used as the physical KV
    /// key of a content-addressed chunk.
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

/// The 64-bit integrity check stamped on every serialized record — EVST
/// tensors, EVDL deltas, chunk manifests, log-store entries, the HDF5-like
/// baseline's datasets. This function is the one place the check
/// algorithm is chosen (the low half of the lane hash); its output is
/// part of every on-disk and on-wire format.
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum64_parts([bytes])
}

/// [`checksum64`] of the concatenation of `parts`, without building it.
/// The result does not depend on where the parts are split.
pub fn checksum64_parts<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = LaneHasher::new();
    for part in parts {
        h.update(part);
    }
    h.finish64()
}

// Odd 64-bit constants (xxHash's primes): odd, so multiplying by one is a
// bijection on u64.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

const LANES: usize = 4;
/// Bytes absorbed per step: one 8-byte word per lane.
const BLOCK: usize = 8 * LANES;

/// One lane absorbing one word. Every step — multiply by an odd constant,
/// add, rotate — is a bijection on u64, in `word` for a fixed `lane` and
/// in `lane` for a fixed `word`: two inputs that differ in a single word
/// cannot reach the same lane state. Of the two multiplies only the second
/// sits on the lane's dependency chain; `word * P2` is computed beside it.
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Absorb whole blocks; `blocks.len()` is a multiple of [`BLOCK`].
#[inline]
fn absorb(lanes: &mut [u64; LANES], blocks: &[u8]) {
    let word = |b: &[u8], i: usize| {
        u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8-byte word"))
    };
    // Locals, so the four chains live in registers across the loop.
    let [mut a, mut b, mut c, mut d] = *lanes;
    for block in blocks.chunks_exact(BLOCK) {
        a = round(a, word(block, 0));
        b = round(b, word(block, 1));
        c = round(c, word(block, 2));
        d = round(d, word(block, 3));
    }
    *lanes = [a, b, c, d];
}

/// Compress the lane state and the total length to 64 bits. For fixed
/// lanes this is a bijection in `len` (buffers that differ only in length
/// — all-zero chunks of sparse deltas — cannot collide), and for a fixed
/// length it is a bijection in any one lane.
#[inline]
fn fold(lanes: [u64; LANES], len: u64, mul: u64, rot: u32) -> u64 {
    let mut h = len.wrapping_mul(mul) ^ P5;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(mul).rotate_left(rot);
    }
    // Full avalanche: every output bit, the low byte `fan` uses included,
    // depends on every bit of `h`.
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The two halves of the 128-bit output are two differently-keyed folds of
/// the same 256-bit state: other multiplier, other rotation, lanes taken
/// in the opposite order.
fn low_half(lanes: [u64; LANES], len: u64) -> u64 {
    fold(lanes, len, P3, 27)
}

fn high_half([a, b, c, d]: [u64; LANES], len: u64) -> u64 {
    fold([d, c, b, a], len, P4, 23)
}

/// Streaming state of the lane hash: 256 bits of lane state, the bytes of
/// a block not yet complete, and the total length.
struct LaneHasher {
    lanes: [u64; LANES],
    tail: [u8; BLOCK],
    tail_len: usize,
    total: u64,
}

impl LaneHasher {
    fn new() -> LaneHasher {
        LaneHasher {
            lanes: [P1.wrapping_add(P2), P2, P3, P4],
            tail: [0; BLOCK],
            tail_len: 0,
            total: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (BLOCK - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < BLOCK {
                return;
            }
            absorb(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        let (blocks, rest) = bytes.split_at(bytes.len() / BLOCK * BLOCK);
        absorb(&mut self.lanes, blocks);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Lane state after the zero-padded tail; the padding is disambiguated
    /// by the length every finalisation folds in.
    fn finished_lanes(&self) -> [u64; LANES] {
        let mut last = [0u8; BLOCK];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let mut lanes = self.lanes;
        absorb(&mut lanes, &last);
        lanes
    }

    fn finish64(&self) -> u64 {
        low_half(self.finished_lanes(), self.total)
    }

    fn finish128(&self) -> u128 {
        let lanes = self.finished_lanes();
        (high_half(lanes, self.total) as u128) << 64 | low_half(lanes, self.total) as u128
    }
}

/// One-shot FNV-1a over a byte slice with a 128-bit state.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.update(bytes);
    h.finish().0
}

/// Incremental FNV-1a-128 hasher, for short field-by-field inputs.
///
/// Layer configurations hash themselves field-by-field through this (see
/// `evostore-graph`), which avoids building an intermediate encoding buffer.
/// One byte per 128-bit multiply: payload bytes go through
/// [`ContentHash::of_bytes`] instead.
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
    use proptest::prelude::*;

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

    /// The 4099-byte buffer of the pinned vectors: longer than 4 KiB and
    /// not a multiple of the block, so the block loop and the tail both run.
    fn pinned_buffer() -> Vec<u8> {
        (0..4099u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn checksum64_matches_known_vectors() {
        // Pinned: these values are baked into every stored record.
        assert_eq!(checksum64(b""), 0x36fd_4959_14ef_b55a);
        assert_eq!(checksum64(b"a"), 0x4204_44ab_d353_44bf);
        assert_eq!(checksum64(b"evostore"), 0x8d78_311d_276f_994b);
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(checksum64(&ramp), 0x1d69_f5f0_171f_df11);
        assert_eq!(checksum64(&pinned_buffer()), 0xef5b_e419_96c8_4326);
        assert_eq!(
            checksum64_parts([&ramp[..100], &ramp[100..]]),
            checksum64(&ramp)
        );
    }

    #[test]
    fn content_hash_matches_known_vectors() {
        // Pinned: these values are the keys of every stored chunk.
        let of = |b: &[u8]| ContentHash::of_bytes(b).0;
        assert_eq!(of(b""), 0xc44b_42c2_929b_5878_36fd_4959_14ef_b55a);
        assert_eq!(of(b"a"), 0x0f4a_469a_06b2_3112_4204_44ab_d353_44bf);
        assert_eq!(of(b"evostore"), 0xc12d_f9b3_929e_5768_8d78_311d_276f_994b);
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(of(&ramp), 0xf499_73c6_7e6d_bb5b_1d69_f5f0_171f_df11);
        assert_eq!(
            of(&pinned_buffer()),
            0x1a14_e5f1_cbdc_7e7f_ef5b_e419_96c8_4326
        );
    }

    #[test]
    fn checksum64_is_low_half_of_content_hash() {
        let buf = pinned_buffer();
        for len in [0, 1, 31, 32, 33, 64, 1000, buf.len()] {
            let b = &buf[..len];
            assert_eq!(checksum64(b), ContentHash::of_bytes(b).low64());
        }
    }

    proptest! {
        /// However a buffer is cut into parts, the check of the parts is the
        /// check of the whole. Lengths to 300 cover every tail-buffer fill
        /// level against every block boundary.
        #[test]
        fn checksum64_parts_is_split_invariant(
            buf in prop::collection::vec(any::<u8>(), 0..301),
            cuts in prop::collection::vec(any::<u16>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| c as usize % (buf.len() + 1))
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut at = 0;
            for cut in cuts {
                parts.push(&buf[at..cut]);
                at = cut;
            }
            parts.push(&buf[at..]);
            prop_assert_eq!(checksum64_parts(parts), checksum64(&buf));
        }
    }

    #[test]
    fn every_byte_is_seen_at_every_length() {
        for len in 0..=97usize {
            let base: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let h = ContentHash::of_bytes(&base);
            for i in 0..len {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut m = base.clone();
                    m[i] ^= flip;
                    let hm = ContentHash::of_bytes(&m);
                    assert_ne!(hm, h, "len {len}: byte {i} ^ {flip:#x} ignored");
                    assert_ne!(hm.low64(), h.low64(), "len {len}: byte {i} ^ {flip:#x}");
                }
            }
            // Appending a zero byte is a different input too.
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(ContentHash::of_bytes(&longer).low64(), h.low64());
        }
    }

    /// Structured inputs — the ones a model store actually produces, where
    /// a weak hash collides first — must not collide on the 128-bit
    /// address dedup trusts, nor on the 64-bit record check.
    #[test]
    fn structured_corpus_has_no_collisions() {
        use std::collections::HashSet;
        let mut full: HashSet<u128> = HashSet::new();
        let mut low: HashSet<u64> = HashSet::new();
        let mut inputs = 0usize;
        let mut add = |bytes: &[u8], what: &str| {
            let h = ContentHash::of_bytes(bytes);
            assert!(full.insert(h.0), "128-bit collision: {what}");
            assert!(low.insert(h.low64()), "64-bit collision: {what}");
            inputs += 1;
        };

        let mut base = vec![0u8; 4096];
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for word in base.chunks_exact_mut(8) {
            x = x.wrapping_mul(P1).rotate_left(23) ^ P5;
            word.copy_from_slice(&x.to_le_bytes());
        }
        add(&base, "the 4 KiB base");

        // Every single-bit flip of the base.
        for bit in 0..base.len() * 8 {
            base[bit / 8] ^= 1 << (bit % 8);
            add(&base, "single-bit flip");
            base[bit / 8] ^= 1 << (bit % 8);
        }

        // Two bits flipped a block apart in one lane: the top bit of a
        // word and the bit it lands on after the round's rotation. A round
        // that XORed the raw word into the lane would cancel this pair.
        for w in 0..base.len() / 8 - LANES {
            for low_bit in [28u32, 30] {
                base[w * 8 + 7] ^= 0x80;
                let at = (w + LANES) * 8 + low_bit as usize / 8;
                base[at] ^= 1 << (low_bit % 8);
                add(&base, "top bit + rotated bit one block later");
                base[at] ^= 1 << (low_bit % 8);
                base[w * 8 + 7] ^= 0x80;
            }
        }

        // Any two 8-byte words swapped: across lanes, across blocks, both.
        let words = base.len() / 8;
        let mut swapped = base.clone();
        for i in 0..words {
            for j in i + 1..words {
                for k in 0..8 {
                    swapped.swap(i * 8 + k, j * 8 + k);
                }
                add(&swapped, "two words swapped");
                for k in 0..8 {
                    swapped.swap(i * 8 + k, j * 8 + k);
                }
            }
        }

        // All-zero buffers of every length: sparse deltas make zero chunks
        // common, and only the length tells them apart.
        let zeros = vec![0u8; 8192];
        for len in 0..=zeros.len() {
            add(&zeros[..len], "all-zero buffer");
        }

        // Counters (0 is the all-zero buffer of length 4, already in).
        for i in 1..=400_000u32 {
            add(&i.to_le_bytes(), "u32 counter");
        }

        assert!(inputs >= 500_000, "corpus shrank to {inputs}");
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
}
