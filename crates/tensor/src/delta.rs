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
//! The encoder never builds that image. One pass over the two records
//! collects its non-zero *islands* per lane — a fine-tuned tensor changes
//! few words, and a block of unchanged words costs one XOR and a compare
//! — and the token stream is written from the islands. The decoder is the
//! mirror image: [`apply_delta`] XORs each literal into the base's bytes
//! where they lie, so a chain of deltas is applied, deepest first, to one
//! buffer holding the raw base.
//!
//! Encoding is *opportunistic*: [`encode_delta`] returns `None` unless the
//! delta record saves at least 1/16th of the raw record, so callers always
//! fall back to raw storage when the delta doesn't win (unrelated content,
//! dtype change, resized layer). The encoder stops as soon as the islands
//! it has found cannot fit that budget.
//!
//! A delta record is self-describing:
//!
//! ```text
//! magic    u32   0x4556444C ("EVDL")
//! version  u8    2 (1 carried an FNV-1a body check)
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

use bytes::{BufMut, Bytes};

use crate::hash::checksum64;
use crate::rope;

/// First four bytes of a delta record ("EVDL" when read as LE u32).
pub const DELTA_MAGIC: u32 = 0x4556_444C;

/// Bumped whenever the body check or the token stream changes; 2 = the
/// body check is the lane hash ([`checksum64`]).
const VERSION: u8 = 2;
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

/// [`is_delta`] over a rope: the magic is the record's first four
/// *logical* bytes, whichever segments they lie in.
pub fn is_delta_segments(record: &[Bytes]) -> bool {
    let mut magic = [0u8; 4];
    rope::copy_to(record, 0, &mut magic) == 4 && is_delta(&magic)
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
    probe(prefix, record_len).map(|(header, _)| header)
}

/// [`delta_probe`] over a rope holding at least the head of a record
/// `record_len` bytes long: `None` for a record that is not a delta. The
/// header is read where it lies when one segment holds it, gathered (40
/// bytes) otherwise.
pub fn delta_probe_segments(
    head: &[Bytes],
    record_len: usize,
) -> Result<Option<DeltaHeader>, DeltaError> {
    if !is_delta_segments(head) {
        return Ok(None);
    }
    delta_probe(&rope::slice_flat(head, 0..DELTA_PROBE_LEN), record_len).map(Some)
}

/// The header and the body length it frames. A body length the record
/// cannot hold — checked, so `u64::MAX` included — is
/// [`DeltaError::Truncated`].
fn probe(prefix: &[u8], record_len: usize) -> Result<(DeltaHeader, usize), DeltaError> {
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
    let comp_len = usize::try_from(u64::from_le_bytes(prefix[32..40].try_into().unwrap()))
        .ok()
        .filter(|comp_len| {
            (HEADER_LEN + CHECK_LEN)
                .checked_add(*comp_len)
                .is_some_and(|all| all <= record_len)
        })
        .ok_or(DeltaError::Truncated)?;
    let header = DeltaHeader {
        base_key,
        depth,
        raw_len,
    };
    Ok((header, comp_len))
}

/// Encode `raw` as a delta against `base_raw`.
///
/// Returns `None` when the delta cannot win: the records differ in length
/// (dtype/shape changed), the input is empty, or the compressed form does
/// not save at least 1/16th of the raw record. The caller stores the raw
/// record in that case.
pub fn encode_delta(raw: &[u8], base_raw: &[u8], base_key: [u8; 16], depth: u8) -> Option<Bytes> {
    encode_parts(&[raw], base_raw, base_key, depth)
}

/// [`encode_delta`] of a rope `raw`, without gathering it: the same bytes
/// out for the same logical bytes in, however they are split.
pub fn encode_delta_segments(
    raw: &[Bytes],
    base_raw: &[u8],
    base_key: [u8; 16],
    depth: u8,
) -> Option<Bytes> {
    let parts: Vec<&[u8]> = raw.iter().map(|segment| &segment[..]).collect();
    encode_parts(&parts, base_raw, base_key, depth)
}

fn encode_parts(raw: &[&[u8]], base_raw: &[u8], base_key: [u8; 16], depth: u8) -> Option<Bytes> {
    let raw_len: usize = raw.iter().map(|part| part.len()).sum();
    if raw_len != base_raw.len() || raw_len == 0 {
        return None;
    }
    // The longest body that still saves 1/16th of the raw record.
    let budget = (raw_len - raw_len / MIN_SAVINGS_DENOM).checked_sub(HEADER_LEN + CHECK_LEN)?;
    let image = xor_islands(raw, base_raw, budget)?;
    // The body is encoded straight into the record buffer, after a header
    // whose `comp_len` is patched in once it is known.
    let mut buf = Vec::with_capacity(HEADER_LEN + image.body_size_hint() + CHECK_LEN);
    put_header(&mut buf, depth, &base_key, raw_len, 0);
    image.encode(&mut buf);
    let body_len = buf.len() - HEADER_LEN;
    if body_len > budget {
        return None;
    }
    buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&(body_len as u64).to_le_bytes());
    let check = checksum64(&buf[HEADER_LEN..]);
    buf.put_u64_le(check);
    Some(Bytes::from(buf))
}

fn put_header(buf: &mut Vec<u8>, depth: u8, base_key: &[u8; 16], raw_len: usize, comp_len: usize) {
    buf.put_u32_le(DELTA_MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(depth);
    buf.put_u16_le(0);
    buf.extend_from_slice(base_key);
    buf.put_u64_le(raw_len as u64);
    buf.put_u64_le(comp_len as u64);
}

/// Reconstruct the raw record from a delta record and the *raw* bytes of
/// its base: a copy of the base with the delta applied
/// ([`apply_delta`]).
pub fn decode_delta(record: &[u8], base_raw: &[u8]) -> Result<Bytes, DeltaError> {
    let mut raw = base_raw.to_vec();
    apply_delta(record, &mut raw)?;
    Ok(Bytes::from(raw))
}

/// Apply a delta record to the raw bytes of its base, in place: `target`
/// holds the base on entry and the reconstructed record on return. A
/// zero run leaves the bytes it covers as they are and a literal is XORed
/// in at stride [`LANES`], so the work is proportional to the bytes that
/// changed. Callers resolve the base via [`delta_header`]; for a chain,
/// each delta is applied in turn, deepest first, to the same buffer. A
/// record that fails its framing, length or body check is refused before
/// `target` is touched; a token stream that turns out malformed past that
/// check leaves `target` partly applied.
pub fn apply_delta(record: &[u8], target: &mut [u8]) -> Result<(), DeltaError> {
    let (header, comp_len) = probe(record, record.len())?;
    if target.len() != header.raw_len {
        return Err(DeltaError::BaseMismatch {
            expected: header.raw_len,
            actual: target.len(),
        });
    }
    let (body, check) = record[HEADER_LEN..HEADER_LEN + comp_len + CHECK_LEN].split_at(comp_len);
    if checksum64(body) != u64::from_le_bytes(check.try_into().expect("8-byte check")) {
        return Err(DeltaError::ChecksumMismatch);
    }
    rle_apply(body, target)
}

/// Words XORed per block of the encoder's pass: 2 KiB, well inside L1;
/// its [`GROUP`]s fit one `u64` mask.
const XOR_BLOCK: usize = 512;
/// Words whose XORs are tested for a change at once.
const GROUP: usize = 8;
/// A block in which at most one group in this many has a changed word is
/// walked group by group; a denser one is transposed and scanned for runs.
const SPARSE_DENOM: usize = 4;
/// Streams of the transposed image: the four byte lanes, then the tail.
const STREAMS: usize = LANES + 1;

/// The non-zero stretches of one stream of the transposed XOR image, in
/// order: island `i` starts at stream position `starts[i].0`, and its
/// bytes are `bytes[starts[i].1..]` up to the next island's. Stretches
/// closer than [`ZERO_RUN_MIN`] are merged as they are pushed (the zeros
/// between them become literal bytes), so every gap between two islands
/// of a stream is a zero token.
#[derive(Default)]
struct Islands {
    starts: Vec<(usize, usize)>,
    bytes: Vec<u8>,
    /// Stream position one past the last island.
    end: usize,
}

impl Islands {
    /// Append `run`, which starts with a non-zero byte, at stream position
    /// `at` (at or past the last island's end).
    #[inline]
    fn push(&mut self, at: usize, run: &[u8]) {
        self.reach(at);
        self.bytes.extend_from_slice(run);
        self.end = at + run.len();
    }

    /// [`Islands::push`] of one non-zero byte.
    #[inline]
    fn push_byte(&mut self, at: usize, byte: u8) {
        self.reach(at);
        self.bytes.push(byte);
        self.end = at + 1;
    }

    /// Open an island at `at`, or, when `at` is closer than
    /// [`ZERO_RUN_MIN`] to the last one, extend that one with zeros to it.
    #[inline]
    fn reach(&mut self, at: usize) {
        if self.starts.is_empty() || at - self.end >= ZERO_RUN_MIN {
            self.starts.push((at, self.bytes.len()));
        } else {
            for _ in self.end..at {
                self.bytes.push(0);
            }
        }
    }

    /// Each island as (stream position, bytes).
    fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let ends = self.starts.iter().skip(1).map(|&(_, from)| from);
        self.starts
            .iter()
            .zip(ends.chain([self.bytes.len()]))
            .map(|(&(at, from), to)| (at, &self.bytes[from..to]))
    }
}

/// The transposed XOR image `raw ^ base`, as islands per stream: byte `k`
/// of XORed word `w` is position `w` of lane `k`, and the `len % 4` tail
/// bytes keep their order in a fifth stream.
struct Image {
    streams: [Islands; STREAMS],
    words: usize,
    len: usize,
}

impl Image {
    /// The least body the islands found so far can encode to: every
    /// island byte is a literal byte, and every island needs a literal
    /// header of its own, save where one stream's last island and the
    /// next stream's first share a literal (four stream boundaries).
    fn body_floor(&self) -> usize {
        let islands: usize = self.streams.iter().map(|s| s.starts.len()).sum();
        let bytes: usize = self.streams.iter().map(|s| s.bytes.len()).sum();
        bytes + 5 * islands.saturating_sub(STREAMS - 1)
    }

    /// About what the islands encode to: a literal header and a zero
    /// token per island.
    fn body_size_hint(&self) -> usize {
        let islands: usize = self.streams.iter().map(|s| s.starts.len()).sum();
        let bytes: usize = self.streams.iter().map(|s| s.bytes.len()).sum();
        bytes + 10 * islands + 5
    }

    /// Place byte `p` of the XOR image, which is not in a whole word of
    /// its part: byte `p % 4` of word `p / 4`, or a tail byte.
    fn place(&mut self, p: usize, x: u8) {
        if x == 0 {
            return;
        }
        match p / LANES {
            w if w < self.words => self.streams[p % LANES].push_byte(w, x),
            _ => self.streams[LANES].push_byte(p - self.words * LANES, x),
        }
    }

    /// Append the token stream to `out`: the image read stream after
    /// stream, each gap of at least [`ZERO_RUN_MIN`] zeros a zero token
    /// and everything between two such gaps one literal — the stream a
    /// byte-wise zero-run RLE of the whole image writes.
    fn encode(&self, out: &mut Vec<u8>) {
        // The literal being written, and the image position past it.
        let mut lit = Literal::default();
        let mut end = 0;
        for (k, stream) in self.streams.iter().enumerate() {
            for (at, bytes) in stream.iter() {
                let at = k * self.words + at;
                lit.gap(out, at - end);
                lit.extend(out, bytes);
                end = at + bytes.len();
            }
        }
        lit.gap(out, self.len - end);
        lit.close(out);
    }
}

/// The literal token being written straight into the record: where its
/// bytes begin in the output, its length patched in when it closes.
#[derive(Default)]
struct Literal {
    open: Option<usize>,
}

impl Literal {
    /// `n` zero bytes of the image: a zero token when there are at least
    /// [`ZERO_RUN_MIN`] of them (closing the literal), else literal bytes.
    fn gap(&mut self, out: &mut Vec<u8>, n: usize) {
        if n >= ZERO_RUN_MIN {
            self.close(out);
            zero_run(out, n);
        } else {
            self.extend(out, &[0; ZERO_RUN_MIN][..n]);
        }
    }

    /// Append `bytes`, opening a literal if none is open and a new one
    /// whenever this one reaches the longest a token can count.
    #[inline]
    fn extend(&mut self, out: &mut Vec<u8>, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let from = match self.open {
                Some(from) => from,
                None => {
                    out.extend_from_slice(&[1, 0, 0, 0, 0]);
                    *self.open.insert(out.len())
                }
            };
            let n = bytes.len().min(u32::MAX as usize - (out.len() - from));
            out.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            if out.len() - from == u32::MAX as usize {
                self.close(out);
            }
        }
    }

    fn close(&mut self, out: &mut [u8]) {
        if let Some(from) = self.open.take() {
            let len = (out.len() - from) as u32;
            out[from - 4..from].copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// The islands of `raw ^ base`, in one pass over the two records; `None`
/// as soon as they cannot encode to `budget` bytes or fewer. `raw` is the
/// record in parts — one for a contiguous record, one per segment of a
/// rope — that together are as long as `base`. A part is read where it
/// lies: whole words go through the block kernel ([`Image::xor_words`]),
/// and the up to three bytes on either side of a part that does not
/// begin or end on a word boundary (a record of a dtype narrower than
/// four bytes) are placed one by one.
fn xor_islands(raw: &[&[u8]], base: &[u8], budget: usize) -> Option<Image> {
    let mut image = Image {
        streams: Default::default(),
        words: base.len() / LANES,
        len: base.len(),
    };
    let mut at = 0;
    for part in raw {
        let base = &base[at..at + part.len()];
        let lead = (at.wrapping_neg() % LANES).min(part.len());
        let whole = lead + (part.len() - lead) / LANES * LANES;
        for i in 0..lead {
            image.place(at + i, part[i] ^ base[i]);
        }
        image.xor_words(
            &part[lead..whole],
            &base[lead..whole],
            (at + lead) / LANES,
            budget,
        )?;
        for i in whole..part.len() {
            image.place(at + i, part[i] ^ base[i]);
        }
        at += part.len();
    }
    Some(image)
}

impl Image {
    /// The block kernel of [`xor_islands`]: XOR the whole words of `raw`
    /// and `base` (equal lengths, a multiple of four) a block at a time,
    /// from word index `done` on. A block with no changed word costs the
    /// XOR alone; a sparse one pushes the non-zero bytes of its changed
    /// words; a dense one is dealt into one lane at a time (a loop the
    /// compiler turns into wide shifts and packs) and scanned for runs.
    fn xor_words(&mut self, raw: &[u8], base: &[u8], mut done: usize, budget: usize) -> Option<()> {
        let mut xored = [0u32; XOR_BLOCK];
        let mut lane = [0u8; XOR_BLOCK];
        for (a, b) in raw
            .chunks(XOR_BLOCK * LANES)
            .zip(base.chunks(XOR_BLOCK * LANES))
        {
            let n = a.len() / LANES;
            // A short block's last group is padded with unchanged words.
            let groups = n.div_ceil(GROUP);
            xored[n..groups * GROUP].fill(0);
            for ((x, a), b) in xored
                .iter_mut()
                .zip(a.chunks_exact(LANES))
                .zip(b.chunks_exact(LANES))
            {
                *x = u32::from_le_bytes(a.try_into().expect("4-byte word"))
                    ^ u32::from_le_bytes(b.try_into().expect("4-byte word"));
            }
            // Bit `g` set: group `g` has a changed word. The changed
            // groups and words are visited by their bits, which keeps
            // branches on where a change lies out of the loop.
            let touched = mask(xored[..groups * GROUP].chunks_exact(GROUP), |group| {
                group.iter().fold(0, |acc, x| acc | x) != 0
            });
            if touched.count_ones() as usize * SPARSE_DENOM <= groups {
                for g in bits(touched) {
                    let group = &xored[g * GROUP..(g + 1) * GROUP];
                    for i in bits(mask(group.iter(), |x| *x != 0)) {
                        for (k, stream) in self.streams[..LANES].iter_mut().enumerate() {
                            let byte = (group[i] >> (8 * k)) as u8;
                            if byte != 0 {
                                stream.push_byte(done + g * GROUP + i, byte);
                            }
                        }
                    }
                }
            } else {
                for (k, stream) in self.streams[..LANES].iter_mut().enumerate() {
                    for (o, x) in lane[..n].iter_mut().zip(&xored[..n]) {
                        *o = (x >> (8 * k)) as u8;
                    }
                    let lane = &lane[..n];
                    let mut i = find_nonzero(lane, 0);
                    while i < n {
                        let end = find_zero(lane, i);
                        stream.push(done + i, &lane[i..end]);
                        i = find_nonzero(lane, end);
                    }
                }
            }
            done += n;
            if self.body_floor() > budget {
                return None;
            }
        }
        Some(())
    }
}

/// Bit `i` set where `test` holds for item `i` (at most 64 items).
#[inline]
fn mask<T>(items: impl Iterator<Item = T>, test: impl Fn(T) -> bool) -> u64 {
    items
        .enumerate()
        .fold(0, |m, (i, item)| m | (u64::from(test(item)) << i))
}

/// The indices of the set bits of `m`, lowest first.
#[inline]
fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            i
        })
    })
}

const WORD: usize = 8;
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

#[inline]
fn load_word(src: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(src[at..at + WORD].try_into().expect("8-byte word"))
}

/// Index of the first zero byte of `src` at or after `from`, or
/// `src.len()`. Eight bytes per step: `(x - 0x01..) & !x & 0x80..` is
/// non-zero exactly when `x` has a zero byte, and its lowest set bit marks
/// the first one (false positives only arise above a true zero).
fn find_zero(src: &[u8], from: usize) -> usize {
    let mut i = from;
    while i + WORD <= src.len() {
        let x = load_word(src, i);
        let zeros = x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS;
        if zeros != 0 {
            return i + zeros.trailing_zeros() as usize / 8;
        }
        i += WORD;
    }
    src[i..]
        .iter()
        .position(|&b| b == 0)
        .map_or(src.len(), |p| i + p)
}

/// Index of the first non-zero byte of `src` at or after `from`, or
/// `src.len()`, eight bytes per step.
fn find_nonzero(src: &[u8], from: usize) -> usize {
    let mut i = from;
    while i + WORD <= src.len() {
        let x = load_word(src, i);
        if x != 0 {
            return i + x.trailing_zeros() as usize / 8;
        }
        i += WORD;
    }
    src[i..]
        .iter()
        .position(|&b| b != 0)
        .map_or(src.len(), |p| i + p)
}

/// The token stream is `[0, len u32]`, which emits `len` zero bytes, and
/// `[1, len u32, bytes...]`, which emits a literal. A zero run (or a
/// literal) longer than a token can count splits into several.
fn zero_run(out: &mut Vec<u8>, mut run: usize) {
    while run > 0 {
        let part = run.min(u32::MAX as usize);
        out.push(0);
        out.extend_from_slice(&(part as u32).to_le_bytes());
        run -= part;
    }
}

/// Apply the token stream `body` to `out`, the base's bytes: the inverse
/// of the encoder, without materializing the transposed image. A token
/// is checked against `out`'s length before it is applied.
fn rle_apply(body: &[u8], out: &mut [u8]) -> Result<(), DeltaError> {
    let expect_len = out.len();
    // Position in the transposed image the next token starts at.
    let mut pos = 0usize;
    let mut i = 0;
    while i < body.len() {
        if i + 5 > body.len() {
            return Err(DeltaError::Truncated);
        }
        let tag = body[i];
        let len = u32::from_le_bytes(body[i + 1..i + 5].try_into().unwrap()) as usize;
        i += 5;
        let end = pos.saturating_add(len);
        match tag {
            0 => {}
            1 => {
                if i + len > body.len() {
                    return Err(DeltaError::Truncated);
                }
                if end <= expect_len {
                    xor_scatter(out, pos, &body[i..i + len]);
                }
                i += len;
            }
            t => return Err(DeltaError::BadToken(t)),
        }
        pos = end;
        if pos > expect_len {
            return Err(DeltaError::LengthMismatch {
                expected: expect_len,
                actual: pos,
            });
        }
    }
    if pos != expect_len {
        return Err(DeltaError::LengthMismatch {
            expected: expect_len,
            actual: pos,
        });
    }
    Ok(())
}

/// XOR `lit`, which sits at `pos..pos + lit.len()` of the transposed
/// image, into the untransposed `out`: position `p` of lane `k` (`p =
/// k * words + w`) is byte `k` of word `w`; tail positions map to
/// themselves. The range lies within `out.len()`.
fn xor_scatter(out: &mut [u8], mut pos: usize, mut lit: &[u8]) {
    let words = out.len() / LANES;
    while !lit.is_empty() && pos < words * LANES {
        let (lane, w) = (pos / words, pos % words);
        let n = lit.len().min(words - w);
        for (o, b) in out[w * LANES + lane..]
            .iter_mut()
            .step_by(LANES)
            .zip(&lit[..n])
        {
            *o ^= b;
        }
        pos += n;
        lit = &lit[n..];
    }
    for (o, b) in out[pos..].iter_mut().zip(lit) {
        *o ^= b;
    }
}

/// The byte-at-a-time codec that materializes the transposed image, kept
/// as the reference the island encoder and the scattering decoder are
/// compared against: the EVDL byte stream must not depend on how it is
/// computed.
#[cfg(test)]
mod reference {
    use super::{LANES, ZERO_RUN_MIN};

    /// `[1, len u32, bytes...]` emits a literal; an empty one emits
    /// nothing.
    pub fn flush_literal(out: &mut Vec<u8>, lit: &[u8]) {
        for part in lit.chunks(u32::MAX as usize) {
            out.push(1);
            out.extend_from_slice(&(part.len() as u32).to_le_bytes());
            out.extend_from_slice(part);
        }
    }

    /// Body of the delta record for `raw` against `base`.
    pub fn encode_body(raw: &[u8], base: &[u8]) -> Vec<u8> {
        let xored: Vec<u8> = raw.iter().zip(base).map(|(a, b)| a ^ b).collect();
        rle_encode(&transpose(&xored))
    }

    /// Group bytes by position-within-a-4-byte-lane: all lane-0 bytes, then
    /// all lane-1 bytes, ... Tail bytes (len % 4) pass through unpermuted.
    pub fn transpose(src: &[u8]) -> Vec<u8> {
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
    pub fn untranspose(src: &[u8]) -> Vec<u8> {
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

    pub fn rle_encode(src: &[u8]) -> Vec<u8> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::ser::write_tensor;
    use crate::tensor::TensorData;
    use proptest::prelude::*;
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

    /// The token stream of `raw` against `base`, whatever its length.
    fn body_of(raw: &[&[u8]], base: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        xor_islands(raw, base, usize::MAX)
            .expect("an unbounded budget always fits")
            .encode(&mut body);
        body
    }

    /// `base` with the token stream `body` applied.
    fn applied(body: &[u8], base: &[u8]) -> Result<Vec<u8>, DeltaError> {
        let mut out = base.to_vec();
        rle_apply(body, &mut out)?;
        Ok(out)
    }

    #[test]
    fn transpose_roundtrip_all_tail_lengths() {
        for n in 0..40usize {
            let src: Vec<u8> = (0..n as u8).collect();
            let base: Vec<u8> = (0..n as u8).map(|b| b.wrapping_mul(29) ^ 0x5A).collect();
            let zeros = vec![0u8; n];
            assert_eq!(
                body_of(&[&src], &zeros),
                reference::encode_body(&src, &zeros),
                "len {n}"
            );
            // One literal covering the whole image decodes to its
            // untransposition, XORed onto the base.
            let mut body = Vec::new();
            reference::flush_literal(&mut body, &src);
            assert_eq!(
                applied(&body, &zeros).unwrap(),
                reference::untranspose(&src),
                "len {n}"
            );
            let xored: Vec<u8> = src.iter().zip(&base).map(|(a, b)| a ^ b).collect();
            body.clear();
            reference::flush_literal(&mut body, &reference::transpose(&xored));
            assert_eq!(applied(&body, &base).unwrap(), src, "len {n}");
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
            // `src` is the transposed image of this record against zeros.
            let raw = reference::untranspose(&src);
            let zeros = vec![0u8; src.len()];
            let enc = body_of(&[&raw], &zeros);
            assert_eq!(enc, reference::rle_encode(&src));
            assert_eq!(applied(&enc, &zeros).unwrap(), raw);
        }
    }

    #[test]
    fn version_1_record_is_refused_by_version() {
        // A record stamped by the previous format (FNV-1a body check) must
        // be named as such, not reported as a corrupted body.
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let base = TensorData::random(&mut rng, DType::F32, vec![64]);
        let base_rec = write_tensor(&base);
        let tuned_rec = write_tensor(&base.perturbed_sparse(&mut rng, 0.02));
        let mut v1 = encode_delta(&tuned_rec, &base_rec, KEY, 1)
            .unwrap()
            .to_vec();
        v1[4] = 1;
        assert_eq!(delta_header(&v1), Err(DeltaError::BadVersion(1)));
        let err = decode_delta(&v1, &base_rec).unwrap_err();
        assert_eq!(err, DeltaError::BadVersion(1));
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    /// A record framed around `body` with a valid check, so decoding gets
    /// as far as the token stream.
    fn framed(body: &[u8], raw_len: usize) -> Vec<u8> {
        let mut rec = Vec::new();
        put_header(&mut rec, 1, &KEY, raw_len, body.len());
        rec.extend_from_slice(body);
        rec.put_u64_le(checksum64(body));
        rec
    }

    #[test]
    fn malformed_token_streams_are_typed_errors() {
        let base = [7u8; 10];
        let decode = |body: &[u8]| decode_delta(&framed(body, base.len()), &base);
        let zero_run = |n: u32| [&[0u8][..], &n.to_le_bytes()].concat();
        let literal = |bytes: &[u8]| {
            let mut out = Vec::new();
            reference::flush_literal(&mut out, bytes);
            out
        };

        assert_eq!(decode(&zero_run(10)).unwrap()[..], base);
        assert_eq!(decode(&[9, 1, 0, 0, 0]), Err(DeltaError::BadToken(9)));
        // Token header or literal cut short.
        assert_eq!(decode(&[0, 10, 0]), Err(DeltaError::Truncated));
        assert_eq!(decode(&[1, 4, 0, 0, 0, 1, 2]), Err(DeltaError::Truncated));
        // Too short, too long (by a zero run, by a literal, by a run whose
        // claimed length must not be allocated).
        for (body, actual) in [
            (zero_run(9), 9),
            (zero_run(11), 11),
            ([zero_run(8), literal(&[1, 2, 3])].concat(), 11),
            (zero_run(u32::MAX), u32::MAX as usize),
        ] {
            assert_eq!(
                decode(&body),
                Err(DeltaError::LengthMismatch {
                    expected: 10,
                    actual
                })
            );
        }
    }

    #[test]
    fn crafted_body_lengths_are_truncated_not_panics() {
        // header 40 + comp_len + check 8: MAX inverts the body range,
        // MAX - 39 and MAX - 47 wrap the bound to small values.
        let base = [7u8; 10];
        for comp_len in [u64::MAX, u64::MAX - 39, u64::MAX - 47, 1 << 63, 6] {
            let mut rec = framed(&[0, 10, 0, 0, 0], base.len());
            rec[32..40].copy_from_slice(&comp_len.to_le_bytes());
            assert_eq!(
                delta_header(&rec),
                Err(DeltaError::Truncated),
                "{comp_len:#x}"
            );
            assert_eq!(
                delta_probe(&rec[..DELTA_PROBE_LEN], rec.len()),
                Err(DeltaError::Truncated)
            );
            assert_eq!(decode_delta(&rec, &base), Err(DeltaError::Truncated));
        }
    }

    /// A fine-tuned tensor of each element width, as a borrowed rope and
    /// as arbitrary re-splits of the same bytes: the segmented encoder
    /// emits the contiguous encoder's record, whose body is the reference
    /// codec's.
    #[test]
    fn segmented_encode_matches_contiguous_and_reference() {
        use crate::ser::{write_tensor_borrowed, BORROW_MIN_BYTES};
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        assert!(!is_delta_segments(&[]));
        for dtype in [DType::U8, DType::F16, DType::F32, DType::F64] {
            // Odd element counts put a narrow dtype's check segment off the
            // word boundary.
            let base = TensorData::random(
                &mut rng,
                dtype,
                vec![BORROW_MIN_BYTES / dtype.size_of() + 3],
            );
            let tuned = base.perturbed_sparse(&mut rng, 0.05);
            let base_rec = write_tensor(&base);
            let flat = write_tensor(&tuned);
            let rope = write_tensor_borrowed(&tuned);
            let expect = encode_delta(&flat, &base_rec, KEY, 2).expect("sparse delta wins");
            assert_eq!(
                expect[HEADER_LEN..expect.len() - CHECK_LEN],
                reference::encode_body(&flat, &base_rec)[..]
            );
            assert_eq!(
                encode_delta_segments(&rope, &base_rec, KEY, 2),
                Some(expect.clone())
            );
            assert!(is_delta_segments(&[expect.slice(..1), expect.slice(1..)]));
            assert!(!is_delta_segments(&rope));
            // The header reads the same off any split, or off the head alone.
            let header = delta_header(&expect).unwrap();
            for head in [
                vec![expect.clone()],
                vec![expect.slice(..7), expect.slice(7..)],
                vec![expect.slice(..HEADER_LEN)],
            ] {
                assert_eq!(delta_probe_segments(&head, expect.len()), Ok(Some(header)));
            }
            assert_eq!(delta_probe_segments(&rope, flat.len()), Ok(None));
            assert_eq!(
                delta_probe_segments(&[expect.slice(..HEADER_LEN - 1)], expect.len()),
                Err(DeltaError::Truncated)
            );
            for cuts in [
                vec![1],
                vec![3, 26],
                vec![0, 24, 24, 1001],
                vec![5, 6, 7, 8, 9],
            ] {
                let mut split = Vec::new();
                let mut rest = flat.clone();
                let mut at = 0;
                for cut in cuts {
                    split.push(rest.split_to(cut - at));
                    at = cut;
                }
                split.push(rest);
                assert_eq!(
                    encode_delta_segments(&split, &base_rec, KEY, 2),
                    Some(expect.clone())
                );
            }
            // A rope of another length declines like a slice of it would.
            assert_eq!(encode_delta_segments(&rope[..2], &base_rec, KEY, 2), None);
        }
    }

    /// The zero-scan kernels against a byte loop, from every start offset.
    #[test]
    fn zero_scans_match_byte_loops() {
        let mut src = Vec::new();
        for (zeros, fill) in [(0, 3), (1, 9), (7, 1), (8, 8), (9, 17), (16, 2), (23, 0)] {
            src.extend(std::iter::repeat_n(0u8, zeros));
            src.extend((0..fill).map(|i| 0x80 | i as u8));
        }
        // 0x01 and 0x80 neighbours are where the bit trick could misfire.
        src.extend([0x01, 0x00, 0x01, 0x80, 0x00, 0x80, 0x01, 0x01, 0x00]);
        for from in 0..=src.len() {
            let zero = (from..src.len())
                .find(|&i| src[i] == 0)
                .unwrap_or(src.len());
            let nonzero = (from..src.len())
                .find(|&i| src[i] != 0)
                .unwrap_or(src.len());
            assert_eq!(find_zero(&src, from), zero, "find_zero from {from}");
            assert_eq!(
                find_nonzero(&src, from),
                nonzero,
                "find_nonzero from {from}"
            );
        }
    }

    /// An XOR image assembled from segments chosen to sit on the codec's
    /// edges: zero runs one short of, at, and one past the token
    /// threshold; runs and literals of word-straddling lengths; literals
    /// with no zero byte at all.
    fn arb_xor_image() -> impl Strategy<Value = Vec<u8>> {
        let segment = prop_oneof![
            // Zero runs around ZERO_RUN_MIN and around the 8-byte word.
            prop::sample::select(vec![
                1usize,
                ZERO_RUN_MIN - 1,
                ZERO_RUN_MIN,
                ZERO_RUN_MIN + 1,
                8,
                9,
                15,
                16,
                17,
                64
            ])
            .prop_map(|n| vec![0u8; n]),
            (1usize..600).prop_map(|n| vec![0u8; n]),
            // Zero-free literals.
            prop::collection::vec(1u8..=255, 1..40),
            // Arbitrary bytes (isolated zeros included).
            prop::collection::vec(any::<u8>(), 1..40),
            prop::collection::vec(0u8..3, 1..40),
        ];
        (prop::collection::vec(segment, 0..24), 0usize..=4100).prop_map(|(segments, len)| {
            let mut image: Vec<u8> = segments.concat();
            // Cut or zero-extend to the drawn length, so every `len % 4`
            // and `len % 8` tail occurs, and so do long all-zero tails.
            image.resize(len, 0);
            image
        })
    }

    /// The island encoder emits the reference codec's bytes for the
    /// record whose XOR against a seeded base is `image`, decoding
    /// restores the record, and the delta is taken exactly when the
    /// reference body saves the required share — the encoder's early
    /// stop never declines a delta that would have won.
    fn check_against_reference(image: &[u8], base_seed: u64) {
        let mut x = base_seed;
        let base: Vec<u8> = (0..image.len())
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let raw: Vec<u8> = image.iter().zip(&base).map(|(i, b)| i ^ b).collect();

        let body = body_of(&[&raw], &base);
        assert_eq!(body, reference::encode_body(&raw, &base));
        // The same body from the record in parts, cut anywhere.
        let cut = base_seed as usize % (raw.len() + 1);
        let (head, rest) = raw.split_at(cut);
        let (mid, last) = rest.split_at((base_seed >> 32) as usize % (rest.len() + 1));
        assert_eq!(body_of(&[head, mid, &[], last], &base), body);
        assert_eq!(applied(&body, &base).unwrap(), raw);

        // Through the public pair.
        let wins = HEADER_LEN + body.len() + CHECK_LEN + raw.len() / MIN_SAVINGS_DENOM <= raw.len();
        let delta = encode_delta(&raw, &base, KEY, 1);
        assert_eq!(delta.is_some(), wins, "len {}", raw.len());
        if let Some(delta) = delta {
            assert_eq!(delta[HEADER_LEN..delta.len() - CHECK_LEN], body[..]);
            assert_eq!(decode_delta(&delta, &base).unwrap()[..], raw[..]);
        }
    }

    /// Images of several encoder blocks, each of a density on one side
    /// or the other of the sparse kernel's threshold (or exactly on it),
    /// in every order: the two kernels feed the same islands, and a
    /// stretch crossing a block boundary is one island.
    #[test]
    fn blocks_of_every_density_match_reference() {
        let block = XOR_BLOCK * LANES;
        let words = XOR_BLOCK;
        // Changed words per block: none, one, one in as many groups as the
        // sparse kernel takes, one group more, every word.
        let at = XOR_BLOCK / GROUP / SPARSE_DENOM;
        let densities = [0, 1, at, at + 1, words];
        let mut seed = 1u64;
        for first in densities {
            for second in densities {
                for third in densities {
                    let mut image = vec![0u8; 3 * block + 3];
                    for (b, changed) in [first, second, third].into_iter().enumerate() {
                        for i in 0..changed {
                            // Spread over the block; both low bytes of a
                            // word and, on every third, a high one too.
                            let w = b * words + i * words / changed.max(1);
                            image[4 * w] = 0x5A;
                            image[4 * w + 1] = (i as u8) | 1;
                            if i % 3 == 0 {
                                image[4 * w + 3] = 0x80;
                            }
                        }
                    }
                    // A changed last word and tail byte, so stretches meet
                    // at the block and stream edges.
                    image[3 * block - 1] = 7;
                    image[3 * block + 1] = 9;
                    check_against_reference(&image, seed);
                    seed += 0x1_0000_0001;
                }
            }
        }
    }

    /// A body of exactly the budget is taken and one byte more declines,
    /// with the budget reached only in the last block: the encoder's early
    /// stop waits until the islands provably cannot fit.
    #[test]
    fn a_body_at_the_budget_is_taken_and_one_past_it_declines() {
        let len = 3 * XOR_BLOCK * LANES + 3;
        let budget = len - len / MIN_SAVINGS_DENOM - HEADER_LEN - CHECK_LEN;
        // One literal of `lit` non-zero bytes across three lanes, then a
        // zero run: a body of `lit + 10` bytes.
        for (lit, wins) in [(budget - 10, true), (budget - 9, false)] {
            let mut trans = vec![0u8; len];
            for (i, b) in trans[..lit].iter_mut().enumerate() {
                *b = (i % 255) as u8 + 1;
            }
            let raw = reference::untranspose(&trans);
            let zeros = vec![0u8; len];
            assert_eq!(body_of(&[&raw], &zeros).len(), lit + 10);
            assert_eq!(encode_delta(&raw, &zeros, KEY, 1).is_some(), wins);
            check_against_reference(&raw, lit as u64);
        }
    }

    /// A chain applied deepest first to one buffer holding the raw base
    /// reconstructs its newest record; a delta that fails its framing or
    /// body check leaves the buffer holding the base, and one whose
    /// checked token stream overruns the record is an error.
    #[test]
    fn chains_apply_in_place() {
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let mut tensor = TensorData::random(&mut rng, DType::F32, vec![4096]);
        let base = write_tensor(&tensor);
        let mut deltas = Vec::new();
        let mut prev = base.clone();
        for depth in 1..=3 {
            tensor = tensor.perturbed_sparse(&mut rng, 0.02);
            let rec = write_tensor(&tensor);
            deltas.push(encode_delta(&rec, &prev, KEY, depth).expect("sparse delta wins"));
            prev = rec;
        }
        let mut buf = base.to_vec();
        for delta in &deltas {
            apply_delta(delta, &mut buf).unwrap();
        }
        assert_eq!(prev, buf);

        let mut bad_check = deltas[0].to_vec();
        bad_check[HEADER_LEN] ^= 1;
        // A token stream that checks out but overruns the record.
        let overrun = framed(
            &[&[1u8, 2, 0, 0, 0, 9, 9][..], &[0, 0xFF, 0xFF, 0, 0]].concat(),
            base.len(),
        );
        for bad in [&bad_check, &deltas[0][..HEADER_LEN - 1].to_vec()] {
            let mut buf = base.to_vec();
            assert!(apply_delta(bad, &mut buf).is_err());
            assert_eq!(base, buf);
        }
        assert!(matches!(
            apply_delta(&overrun, &mut base.to_vec()),
            Err(DeltaError::LengthMismatch { .. })
        ));
        let mut short = base[..base.len() - 4].to_vec();
        assert!(matches!(
            apply_delta(&deltas[0], &mut short),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn edge_images_match_reference() {
        let lens = (0..=70).chain(4090..=4100);
        for len in lens {
            // All-zero XOR (identical records) and no zero byte at all.
            check_against_reference(&vec![0u8; len], len as u64);
            check_against_reference(&vec![0xA5u8; len], len as u64);
            // One zero run of each threshold length at every offset of two
            // words, in the transposed image (what the RLE stage scans).
            for run in [ZERO_RUN_MIN - 1, ZERO_RUN_MIN, ZERO_RUN_MIN + 1] {
                for start in 0..16 {
                    let mut trans = vec![0x11u8; len];
                    for b in trans.iter_mut().skip(start).take(run) {
                        *b = 0;
                    }
                    check_against_reference(&reference::untranspose(&trans), start as u64);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn matches_reference_and_roundtrips(
            image in arb_xor_image(),
            base_seed in any::<u64>(),
            transposed in any::<bool>(),
        ) {
            // `transposed` lays the image out so that *it* is what the RLE
            // stage scans; otherwise it is the XOR of the two records.
            if transposed {
                check_against_reference(&reference::untranspose(&image), base_seed);
            } else {
                check_against_reference(&image, base_seed);
            }
        }
    }
}
