//! Ropes: one logical byte string held as an ordered list of shared
//! buffers.
//!
//! A rope is a plain `[Bytes]` — the same shape the fabric's vectored
//! bulk regions and the KV layer's segmented values already use — and the
//! functions here address its *logical concatenation*. Empty segments are
//! legal anywhere and hold no bytes. Ropes on the record path are short (a
//! borrowed tensor record is three segments, a resident chunked value one
//! per chunk), so every function walks the list from the front.

use std::ops::Range;

use bytes::Bytes;

/// Logical length: the sum of the segment lengths.
pub fn len(segments: &[Bytes]) -> usize {
    segments.iter().map(Bytes::len).sum()
}

/// The parts of `segments` covering the logical `range`, as (segment
/// index, range within that segment), in order and skipping empty takes.
/// A range reaching past the rope's end is cut at the end.
fn pieces(
    segments: &[Bytes],
    range: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut start = 0usize;
    segments
        .iter()
        .map(Bytes::len)
        .enumerate()
        .filter_map(move |(i, seg_len)| {
            let end = start + seg_len;
            let (lo, hi) = (range.start.max(start), range.end.min(end));
            let piece = (lo < hi).then(|| (i, lo - start..hi - start));
            start = end;
            piece
        })
}

/// The logical `range` as borrowed slices, one per segment it touches —
/// what [`crate::checksum64_parts`] hashes without gathering.
pub fn parts(segments: &[Bytes], range: Range<usize>) -> impl Iterator<Item = &[u8]> + '_ {
    pieces(segments, range).map(|(i, r)| &segments[i][r])
}

/// The logical `range` as a rope of shared sub-slices: no byte is copied.
pub fn slice(segments: &[Bytes], range: Range<usize>) -> Vec<Bytes> {
    pieces(segments, range)
        .map(|(i, r)| segments[i].slice(r))
        .collect()
}

/// The logical `range` as one buffer: a shared sub-slice when it lies
/// within one segment, a gathered copy when it spans a boundary.
pub fn slice_flat(segments: &[Bytes], range: Range<usize>) -> Bytes {
    let want = range.len();
    let mut pieces = pieces(segments, range);
    let Some((i, r)) = pieces.next() else {
        return Bytes::new();
    };
    if r.len() == want {
        return segments[i].slice(r);
    }
    let mut out = Vec::with_capacity(want);
    out.extend_from_slice(&segments[i][r]);
    for (i, r) in pieces {
        out.extend_from_slice(&segments[i][r]);
    }
    Bytes::from(out)
}

/// The whole rope as one buffer: the segment itself (a refcount bump)
/// when there is only one, otherwise a gathered copy.
pub fn flatten(segments: &[Bytes]) -> Bytes {
    match segments {
        [] => Bytes::new(),
        [one] => one.clone(),
        _ => slice_flat(segments, 0..len(segments)),
    }
}

/// Copy the logical bytes starting at `at` into `out`, returning how many
/// were there to copy (`out.len()`, or fewer when the rope ends first).
pub fn copy_to(segments: &[Bytes], at: usize, out: &mut [u8]) -> usize {
    let mut copied = 0;
    for part in parts(segments, at..at.saturating_add(out.len())) {
        out[copied..copied + part.len()].copy_from_slice(part);
        copied += part.len();
    }
    copied
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rope() -> Vec<Bytes> {
        vec![
            Bytes::new(),
            Bytes::from_static(&[0, 1, 2]),
            Bytes::new(),
            Bytes::new(),
            Bytes::from_static(&[3, 4, 5, 6, 7]),
            Bytes::from_static(&[8]),
            Bytes::new(),
        ]
    }

    #[test]
    fn every_range_matches_the_flat_bytes() {
        let rope = rope();
        let flat: Vec<u8> = (0..9).collect();
        assert_eq!(len(&rope), 9);
        assert_eq!(flatten(&rope)[..], flat[..]);
        for start in 0..=9 {
            for end in start..=9 {
                let expect = &flat[start..end];
                assert_eq!(
                    parts(&rope, start..end).collect::<Vec<_>>().concat(),
                    expect
                );
                assert_eq!(flatten(&slice(&rope, start..end))[..], *expect);
                assert_eq!(slice_flat(&rope, start..end)[..], *expect);
                let mut out = vec![0xFF; end - start];
                assert_eq!(copy_to(&rope, start, &mut out), end - start);
                assert_eq!(out, expect);
            }
        }
        // Past the end: cut, not a panic.
        let mut out = [0u8; 4];
        assert_eq!(copy_to(&rope, 7, &mut out), 2);
        assert_eq!(copy_to(&rope, usize::MAX, &mut out), 0);
        assert_eq!(slice_flat(&rope, 8..20)[..], [8]);
    }

    #[test]
    fn in_segment_ranges_share_the_segment() {
        let rope = rope();
        // 4..7 lies inside the five-byte segment, which starts at 3.
        assert_eq!(slice_flat(&rope, 4..7).as_ptr(), rope[4][1..].as_ptr());
        let sliced = slice(&rope, 2..9);
        assert_eq!(sliced.len(), 3, "empty segments are dropped");
        assert_eq!(sliced[0].as_ptr(), rope[1][2..].as_ptr());
        assert_eq!(sliced[1].as_ptr(), rope[4].as_ptr());
        assert_eq!(sliced[2].as_ptr(), rope[5].as_ptr());
        // One segment flattens to itself.
        let one = [rope[4].clone()];
        assert_eq!(flatten(&one).as_ptr(), rope[4].as_ptr());
    }
}
