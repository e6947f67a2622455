//! Unrolled 256-bit-chunk bitset kernels.
//!
//! Every hot loop in the engine — subset tests in [`Extension`]
//! comparisons, the Lemma 5.1 covering test in the lub engine, and the
//! conflict-mask ANDs of Algorithm 1's product walk — reduces to a
//! handful of word-wise operations over `&[u64]` slices. This module is
//! the single implementation all three engine crates share: each kernel
//! processes `[u64; 4]` blocks (256 bits per iteration, four independent
//! ALU ops the CPU can retire in parallel) with a scalar tail for the
//! remainder, and never reaches for `std::simd` — plain unrolling is
//! portable, stable-Rust, and close enough to the vectorized ceiling for
//! these access patterns.
//!
//! Each kernel has a `_scalar` reference twin used by the equivalence
//! proptests in `tests/kernels_sparse.rs`; the references are the
//! one-liner zips the engine used before the kernels landed, so the
//! tests pin the unrolled code to the exact prior semantics.
//!
//! [`Extension`]: crate::Extension

/// Chunk width in words: 4 × u64 = 256 bits per unrolled iteration.
const LANES: usize = 4;

/// Subset test over equal-length word slices: `sub & !sup == 0`.
///
/// Both slices must have the same length (sets over one pool always do;
/// the engine never compares raw slices from different pools).
#[inline]
pub fn subset(sub: &[u64], sup: &[u64]) -> bool {
    debug_assert_eq!(sub.len(), sup.len());
    let (a4, a_tail) = as_chunks(sub);
    let (b4, b_tail) = as_chunks(sup);
    for (a, b) in a4.iter().zip(b4) {
        // OR the four lane escapes together and test once per chunk.
        let escape = (a[0] & !b[0]) | (a[1] & !b[1]) | (a[2] & !b[2]) | (a[3] & !b[3]);
        if escape != 0 {
            return false;
        }
    }
    a_tail.iter().zip(b_tail).all(|(a, b)| a & !b == 0)
}

/// Scalar reference for [`subset`] (proptest twin).
#[inline]
pub fn subset_scalar(sub: &[u64], sup: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(a, b)| a & !b == 0)
}

/// Disjointness test over equal-length word slices: `a & b == 0`,
/// exiting at the first overlapping chunk.
#[inline]
pub fn disjoint(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let (a4, a_tail) = as_chunks(a);
    let (b4, b_tail) = as_chunks(b);
    for (x, y) in a4.iter().zip(b4) {
        if (x[0] & y[0]) | (x[1] & y[1]) | (x[2] & y[2]) | (x[3] & y[3]) != 0 {
            return false;
        }
    }
    a_tail.iter().zip(b_tail).all(|(x, y)| x & y == 0)
}

/// Scalar reference for [`disjoint`] (proptest twin).
#[inline]
pub fn disjoint_scalar(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & y == 0)
}

/// In-place intersection `dst &= src`; returns `true` iff the result is
/// all-zero (the product walk's "this subtree already excludes every
/// answer" signal, fused so the walk never re-scans the mask).
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut any = 0u64;
    let (d4, d_tail) = as_chunks_mut(dst);
    let (s4, s_tail) = as_chunks(src);
    for (d, s) in d4.iter_mut().zip(s4) {
        d[0] &= s[0];
        d[1] &= s[1];
        d[2] &= s[2];
        d[3] &= s[3];
        any |= d[0] | d[1] | d[2] | d[3];
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d &= s;
        any |= *d;
    }
    any == 0
}

/// Out-of-place intersection `dst = a & b`; returns `true` iff the
/// result is all-zero. `dst` must be at least as long as the inputs.
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(dst.len() >= a.len());
    let mut any = 0u64;
    let (d4, d_tail) = as_chunks_mut(&mut dst[..a.len()]);
    let (a4, a_tail) = as_chunks(a);
    let (b4, b_tail) = as_chunks(b);
    for ((d, x), y) in d4.iter_mut().zip(a4).zip(b4) {
        d[0] = x[0] & y[0];
        d[1] = x[1] & y[1];
        d[2] = x[2] & y[2];
        d[3] = x[3] & y[3];
        any |= d[0] | d[1] | d[2] | d[3];
    }
    for ((d, x), y) in d_tail.iter_mut().zip(a_tail).zip(b_tail) {
        *d = x & y;
        any |= *d;
    }
    any == 0
}

/// In-place union `dst |= src`.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let (d4, d_tail) = as_chunks_mut(dst);
    let (s4, s_tail) = as_chunks(src);
    for (d, s) in d4.iter_mut().zip(s4) {
        d[0] |= s[0];
        d[1] |= s[1];
        d[2] |= s[2];
        d[3] |= s[3];
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d |= s;
    }
}

/// Population count across a word slice.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    let (w4, tail) = as_chunks(words);
    let mut n: u64 = 0;
    for w in w4 {
        // Four independent popcnts per iteration; sum in u64 so the
        // accumulator never truncates.
        n += (w[0].count_ones() + w[1].count_ones() + w[2].count_ones() + w[3].count_ones()) as u64;
    }
    n as usize + tail.iter().map(|w| w.count_ones() as usize).sum::<usize>()
}

/// Scalar reference for [`count_ones`] (proptest twin).
#[inline]
pub fn count_ones_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Whether every word is zero.
#[inline]
pub fn is_zero(words: &[u64]) -> bool {
    let (w4, tail) = as_chunks(words);
    for w in w4 {
        if w[0] | w[1] | w[2] | w[3] != 0 {
            return false;
        }
    }
    tail.iter().all(|&w| w == 0)
}

/// Intersection popcount `|a ∩ b|` without materializing the result
/// (selectivity estimation for candidate ordering).
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let (a4, a_tail) = as_chunks(a);
    let (b4, b_tail) = as_chunks(b);
    let mut n: u64 = 0;
    for (x, y) in a4.iter().zip(b4) {
        n += ((x[0] & y[0]).count_ones()
            + (x[1] & y[1]).count_ones()
            + (x[2] & y[2]).count_ones()
            + (x[3] & y[3]).count_ones()) as u64;
    }
    n as usize
        + a_tail
            .iter()
            .zip(b_tail)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum::<usize>()
}

/// Splits a slice into `[u64; LANES]` chunks plus a scalar tail
/// (`slice::as_chunks` is unstable, so spelled out here).
#[inline]
fn as_chunks(words: &[u64]) -> (&[[u64; LANES]], &[u64]) {
    let mid = words.len() - words.len() % LANES;
    let (head, tail) = words.split_at(mid);
    // SAFETY: head.len() is a multiple of LANES, and [u64; LANES] has the
    // same layout as LANES consecutive u64s.
    let chunks = unsafe {
        std::slice::from_raw_parts(head.as_ptr() as *const [u64; LANES], head.len() / LANES)
    };
    (chunks, tail)
}

/// Mutable twin of [`as_chunks`].
#[inline]
fn as_chunks_mut(words: &mut [u64]) -> (&mut [[u64; LANES]], &mut [u64]) {
    let mid = words.len() - words.len() % LANES;
    let (head, tail) = words.split_at_mut(mid);
    // SAFETY: as in `as_chunks`, plus the two halves are disjoint.
    let chunks = unsafe {
        std::slice::from_raw_parts_mut(head.as_mut_ptr() as *mut [u64; LANES], head.len() / LANES)
    };
    (chunks, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u64) -> Vec<u64> {
        // Small deterministic LCG — enough to exercise every lane.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state
            })
            .collect()
    }

    #[test]
    fn kernels_match_scalar_references_at_awkward_lengths() {
        for len in [0, 1, 3, 4, 5, 7, 8, 11, 16, 23] {
            let a = sample(len, len as u64 + 1);
            let b = sample(len, len as u64 + 99);
            let sub: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            assert_eq!(subset(&sub, &a), subset_scalar(&sub, &a), "len {len}");
            assert_eq!(subset(&a, &b), subset_scalar(&a, &b), "len {len}");
            assert_eq!(count_ones(&a), count_ones_scalar(&a), "len {len}");
            assert_eq!(and_count(&a, &b), count_ones_scalar(&sub), "len {len}");
            assert_eq!(is_zero(&a), a.iter().all(|&w| w == 0), "len {len}");

            let mut d = a.clone();
            let empty = and_assign(&mut d, &b);
            assert_eq!(d, sub, "len {len}");
            assert_eq!(empty, sub.iter().all(|&w| w == 0), "len {len}");

            let mut out = vec![u64::MAX; len];
            let empty = and_into(&mut out, &a, &b);
            assert_eq!(out, sub, "len {len}");
            assert_eq!(empty, sub.iter().all(|&w| w == 0), "len {len}");

            let mut u = a.clone();
            or_assign(&mut u, &b);
            let expect: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
            assert_eq!(u, expect, "len {len}");
        }
    }

    #[test]
    fn zero_and_full_words() {
        let zero = vec![0u64; 9];
        let full = vec![u64::MAX; 9];
        assert!(subset(&zero, &full));
        assert!(subset(&zero, &zero));
        assert!(!subset(&full, &zero));
        assert!(is_zero(&zero));
        assert!(!is_zero(&full));
        assert_eq!(count_ones(&full), 9 * 64);
        let mut d = full.clone();
        assert!(and_assign(&mut d, &zero));
        assert!(is_zero(&d));
    }
}
