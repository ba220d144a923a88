//! Size of the delta/varint wire encoding of [`ViewTree`] bundles.
//!
//! The Lemma 4.1 bundle exchange ships whole view trees between machines, and
//! the flat representation — two `u64` words per node (vertex image + parent
//! pointer) — wastes most of each word: images are small vertex ids and the
//! `parent` column is *near-sorted* (arena order is topological, and sibling
//! blocks are contiguous, so consecutive parents differ by small steps, often
//! zero). A bundle is charged at the length of the two wire columns encoded
//! as a compact byte stream, packed eight bytes per MPC word
//! ([`dgo_mpc::packed_words`]):
//!
//! ```text
//! varint(n) · varint(vertex[0..n]) · zigzag-varint(Δ parent[1..n])
//! ```
//!
//! * **varint** — LEB128: seven payload bits per byte, high bit marks
//!   continuation; small values take one byte.
//! * **delta + zigzag** — parents are sent as differences from the previous
//!   parent (starting from 0), sign-folded so small negative steps stay
//!   small: `zigzag(d) = (d << 1) ^ (d >> 63)`.
//!
//! The two columns are the whole of a [`ViewTree`]: depths and children
//! are not stored but derived from `parent` where they are read, because
//! ids are topological and every sibling run is an ascending contiguous id
//! range. The algorithm only ever needs the stream's length, so only the
//! length is computed here ([`encoded_words`], charged through
//! [`ViewTree::wire_words`]). The `wire_codec` conformance suite holds an
//! encoder and a strict decoder for the format, which show that this length
//! is achievable and the encoding lossless.

use crate::ViewTree;
use dgo_mpc::packed_words;

/// Bytes the LEB128 varint of `x` occupies: one per started 7-bit group.
/// `x | 1` makes zero cost one byte without a branch.
#[inline]
fn varint_len(x: u64) -> usize {
    let bits = 64 - (x | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Sign-folds a delta so small magnitudes of either sign stay small.
#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Exact encoded length of `tree` in MPC words — the figure
/// [`ViewTree::wire_words`] charges — computed by summing varint lengths
/// without building the stream.
pub(crate) fn encoded_words(tree: &ViewTree) -> usize {
    let mut bytes = varint_len(tree.len() as u64);
    for &v in tree.vertex_col() {
        bytes += varint_len(v as u64);
    }
    let mut prev = 0i64;
    for &p in &tree.parent_col()[1..] {
        bytes += varint_len(zigzag(p as i64 - prev));
        prev = p as i64;
    }
    packed_words(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn star_compresses_well_below_flat() {
        let neighbors: Vec<u32> = (0..128).collect();
        let t = ViewTree::star(5, &neighbors);
        // Flat: 2 × 129 = 258 words. Encoded: every vertex id and every
        // parent delta is one byte, so ~131 bytes ≈ 17 words.
        assert!(encoded_words(&t) * 4 < t.flat_wire_words());
    }
}
