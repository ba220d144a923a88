//! Delta/varint wire codec for [`ViewTree`] bundles.
//!
//! The Lemma 4.1 bundle exchange ships whole view trees between machines, and
//! the flat representation — two `u64` words per node (vertex image + parent
//! pointer) — wastes most of each word: images are small vertex ids and the
//! `parent` column is *near-sorted* (arena order is topological, and sibling
//! blocks are contiguous, so consecutive parents differ by small steps, often
//! zero). This module encodes the two wire columns into a compact byte
//! stream, packed eight bytes per MPC word
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
//! Depths and the children CSR never ship: [`decode`] rebuilds them from the
//! parent column in one forward pass each ([`ViewTree`]'s sibling runs are
//! ascending contiguous id ranges, so id-ordered reconstruction reproduces
//! the original structure exactly — the round trip is lossless).
//!
//! [`encoded_words`] computes the exact encoded length without materializing
//! the stream; it is what [`ViewTree::wire_words`] charges.

use crate::ViewTree;
use dgo_mpc::{packed_words, BYTES_PER_WORD};

/// Sentinel parent of the root inside the arena (not transmitted).
const NO_PARENT: u32 = u32::MAX;

/// Longest legal varint for a `u64`: ⌈64 / 7⌉ bytes.
const MAX_VARINT_BYTES: usize = 10;

/// Decoding failure: the word stream is not a canonical [`encode`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a varint or before the declared node count
    /// was satisfied.
    Truncated,
    /// The stream violates a structural rule (reason attached): zero node
    /// count, a parent pointing at itself or forward, varint overflow, or
    /// trailing garbage past the payload.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire stream truncated"),
            WireError::Malformed(reason) => write!(f, "malformed wire stream: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes the LEB128 varint of `x` occupies: one per started 7-bit group.
/// `x | 1` makes zero cost one byte without a branch.
#[inline]
fn varint_len(x: u64) -> usize {
    let bits = 64 - (x | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

#[inline]
fn push_varint(bytes: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            bytes.push(b);
            return;
        }
        bytes.push(b | 0x80);
    }
}

/// Sign-folds a delta so small magnitudes of either sign stay small.
#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Exact encoded length of `tree` in MPC words — the figure
/// [`ViewTree::wire_words`] charges — computed by summing varint lengths
/// without building the stream.
pub fn encoded_words(tree: &ViewTree) -> usize {
    packed_words(encoded_bytes(tree))
}

fn encoded_bytes(tree: &ViewTree) -> usize {
    let mut bytes = varint_len(tree.len() as u64);
    for &v in tree.vertex_col() {
        bytes += varint_len(v as u64);
    }
    let mut prev = 0i64;
    for &p in &tree.parent_col()[1..] {
        bytes += varint_len(zigzag(p as i64 - prev));
        prev = p as i64;
    }
    bytes
}

/// Encodes `tree` into its compact word stream. The returned length is
/// always [`encoded_words`]`(tree)`; the final word is zero-padded.
pub fn encode(tree: &ViewTree) -> Vec<u64> {
    let mut bytes = Vec::with_capacity(encoded_bytes(tree));
    push_varint(&mut bytes, tree.len() as u64);
    for &v in tree.vertex_col() {
        push_varint(&mut bytes, v as u64);
    }
    let mut prev = 0i64;
    for &p in &tree.parent_col()[1..] {
        push_varint(&mut bytes, zigzag(p as i64 - prev));
        prev = p as i64;
    }
    let mut words = vec![0u64; packed_words(bytes.len())];
    for (i, &b) in bytes.iter().enumerate() {
        words[i / BYTES_PER_WORD] |= (b as u64) << ((i % BYTES_PER_WORD) * 8);
    }
    words
}

/// Byte-granular reader over a packed word stream.
struct ByteReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl ByteReader<'_> {
    fn next_byte(&mut self) -> Result<u8, WireError> {
        let w = self.pos / BYTES_PER_WORD;
        if w >= self.words.len() {
            return Err(WireError::Truncated);
        }
        let b = (self.words[w] >> ((self.pos % BYTES_PER_WORD) * 8)) as u8;
        self.pos += 1;
        Ok(b)
    }

    fn read_varint(&mut self) -> Result<u64, WireError> {
        let mut x = 0u64;
        for i in 0..MAX_VARINT_BYTES {
            let b = self.next_byte()?;
            x |= ((b & 0x7f) as u64) << (7 * i);
            if b & 0x80 == 0 {
                return Ok(x);
            }
        }
        Err(WireError::Malformed("varint longer than 10 bytes"))
    }

    /// Remaining payload bytes assuming the stream is exactly `self.words`.
    fn bytes_left(&self) -> usize {
        self.words.len() * BYTES_PER_WORD - self.pos
    }
}

/// Decodes a word stream produced by [`encode`] back into the original tree.
///
/// Strict: the stream must be canonical — correct node count, parents in
/// topological order (every parent precedes its child), and nothing but zero
/// padding after the payload — so any corruption surfaces as a
/// [`WireError`] instead of a silently different tree.
pub fn decode(words: &[u64]) -> Result<ViewTree, WireError> {
    let mut r = ByteReader { words, pos: 0 };
    let n = r.read_varint()?;
    if n == 0 {
        return Err(WireError::Malformed("zero node count"));
    }
    if n > u32::MAX as u64 || (n as usize).saturating_sub(1) > r.bytes_left() {
        // Each node past the count costs at least one vertex byte, so a count
        // exceeding the remaining bytes can never be satisfied — reject it
        // before sizing any allocation off attacker-controlled input.
        return Err(WireError::Truncated);
    }
    let n = n as usize;
    let mut vertex = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.read_varint()?;
        if v > u32::MAX as u64 {
            return Err(WireError::Malformed("vertex image exceeds u32"));
        }
        vertex.push(v as u32);
    }
    let mut parent = Vec::with_capacity(n);
    parent.push(NO_PARENT);
    let mut prev = 0i64;
    for i in 1..n {
        // A delta the stream controls may overflow `i64`; that is a parent
        // out of range like any other.
        let p = prev
            .checked_add(unzigzag(r.read_varint()?))
            .filter(|&p| (0..i as i64).contains(&p))
            .ok_or(WireError::Malformed("parent out of topological order"))?;
        prev = p;
        parent.push(p as u32);
    }
    // Only zero padding inside the final word may remain.
    if r.bytes_left() >= BYTES_PER_WORD {
        return Err(WireError::Malformed("trailing words past the payload"));
    }
    while r.bytes_left() > 0 {
        if r.next_byte()? != 0 {
            return Err(WireError::Malformed("nonzero padding past the payload"));
        }
    }
    Ok(ViewTree::from_wire_columns(&vertex, &parent))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(t: &ViewTree) {
        let words = encode(t);
        assert_eq!(words.len(), encoded_words(t), "sizing must match encode");
        let back = decode(&words).expect("canonical stream decodes");
        assert_eq!(&back, t, "round trip must be lossless");
    }

    #[test]
    fn varint_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn zigzag_round_trips() {
        for d in [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // Small magnitudes stay small after folding.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn singleton_and_star_round_trip() {
        round_trip(&ViewTree::singleton(0));
        round_trip(&ViewTree::singleton(1_000_000));
        round_trip(&ViewTree::star(3, &[0, 1, 2]));
        let wide: Vec<u32> = (0..500).collect();
        round_trip(&ViewTree::star(777, &wide));
    }

    #[test]
    fn deep_chain_round_trips() {
        // A path tree: attach stars end to end so depths accumulate.
        let mut t = ViewTree::star(0, &[1]);
        for v in 1..40u32 {
            let leaf = t
                .leaves_at_depth(v)
                .find(|&x| t.vertex(x) == v as usize)
                .unwrap();
            t.attach(&[(leaf, &ViewTree::star(v as usize, &[v - 1, v + 1]))]);
        }
        round_trip(&t);
    }

    #[test]
    fn star_compresses_well_below_flat() {
        let neighbors: Vec<u32> = (0..128).collect();
        let t = ViewTree::star(5, &neighbors);
        // Flat: 2 × 129 = 258 words. Encoded: every vertex id and every
        // parent delta is one byte, so ~131 bytes ≈ 17 words.
        assert!(encoded_words(&t) * 4 < t.flat_wire_words());
    }

    #[test]
    fn truncated_and_malformed_streams_rejected() {
        let t = ViewTree::star(2, &[0, 1, 3, 4]);
        let words = encode(&t);
        assert_eq!(decode(&words[..words.len() - 1]), Err(WireError::Truncated));
        assert_eq!(decode(&[]), Err(WireError::Truncated));
        // Node count 0.
        assert_eq!(
            decode(&[0u64]),
            Err(WireError::Malformed("zero node count"))
        );
        // Claimed count far beyond the stream.
        assert_eq!(decode(&[0xffu64]), Err(WireError::Truncated));
        // Nonzero padding after the payload.
        let mut dirty = encode(&ViewTree::singleton(1));
        *dirty.last_mut().unwrap() |= 0xff00_0000_0000_0000;
        assert!(matches!(decode(&dirty), Err(WireError::Malformed(_))));
        // Extra all-zero word past the payload.
        let mut long = encode(&ViewTree::singleton(1));
        long.push(0);
        assert!(matches!(decode(&long), Err(WireError::Malformed(_))));
    }

    #[test]
    fn forward_parent_rejected() {
        // Hand-build: n=2, vertices [0, 1], parent delta zigzag(1)=2 → parent
        // of node 1 would be 1 (itself): out of topological order.
        let bytes = [2u8, 0, 1, 2];
        let mut word = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            word |= (b as u64) << (i * 8);
        }
        assert_eq!(
            decode(&[word]),
            Err(WireError::Malformed("parent out of topological order"))
        );
    }
}
