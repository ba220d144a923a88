//! Wire-codec conformance. `ViewTree::wire_words` charges every Lemma 4.1
//! bundle at the length of the delta/varint encoding of the tree's two wire
//! columns, `vertex` and `parent`:
//!
//! ```text
//! varint(n) · varint(vertex[0..n]) · zigzag-varint(Δ parent[1..n])
//! ```
//!
//! packed eight bytes per word. The library only ever needs that length, so
//! the encoder and the strict decoder live here, as the oracle showing that
//! the metered size is achievable and the encoding lossless: every tree
//! encodes to exactly `wire_words()` words, always beats the flat
//! 2-words-per-node baseline and decodes back to its two columns (which
//! determine the whole tree; `property_invariants` checks that for every
//! constructor), and any corrupt stream is rejected. Bundles meter
//! identically at every host-thread budget — compression changes the
//! communication *accounting*, never the computed results.

use dgo::core::{exponentiate_and_prune_staged, StageExecutor, ViewTree};
use dgo::graph::generators::gnm;
use dgo::mpc::{ClusterConfig, SequentialBackend, BYTES_PER_WORD};
use proptest::prelude::*;

/// Longest legal varint for a `u64`: ⌈64 / 7⌉ bytes.
const MAX_VARINT_BYTES: usize = 10;

/// Decoding failure: the word stream is not a canonical [`encode`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireError {
    /// The stream ended inside a varint or before the declared node count
    /// was satisfied.
    Truncated,
    /// The stream violates a structural rule (reason attached): zero node
    /// count, a parent pointing at itself or forward, varint overflow, or
    /// trailing garbage past the payload.
    Malformed(&'static str),
}

/// The two wire columns of a tree: every node's image, and the parent of
/// every node past the root, in arena order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Columns {
    vertex: Vec<u32>,
    parent: Vec<u32>,
}

/// Reads the wire columns off `tree`'s public accessors.
fn columns(tree: &ViewTree) -> Columns {
    Columns {
        vertex: tree.node_ids().map(|x| tree.vertex(x) as u32).collect(),
        parent: tree
            .node_ids()
            .skip(1)
            .map(|x| tree.parent(x).expect("only the root has no parent"))
            .collect(),
    }
}

/// Appends the LEB128 varint of `x` — the codec's integer format.
fn push_varint(bytes: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        bytes.push((x & 0x7f) as u8 | 0x80);
        x >>= 7;
    }
    bytes.push(x as u8);
}

/// Sign-folds a delta so small magnitudes of either sign stay small.
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Packs a byte stream eight bytes per word, little-endian, zero-padding the
/// last word — the codec's word format.
fn pack(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(BYTES_PER_WORD)
        .map(|word| {
            word.iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | (b as u64) << (8 * i))
        })
        .collect()
}

/// Encodes the wire columns into the packed word stream.
fn encode(columns: &Columns) -> Vec<u64> {
    let mut bytes = Vec::new();
    push_varint(&mut bytes, columns.vertex.len() as u64);
    for &v in &columns.vertex {
        push_varint(&mut bytes, v as u64);
    }
    let mut prev = 0i64;
    for &p in &columns.parent {
        push_varint(&mut bytes, zigzag(p as i64 - prev));
        prev = p as i64;
    }
    pack(&bytes)
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

/// Decodes a word stream produced by [`encode`] back into the wire columns.
///
/// Strict: the stream must be canonical — correct node count, parents in
/// topological order (every parent precedes its child), and nothing but zero
/// padding after the payload — so any corruption surfaces as a
/// [`WireError`] instead of silently different columns.
fn decode(words: &[u64]) -> Result<Columns, WireError> {
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
    let mut parent = Vec::with_capacity(n - 1);
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
    Ok(Columns { vertex, parent })
}

/// Deterministically grows a random tree from a seed: start from a root and
/// keep splicing star-shaped subtrees onto randomly chosen leaves. Covers
/// singletons (`growth = 0`), stars, chains, and bushy mixtures.
fn derived_tree(seed: u64, growth: usize) -> ViewTree {
    let mut rng = seed | 1;
    let mut next = move || {
        // xorshift64* — cheap, deterministic, good enough for shapes.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut vertex_counter = (next() % 1_000_000) as u32;
    let mut fresh = move || {
        vertex_counter = vertex_counter.wrapping_add(1 + (next() % 97) as u32);
        vertex_counter
    };
    let mut tree = ViewTree::singleton(fresh() as usize);
    for _ in 0..growth {
        let leaves: Vec<u32> = tree
            .node_ids()
            .filter(|&x| tree.num_children(x) == 0)
            .collect();
        let leaf = leaves[(next() % leaves.len() as u64) as usize];
        let fanout = 1 + (next() % 4) as usize;
        let kids: Vec<u32> = (0..fanout).map(|_| fresh()).collect();
        let star = ViewTree::star(tree.vertex(leaf), &kids);
        tree.attach(&[(leaf, &star)]);
    }
    tree
}

/// Round-trips `tree`'s wire columns through the codec and checks the size
/// claims.
fn assert_round_trip(tree: &ViewTree) {
    let columns = columns(tree);
    let words = encode(&columns);
    assert_eq!(
        words.len(),
        tree.wire_words(),
        "the metered size must be the encoded length"
    );
    assert_eq!(
        decode(&words),
        Ok(columns),
        "decode(encode(t)) must reproduce t's wire columns"
    );
    // Every u32 varint is at most 5 bytes, so the stream is strictly below
    // the flat baseline of 16 bytes per node.
    assert!(
        words.len() < tree.flat_wire_words(),
        "wire ({}) must beat flat ({}) on {} nodes",
        words.len(),
        tree.flat_wire_words(),
        tree.len()
    );
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
    assert_round_trip(&ViewTree::singleton(0));
    assert_round_trip(&ViewTree::singleton((u32::MAX - 1) as usize));
    assert_round_trip(&ViewTree::star(7, &[1, 2, 3, 4, 5]));
    assert_round_trip(&ViewTree::star(0, &[u32::MAX - 1]));
}

#[test]
fn small_ids_and_wide_star_round_trip() {
    assert_round_trip(&ViewTree::singleton(0));
    assert_round_trip(&ViewTree::singleton(1_000_000));
    assert_round_trip(&ViewTree::star(3, &[0, 1, 2]));
    let wide: Vec<u32> = (0..500).collect();
    assert_round_trip(&ViewTree::star(777, &wide));
}

#[test]
fn deep_chain_round_trips() {
    let mut tree = ViewTree::singleton(0);
    for v in 1..=200u32 {
        let leaf = tree.node_ids().last().unwrap();
        let star = ViewTree::star(tree.vertex(leaf), &[v]);
        tree.attach(&[(leaf, &star)]);
    }
    assert_round_trip(&tree);
}

#[test]
fn backtracking_path_round_trips() {
    // A path whose every step also keeps a leaf back to its predecessor:
    // depths accumulate and parent deltas change sign.
    let mut tree = ViewTree::star(0, &[1]);
    for v in 1..40u32 {
        let leaf = tree
            .leaves_at_depth(v)
            .find(|&x| tree.vertex(x) == v as usize)
            .unwrap();
        tree.attach(&[(leaf, &ViewTree::star(v as usize, &[v - 1, v + 1]))]);
    }
    assert_round_trip(&tree);
}

#[test]
fn truncated_and_malformed_streams_rejected() {
    let words = encode(&columns(&ViewTree::star(2, &[0, 1, 3, 4])));
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
    let singleton = columns(&ViewTree::singleton(1));
    let mut dirty = encode(&singleton);
    *dirty.last_mut().unwrap() |= 0xff00_0000_0000_0000;
    assert!(matches!(decode(&dirty), Err(WireError::Malformed(_))));
    // Extra all-zero word past the payload.
    let mut long = encode(&singleton);
    long.push(0);
    assert!(matches!(decode(&long), Err(WireError::Malformed(_))));
}

#[test]
fn forward_parent_rejected() {
    // n = 2, vertices [0, 1], parent delta zigzag(1) = 2: the parent of node
    // 1 would be 1 (itself), out of topological order.
    assert_eq!(
        decode(&pack(&[2, 0, 1, 2])),
        Err(WireError::Malformed("parent out of topological order"))
    );
}

/// A parent delta whose zigzag decodes to `i64::MAX` overflows the running
/// parent sum: a typed error in every build profile, not an arithmetic
/// panic in debug builds.
#[test]
fn overflowing_parent_delta_is_malformed() {
    // n = 4, four zero images, parent deltas 0 and +1, then zigzag(i64::MAX).
    let mut bytes = vec![4u8, 0, 0, 0, 0, 0, 2];
    push_varint(&mut bytes, u64::MAX - 1);
    let words = pack(&bytes);
    assert_eq!(words.len(), 3);
    assert_eq!(
        decode(&words),
        Err(WireError::Malformed("parent out of topological order"))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overwriting one parent delta of a valid stream with an arbitrary
    /// `u64` never makes `decode` panic: it returns an error, or columns that
    /// re-encode to exactly the corrupted stream (the codec is canonical).
    #[test]
    fn corrupted_parent_delta_never_panics(
        seed in any::<u64>(),
        growth in 1usize..16,
        slot in any::<usize>(),
        delta in any::<u64>(),
    ) {
        let tree = derived_tree(seed, growth);
        let n = tree.len();
        let slot = 1 + slot % (n - 1);
        let columns = columns(&tree);
        let mut bytes = Vec::new();
        push_varint(&mut bytes, n as u64);
        for &v in &columns.vertex {
            push_varint(&mut bytes, v as u64);
        }
        let mut prev = 0i64;
        for (x, &parent) in (1..n).zip(&columns.parent) {
            let parent = parent as i64;
            push_varint(&mut bytes, if x == slot { delta } else { zigzag(parent - prev) });
            prev = parent;
        }
        let words = pack(&bytes);
        if let Ok(decoded) = decode(&words) {
            prop_assert_eq!(encode(&decoded), words);
        }
    }

    #[test]
    fn arbitrary_trees_round_trip(seed in any::<u64>(), growth in 0usize..24) {
        assert_round_trip(&derived_tree(seed, growth));
    }

    /// A stream missing its last word never decodes — the codec cannot claim
    /// success on a garbage length.
    #[test]
    fn truncation_always_detected(seed in any::<u64>(), growth in 1usize..16) {
        let words = encode(&columns(&derived_tree(seed, growth)));
        prop_assert!(decode(&words[..words.len() - 1]).is_err() || words.len() == 1);
        prop_assert!(decode(&[]).is_err());
    }
}

/// The bundle meters are recorded by the algorithm layer, so every
/// host-thread budget must report byte-for-byte identical trees and wire and
/// flat word counts — and the wire figure must be strictly below flat
/// whenever bundles ship at all.
#[test]
fn bundle_meters_identical_across_jobs() {
    let g = gnm(48, 140, 11);
    let config = ClusterConfig::new(512, 4096);
    let mut reference = None;
    for jobs in [1usize, 2, 0] {
        let stage = StageExecutor::new(jobs);
        let mut backend = SequentialBackend::new(config);
        let out = exponentiate_and_prune_staged(&g, 64, 2, 3, &mut backend, &stage).unwrap();
        let m = backend.into_metrics();
        assert!(m.bundle_flat_words > 0, "workload must ship bundles");
        assert!(m.bundle_wire_words > 0);
        assert!(
            m.bundle_wire_words < m.bundle_flat_words,
            "wire {} must beat flat {}",
            m.bundle_wire_words,
            m.bundle_flat_words
        );
        assert!(m.bundle_wire_words <= m.total_comm_words);
        match &reference {
            None => reference = Some((out.trees, m)),
            Some((trees, metrics)) => {
                assert_eq!(trees, &out.trees, "jobs {jobs}: trees differ from jobs 1");
                assert_eq!(metrics, &m, "jobs {jobs}: metrics differ from jobs 1");
            }
        }
    }
}
