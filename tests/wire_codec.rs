//! Wire-codec conformance: the delta/varint bundle format (`dgo::core::wire`)
//! must round-trip every view tree losslessly, always beat the flat
//! 2-words-per-node baseline, and meter identically at every host-thread
//! budget — compression changes the communication *accounting*, never the
//! computed results.

use dgo::core::wire;
use dgo::core::{exponentiate_and_prune_staged, StageExecutor, ViewTree};
use dgo::graph::generators::gnm;
use dgo::mpc::{ClusterConfig, SequentialBackend};
use proptest::prelude::*;

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

/// Appends the LEB128 varint of `x` — the codec's integer format.
fn push_varint(bytes: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        bytes.push((x & 0x7f) as u8 | 0x80);
        x >>= 7;
    }
    bytes.push(x as u8);
}

/// Packs a byte stream eight bytes per word, little-endian, zero-padding the
/// last word — the codec's word format.
fn pack(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|word| {
            word.iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | (b as u64) << (8 * i))
        })
        .collect()
}

/// Round-trips `tree` through the codec and checks the size claims.
fn assert_round_trip(tree: &ViewTree) {
    let words = wire::encode(tree);
    assert_eq!(
        words.len(),
        wire::encoded_words(tree),
        "sizing pass must match the materialized encoding"
    );
    let decoded = wire::decode(&words).expect("encoded stream decodes");
    assert_eq!(&decoded, tree, "decode(encode(t)) must reproduce t");
    // Every u32 varint is at most 5 bytes, so the stream is strictly below
    // the flat baseline of 16 bytes per node.
    assert!(
        words.len() < tree.flat_wire_words() || tree.is_empty(),
        "wire ({}) must beat flat ({}) on {} nodes",
        words.len(),
        tree.flat_wire_words(),
        tree.len()
    );
}

#[test]
fn singleton_and_star_round_trip() {
    assert_round_trip(&ViewTree::singleton(0));
    assert_round_trip(&ViewTree::singleton((u32::MAX - 1) as usize));
    assert_round_trip(&ViewTree::star(7, &[1, 2, 3, 4, 5]));
    assert_round_trip(&ViewTree::star(0, &[u32::MAX - 1]));
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
        wire::decode(&words),
        Err(wire::WireError::Malformed(
            "parent out of topological order"
        ))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overwriting one parent delta of a valid stream with an arbitrary
    /// `u64` never makes `decode` panic: it returns an error, or a tree that
    /// re-encodes to exactly the corrupted stream (the codec is canonical).
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
        let mut bytes = Vec::new();
        push_varint(&mut bytes, n as u64);
        for x in tree.node_ids() {
            push_varint(&mut bytes, tree.vertex(x) as u64);
        }
        let mut prev = 0i64;
        for x in 1..n as u32 {
            let parent = tree.parent(x).expect("only the root has no parent") as i64;
            let zigzag = ((parent - prev) << 1 ^ (parent - prev) >> 63) as u64;
            push_varint(&mut bytes, if x as usize == slot { delta } else { zigzag });
            prev = parent;
        }
        let words = pack(&bytes);
        if let Ok(decoded) = wire::decode(&words) {
            prop_assert_eq!(wire::encode(&decoded), words);
        }
    }

    #[test]
    fn arbitrary_trees_round_trip(seed in any::<u64>(), growth in 0usize..24) {
        assert_round_trip(&derived_tree(seed, growth));
    }

    /// Corrupting any single byte of the stream either fails decoding or
    /// decodes to a *different* tree — never silently the same one with the
    /// codec claiming success on garbage lengths.
    #[test]
    fn truncation_always_detected(seed in any::<u64>(), growth in 1usize..16) {
        let tree = derived_tree(seed, growth);
        let words = wire::encode(&tree);
        prop_assert!(wire::decode(&words[..words.len() - 1]).is_err() || words.len() == 1);
        prop_assert!(wire::decode(&[]).is_err());
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
