//! Word-size accounting.
//!
//! The MPC model measures memory and communication in *words* of `O(log n)`
//! bits — one word describes a vertex id, an edge endpoint, a layer number,
//! etc. (paper §1.1). Algorithms charge word counts they derive from what
//! they hold; this module packs byte-granular streams into words.

/// Bytes one MPC word carries when a byte-granular stream (e.g. the view-tree
/// varint encoding `dgo_core::ViewTree::wire_words` sizes) is packed into the
/// word model: the model's `O(log n)` words are realized as `u64` here, so
/// eight bytes ride per word.
pub const BYTES_PER_WORD: usize = 8;

/// Words a packed byte stream of `bytes` bytes occupies: the stream is laid
/// into whole words ([`BYTES_PER_WORD`] bytes each), the last word
/// zero-padded — the charging rule for byte-granular wire encodings.
pub const fn packed_words(bytes: usize) -> usize {
    bytes.div_ceil(BYTES_PER_WORD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_words_rounds_up() {
        assert_eq!(packed_words(0), 0);
        assert_eq!(packed_words(1), 1);
        assert_eq!(packed_words(BYTES_PER_WORD), 1);
        assert_eq!(packed_words(BYTES_PER_WORD + 1), 2);
        assert_eq!(packed_words(5 * BYTES_PER_WORD), 5);
    }
}
