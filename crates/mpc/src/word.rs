//! Word-size accounting.
//!
//! The MPC model measures memory and communication in *words* of `O(log n)`
//! bits — one word describes a vertex id, an edge endpoint, a layer number,
//! etc. (paper §1.1). Everything the simulator meters implements
//! [`WordSized`]; exchanges move values in-process and charge their
//! `words()`, so no message is ever serialized.

/// Types whose transmission/storage cost in MPC words is known.
///
/// Implementations must be consistent: the same value always reports the
/// same size, and container impls sum their elements.
///
/// # Examples
///
/// ```
/// use dgo_mpc::WordSized;
///
/// assert_eq!(5u32.words(), 1);
/// assert_eq!((1u64, 2u64).words(), 2);
/// assert_eq!(vec![1u32, 2, 3].words(), 3);
/// ```
pub trait WordSized {
    /// Size of this value in MPC words.
    fn words(&self) -> usize;
}

macro_rules! impl_word_sized_scalar {
    ($($t:ty),*) => {
        $(impl WordSized for $t {
            fn words(&self) -> usize { 1 }
        })*
    };
}

impl_word_sized_scalar!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl<A: WordSized, B: WordSized> WordSized for (A, B) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words()
    }
}

impl<A: WordSized, B: WordSized, C: WordSized> WordSized for (A, B, C) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words() + self.2.words()
    }
}

impl<A: WordSized, B: WordSized, C: WordSized, D: WordSized> WordSized for (A, B, C, D) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words() + self.2.words() + self.3.words()
    }
}

impl<T: WordSized> WordSized for Vec<T> {
    fn words(&self) -> usize {
        self.iter().map(WordSized::words).sum()
    }
}

impl<T: WordSized> WordSized for &T {
    fn words(&self) -> usize {
        (*self).words()
    }
}

impl<T: WordSized> WordSized for Option<T> {
    fn words(&self) -> usize {
        // An Option always costs at least the discriminant word.
        1 + self.as_ref().map_or(0, WordSized::words)
    }
}

/// Total word count of a slice of sized values.
pub fn total_words<T: WordSized>(items: &[T]) -> usize {
    items.iter().map(WordSized::words).sum()
}

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
    fn scalars_are_one_word() {
        assert_eq!(0u8.words(), 1);
        assert_eq!(u64::MAX.words(), 1);
        assert_eq!(true.words(), 1);
        assert_eq!((-3i64).words(), 1);
    }

    #[test]
    fn tuples_sum() {
        assert_eq!((1u32, 2u32).words(), 2);
        assert_eq!((1u32, 2u32, 3u32).words(), 3);
        assert_eq!((1u32, 2u32, 3u32, 4u32).words(), 4);
        assert_eq!(((1u32, 2u32), 3u32).words(), 3);
    }

    #[test]
    fn vec_sums_elements() {
        let v: Vec<(u32, u32)> = vec![(1, 2), (3, 4)];
        assert_eq!(v.words(), 4);
        let empty: Vec<u32> = vec![];
        assert_eq!(empty.words(), 0);
    }

    #[test]
    fn option_counts_discriminant() {
        assert_eq!(None::<u32>.words(), 1);
        assert_eq!(Some(7u32).words(), 2);
    }

    #[test]
    fn total_words_over_slice() {
        assert_eq!(total_words(&[1u32, 2, 3]), 3);
        assert_eq!(total_words::<u32>(&[]), 0);
    }

    #[test]
    fn reference_delegates() {
        let x = 5u64;
        assert_eq!(x.words(), 1);
    }

    #[test]
    fn packed_words_rounds_up() {
        assert_eq!(packed_words(0), 0);
        assert_eq!(packed_words(1), 1);
        assert_eq!(packed_words(BYTES_PER_WORD), 1);
        assert_eq!(packed_words(BYTES_PER_WORD + 1), 2);
        assert_eq!(packed_words(5 * BYTES_PER_WORD), 5);
    }
}
