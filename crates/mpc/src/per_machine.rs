//! Per-machine lists in one flat buffer.
//!
//! A round's traffic is a list per machine, and a cluster sized for the
//! paper's `Θ(n·B + m)` global memory at `S = n^δ` words per machine has
//! more machines than most rounds have messages. [`PerMachine`] keeps every
//! list in one array plus one offset per machine (compressed sparse rows),
//! so building, routing and reading a round costs one integer per machine
//! and a constant number of moves per item — never a heap buffer per
//! machine.

use std::ops::Index;

/// Per-machine lists stored flat: machine `i`'s list is
/// `items[offsets[i]..offsets[i + 1]]`.
///
/// An exchange takes its outbox as `PerMachine<(destination, payload)>`,
/// one list per source in production order, and returns its inbox as
/// `PerMachine<payload>`, one list per destination in `(source,
/// production)` order.
///
/// # Examples
///
/// ```
/// use dgo_mpc::PerMachine;
///
/// let mut lists = PerMachine::with_capacity(3, 3);
/// lists.push_machine([10u64, 11]);
/// lists.push_machine([]);
/// lists.push_machine([30]);
/// assert_eq!(lists.num_machines(), 3);
/// assert_eq!(lists[0], [10, 11]);
/// assert!(lists[1].is_empty());
/// assert_eq!(lists, PerMachine::from(vec![vec![10, 11], vec![], vec![30]]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerMachine<T> {
    /// `num_machines() + 1` nondecreasing offsets, from 0 to `items.len()`.
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> PerMachine<T> {
    /// No lists yet, with room for `machines` lists holding `items` entries
    /// in total; append the lists in machine order with
    /// [`push_machine`](PerMachine::push_machine).
    pub fn with_capacity(machines: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(machines + 1);
        offsets.push(0);
        PerMachine {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Appends the next machine's list.
    pub fn push_machine(&mut self, list: impl IntoIterator<Item = T>) {
        self.items.extend(list);
        self.offsets.push(self.items.len());
    }

    /// Number of machines (lists).
    pub fn num_machines(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Entries over all machines.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether every list is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Every list, concatenated in machine order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The lists in machine order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.offsets
            .windows(2)
            .map(|bounds| &self.items[bounds[0]..bounds[1]])
    }

    /// Applies `f` to every entry, keeping each in its machine's list.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> PerMachine<U> {
        PerMachine {
            offsets: self.offsets,
            items: self.items.into_iter().map(f).collect(),
        }
    }

    /// Rewrites every list in place: `f` may reorder or overwrite the list
    /// and returns how many leading entries to keep. The rest are dropped
    /// and the kept entries close up, so no list is reallocated.
    pub(crate) fn retain_prefixes(&mut self, mut f: impl FnMut(&mut [T]) -> usize) {
        let (mut start, mut write) = (0, 0);
        for machine in 1..self.offsets.len() {
            let end = self.offsets[machine];
            let kept = f(&mut self.items[start..end]);
            assert!(kept <= end - start, "kept more entries than the list has");
            // The write cursor never passes the read position, so moving
            // the kept entries forward one by one is a rotation.
            if write < start {
                for i in 0..kept {
                    self.items.swap(write + i, start + i);
                }
            }
            write += kept;
            self.offsets[machine] = write;
            start = end;
        }
        self.items.truncate(write);
    }
}

impl<T> PerMachine<(usize, T)> {
    /// Regroups `(destination, payload)` messages by destination: a stable
    /// counting sort, so each destination's list keeps `(source,
    /// production)` order. Costs `destinations + 1` offsets, one slot per
    /// message, and two moves per message: each pass is sequential but for
    /// the scatter's writes, so no chain of dependent cache misses forms.
    ///
    /// # Panics
    ///
    /// If a destination is `destinations` or more; exchanges validate
    /// destinations first.
    pub(crate) fn route(self, destinations: usize) -> PerMachine<T> {
        // offsets[d + 1] counts the messages to d; the prefix sums then make
        // offsets[d] the first slot of d's list.
        let mut offsets = vec![0usize; destinations + 1];
        for &(dst, _) in &self.items {
            offsets[dst + 1] += 1;
        }
        for d in 0..destinations {
            offsets[d + 1] += offsets[d];
        }
        // Scatter in (source, production) order with offsets[d] as d's
        // cursor; it ends on d's end, the start of d + 1.
        let mut slots: Vec<Option<T>> = Vec::with_capacity(self.items.len());
        slots.resize_with(self.items.len(), || None);
        for (dst, payload) in self.items {
            let cursor = &mut offsets[dst];
            slots[*cursor] = Some(payload);
            *cursor += 1;
        }
        offsets.copy_within(0..destinations, 1);
        offsets[0] = 0;
        let items = slots
            .into_iter()
            .map(|slot| slot.expect("the counting sort fills every slot once"))
            .collect();
        PerMachine { offsets, items }
    }
}

impl<T> Index<usize> for PerMachine<T> {
    type Output = [T];

    fn index(&self, machine: usize) -> &[T] {
        &self.items[self.offsets[machine]..self.offsets[machine + 1]]
    }
}

impl<T> From<Vec<Vec<T>>> for PerMachine<T> {
    fn from(lists: Vec<Vec<T>>) -> Self {
        let total = lists.iter().map(Vec::len).sum();
        let mut out = PerMachine::with_capacity(lists.len(), total);
        for list in lists {
            out.push_machine(list);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_a_stable_counting_sort() {
        let outbox = PerMachine::from(vec![
            vec![(2, 'a'), (0, 'b'), (2, 'c')],
            vec![],
            vec![(1, 'd'), (2, 'e'), (0, 'f')],
        ]);
        let inbox = outbox.route(4);
        assert_eq!(
            inbox,
            PerMachine::from(vec![vec!['b', 'f'], vec!['d'], vec!['a', 'c', 'e'], vec![]])
        );
    }

    #[test]
    fn retain_prefixes_closes_gaps() {
        let mut lists = PerMachine::from(vec![vec![5, 1, 5], vec![], vec![7, 7, 7, 2], vec![9]]);
        // Keep each list's distinct values, sorted.
        lists.retain_prefixes(|list| {
            list.sort_unstable();
            let mut kept = 0;
            for i in 0..list.len() {
                if kept == 0 || list[kept - 1] != list[i] {
                    list[kept] = list[i];
                    kept += 1;
                }
            }
            kept
        });
        assert_eq!(
            lists,
            PerMachine::from(vec![vec![1, 5], vec![], vec![2, 7], vec![9]])
        );
        assert_eq!(lists.items(), [1, 5, 2, 7, 9]);
    }

    #[test]
    fn accessors_agree_with_the_lists() {
        let lists = PerMachine::from(vec![vec![1u8], vec![], vec![2, 3]]);
        assert_eq!(lists.num_machines(), 3);
        assert_eq!(lists.len(), 3);
        assert!(!lists.is_empty());
        let collected: Vec<&[u8]> = lists.iter().collect();
        assert_eq!(collected, [&[1u8][..], &[], &[2, 3]]);
        assert_eq!(lists.clone().map(u32::from)[2], [2u32, 3]);
        assert!(PerMachine::<u8>::from(vec![vec![], vec![]]).is_empty());
    }
}
