//! Per-machine lists in one flat buffer.
//!
//! A round's traffic is a list per machine, and a cluster sized for the
//! paper's `Θ(n·B + m)` global memory at `S = n^δ` words per machine has
//! more machines than most rounds have messages. [`PerMachine`] keeps the
//! lists in one array plus one offset per *stored* machine (compressed
//! sparse rows) under a declared width: the lists after the last one pushed
//! are implicitly empty. Building, routing and tallying a
//! round therefore touches only the machines up to the last one that sends
//! or receives, plus a constant number of moves per item — never an integer
//! per machine of the cluster, nor a heap buffer per machine.

use std::ops::Index;

/// Per-machine lists stored flat under a declared width: machine `i`'s list
/// is `items[offsets[i]..offsets[i + 1]]` for the stored machines
/// `i < offsets.len() − 1`, and empty for the rest of the width.
///
/// An exchange takes its outbox as `PerMachine<(destination, payload)>`,
/// one list per source in production order, and returns its inbox as
/// `PerMachine<payload>`, one list per destination in `(source,
/// production)` order. Equality compares the logical lists, so an empty
/// list pushed explicitly equals an implicit one.
///
/// # Examples
///
/// ```
/// use dgo_mpc::PerMachine;
///
/// let mut lists = PerMachine::with_capacity(4, 3);
/// lists.push_machine([10u64, 11]);
/// lists.push_machine([]);
/// lists.push_machine([30]);
/// // Machine 3 was never pushed: its list is empty.
/// assert_eq!(lists.num_machines(), 4);
/// assert_eq!(lists[0], [10, 11]);
/// assert!(lists[1].is_empty() && lists[3].is_empty());
/// assert_eq!(lists, PerMachine::from(vec![vec![10, 11], vec![], vec![30], vec![]]));
/// ```
#[derive(Debug, Clone)]
pub struct PerMachine<T> {
    /// The declared number of machines, at least the stored ones.
    width: usize,
    /// One more than the stored machines: nondecreasing offsets from 0 to
    /// `items.len()`.
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T> PerMachine<T> {
    /// `machines` empty lists, with room for `items` entries in total;
    /// append lists in machine order with
    /// [`push_machine`](PerMachine::push_machine). Only the pushed lists
    /// take memory, so a wide cluster costs nothing up front.
    pub fn with_capacity(machines: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(machines.min(items) + 1);
        offsets.push(0);
        PerMachine {
            width: machines,
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Sets the next machine's list: the first call fills machine 0, the
    /// next machine 1, and so on. Pushing past the declared width widens it.
    pub fn push_machine(&mut self, list: impl IntoIterator<Item = T>) {
        self.items.extend(list);
        self.offsets.push(self.items.len());
        self.width = self.width.max(self.stored());
    }

    /// Number of machines (lists), the declared width.
    pub fn num_machines(&self) -> usize {
        self.width
    }

    /// Machines whose lists are stored; every later list is empty.
    fn stored(&self) -> usize {
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

    /// The lists of all [`num_machines`](PerMachine::num_machines)
    /// machines, in machine order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.width).map(move |machine| &self[machine])
    }

    /// The stored lists, in machine order: a prefix of
    /// [`iter`](PerMachine::iter) after which every list is empty. Metering
    /// walks this, so its cost follows the machines that hold something.
    pub(crate) fn stored_lists(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.offsets
            .windows(2)
            .map(|bounds| &self.items[bounds[0]..bounds[1]])
    }
}

impl<T> PerMachine<(usize, T)> {
    /// Regroups `(destination, payload)` messages by destination into
    /// `destinations` lists: a stable counting sort, so each destination's
    /// list keeps `(source, production)` order. Only the first `used`
    /// destinations are stored — `used` is one more than the largest
    /// destination, which the exchange's validation pass already knows — so
    /// routing costs one offset per stored destination, one slot per
    /// message, and two moves per message. Each pass is sequential but for
    /// the scatter's writes, so no chain of dependent cache misses forms.
    ///
    /// # Panics
    ///
    /// If `used > destinations` or a destination is `used` or more;
    /// exchanges validate destinations first.
    pub(crate) fn route(self, destinations: usize, used: usize) -> PerMachine<T> {
        assert!(used <= destinations, "more destinations used than exist");
        // offsets[d + 1] counts the messages to d; the prefix sums then make
        // offsets[d] the first slot of d's list.
        let mut offsets = vec![0usize; used + 1];
        for &(dst, _) in &self.items {
            offsets[dst + 1] += 1;
        }
        for d in 0..used {
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
        offsets.copy_within(0..used, 1);
        offsets[0] = 0;
        let items = slots
            .into_iter()
            .map(|slot| slot.expect("the counting sort fills every slot once"))
            .collect();
        PerMachine {
            width: destinations,
            offsets,
            items,
        }
    }
}

impl<T> Index<usize> for PerMachine<T> {
    type Output = [T];

    /// Machine `machine`'s list.
    ///
    /// # Panics
    ///
    /// If `machine` is not below [`num_machines`](PerMachine::num_machines).
    fn index(&self, machine: usize) -> &[T] {
        if machine < self.stored() {
            &self.items[self.offsets[machine]..self.offsets[machine + 1]]
        } else {
            assert!(
                machine < self.width,
                "machine {machine} out of range for {} machines",
                self.width
            );
            &[]
        }
    }
}

impl<T: PartialEq> PartialEq for PerMachine<T> {
    /// Equal widths and equal lists, however many of them are stored.
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for PerMachine<T> {}

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
        let inbox = outbox.route(5, 3);
        assert_eq!(
            inbox,
            PerMachine::from(vec![
                vec!['b', 'f'],
                vec!['d'],
                vec!['a', 'c', 'e'],
                vec![],
                vec![]
            ])
        );
    }

    #[test]
    fn accessors_agree_with_the_lists() {
        let lists = PerMachine::from(vec![vec![1u8], vec![], vec![2, 3]]);
        assert_eq!(lists.num_machines(), 3);
        assert_eq!(lists.len(), 3);
        assert!(!lists.is_empty());
        let collected: Vec<&[u8]> = lists.iter().collect();
        assert_eq!(collected, [&[1u8][..], &[], &[2, 3]]);
        assert!(PerMachine::<u8>::from(vec![vec![], vec![]]).is_empty());
    }
}
