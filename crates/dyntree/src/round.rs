//! A `u32`-valued table over dense ids that is emptied in `O(1)` by starting a new round.
//!
//! Batch queries need a memo that is valid for one batch only: the representative round of the
//! Euler-tour forest ([`crate::euler::ReprRound`]) remembers the root every visited treap node
//! resolved to, the deletion algorithms of `dynsld` label the union of the affected spines, and
//! the MSF scan backend marks the pieces of a cut it has enumerated. Clearing such a memo between
//! batches would cost `O(n)`; instead every slot carries the number of the round that wrote it
//! and a slot written in an earlier round reads as empty.

/// A map `id -> u32` over dense ids, forgotten wholesale by [`RoundTable::begin_round`].
///
/// Costs 8 bytes per addressable id. A fresh table has no round in progress: call
/// [`begin_round`](Self::begin_round) before the first [`set`](Self::set).
#[derive(Clone, Debug, Default)]
pub struct RoundTable {
    /// `(round that wrote the slot, value)`; round 0 is never current, so zeroed slots are empty.
    slots: Vec<(u32, u32)>,
    round: u32,
}

impl RoundTable {
    /// Creates an empty table (allocates nothing until the first round).
    pub fn new() -> Self {
        Self::default()
    }

    /// A table whose next round is number `round + 1`, so tests reach the wrap-around without
    /// running four billion rounds.
    #[cfg(test)]
    pub(crate) fn starting_at(round: u32) -> Self {
        RoundTable {
            slots: Vec::new(),
            round,
        }
    }

    /// Forgets every entry and makes the ids `< len` addressable.
    pub fn begin_round(&mut self, len: usize) {
        self.round = self.round.wrapping_add(1);
        if self.round == 0 {
            // The counter wrapped: a slot written 2^32 rounds ago would read as current.
            self.slots.fill((0, 0));
            self.round = 1;
        }
        if self.slots.len() < len {
            self.slots.resize(len, (0, 0));
        }
    }

    /// The value stored for `id` in the current round, if any.
    #[inline]
    pub fn get(&self, id: usize) -> Option<u32> {
        let (round, value) = self.slots[id];
        (round == self.round).then_some(value)
    }

    /// Stores `value` for `id` in the current round.
    #[inline]
    pub fn set(&mut self, id: usize, value: u32) {
        self.slots[id] = (self.round, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_round_forgets_every_entry_and_grows_on_demand() {
        let mut t = RoundTable::new();
        t.begin_round(3);
        assert_eq!(t.get(1), None);
        t.set(1, 7);
        t.set(2, 0);
        assert_eq!((t.get(0), t.get(1), t.get(2)), (None, Some(7), Some(0)));
        t.begin_round(5);
        assert!((0..5).all(|i| t.get(i).is_none()));
        t.set(4, 9);
        assert_eq!(t.get(4), Some(9));
    }

    #[test]
    fn wrap_around_does_not_resurrect_old_entries() {
        // Round numbers run MAX - 1 -> MAX -> (wrap, cleared) 1: the entry written in round 1
        // of a previous cycle must not read as current.
        let mut t = RoundTable::starting_at(0);
        t.begin_round(2); // round 1
        t.set(0, 41);
        t.round = u32::MAX - 1;
        t.begin_round(2); // round MAX
        assert_eq!(t.get(0), None);
        t.set(1, 5);
        t.begin_round(2); // wraps to round 1 again
        assert_eq!((t.get(0), t.get(1)), (None, None));
        t.set(0, 3);
        assert_eq!(t.get(0), Some(3));
    }
}
