//! The flush queue: the accounts absorbed since their last flush, and
//! what the next flush that collects each one owes the storage files.
//!
//! It holds no values. Absorb writes every value into the
//! [`FlatIndex`](crate::index::FlatIndex), and the flush reads them back
//! from there; an entry only says *which* slots to write, whether the
//! account record resets storage, and whether a new code blob came in.

use mtpu_primitives::map::{FastMap, FastSet};
use mtpu_primitives::{Address, U256};

/// What the flush owes the files for one account.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Pending {
    /// Height of the block that last wrote the account: the flush
    /// eligibility cursor (heights only ever increase).
    pub height: u64,
    /// The account was deleted or (re-)created since its last flush, so
    /// its record is a tombstone or resets storage: slots of an earlier
    /// incarnation never come back on replay.
    pub reset: bool,
    /// Slots written since the last flush (zero value = cleared).
    pub slots: FastSet<U256>,
    /// The account's code was deployed since the last flush.
    pub new_code: bool,
}

/// The queue itself, keyed by address.
#[derive(Debug, Default)]
pub(crate) struct FlushQueue {
    accounts: FastMap<Address, Pending>,
}

impl FlushQueue {
    /// Notes a write of `addr` at `height`. `reset` starts a new
    /// incarnation (a deletion or a creation): the previous one's slots
    /// and code are no longer owed.
    pub fn note(
        &mut self,
        addr: Address,
        height: u64,
        reset: bool,
        slots: impl IntoIterator<Item = U256>,
        new_code: bool,
    ) {
        let pending = self.accounts.entry(addr).or_default();
        if reset {
            *pending = Pending {
                reset,
                ..Pending::default()
            };
        }
        pending.height = height;
        pending.slots.extend(slots);
        pending.new_code |= new_code;
    }

    /// Accounts in the queue.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Every account last written at or below `up_to`, sorted by address:
    /// the flush collection pass. Entries stay queued until
    /// [`FlushQueue::evict_flushed`] removes them after the file landed.
    pub fn collect_up_to(&self, up_to: u64) -> Vec<(Address, &Pending)> {
        let mut batch: Vec<(Address, &Pending)> = self
            .accounts
            .iter()
            .filter(|(_, p)| p.height <= up_to)
            .map(|(addr, p)| (*addr, p))
            .collect();
        batch.sort_unstable_by_key(|(addr, _)| *addr);
        batch
    }

    /// Removes entries whose height is still `<= up_to`: exactly the set
    /// a completed flush covered, because absorbs use strictly increasing
    /// heights, so any entry written after collection moved past `up_to`.
    pub fn evict_flushed(&mut self, up_to: u64) {
        self.accounts.retain(|_, p| p.height > up_to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(queue: &mut FlushQueue, n: u64, height: u64, slots: &[u64]) {
        let slots = slots.iter().map(|&k| U256::from(k));
        queue.note(Address::from_low_u64(n), height, false, slots, false);
    }

    #[test]
    fn collect_and_evict_respect_the_height_cursor() {
        let mut queue = FlushQueue::default();
        note(&mut queue, 3, 3, &[]);
        note(&mut queue, 1, 1, &[]);
        note(&mut queue, 2, 2, &[]);

        let addrs: Vec<Address> = queue.collect_up_to(2).iter().map(|(a, _)| *a).collect();
        assert_eq!(
            addrs,
            vec![Address::from_low_u64(1), Address::from_low_u64(2)]
        );

        queue.evict_flushed(2);
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.collect_up_to(3)[0].0, Address::from_low_u64(3));
    }

    #[test]
    fn entries_written_after_collection_survive_eviction() {
        let mut queue = FlushQueue::default();
        note(&mut queue, 9, 1, &[1]);
        assert_eq!(queue.collect_up_to(1).len(), 1);
        // A newer block rewrites the account before the flush lands; the
        // next flush still owes the slot the first one wrote.
        note(&mut queue, 9, 5, &[2]);
        queue.evict_flushed(1);
        let batch = queue.collect_up_to(5);
        assert_eq!(batch.len(), 1);
        let owed: FastSet<U256> = [U256::from(1u64), U256::from(2u64)].into_iter().collect();
        assert_eq!((batch[0].1.height, &batch[0].1.slots), (5, &owed));
    }

    #[test]
    fn a_reset_drops_what_the_old_incarnation_owed() {
        let mut queue = FlushQueue::default();
        let addr = Address::from_low_u64(4);
        queue.note(addr, 1, false, [U256::ONE], true);
        queue.note(addr, 2, true, [], false);
        queue.note(addr, 3, false, [U256::from(7u64)], false);
        let want = Pending {
            height: 3,
            reset: true,
            slots: [U256::from(7u64)].into_iter().collect(),
            new_code: false,
        };
        assert_eq!(queue.collect_up_to(3), vec![(addr, &want)]);
    }
}
