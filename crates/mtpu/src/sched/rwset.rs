//! Read/write-set extraction: from recorded transaction traces
//! ([`tx_rw_set`]) or straight from one untraced execution
//! ([`speculative_rw_set`]).
//!
//! One representation serves every consumer: the consensus-stage DAG
//! construction ([`super::DepGraph::from_conflicts`]), the wall-clock
//! parallel execution engine (`mtpu-parexec`), and the mempool's
//! conflict-aware block packer (`mtpu-mempool`), which keeps one
//! [`RwSet`] per pooled transaction and probes it with a two-pointer
//! sweep over the sorted key lists.

use mtpu_evm::state::StateOps;
use mtpu_evm::trace::{Tracer, TxTrace};
use mtpu_evm::tx::{BlockHeader, Transaction};
use mtpu_evm::{execute_transaction, TxError};
use mtpu_primitives::{Address, U256};

/// A conflict key: a storage slot or an account balance.
///
/// Gas-fee bookkeeping (sender gas debit, coinbase credit) is deliberately
/// *not* a key: fee accrual commutes and would otherwise serialize every
/// block, which neither the paper nor production parallel executors (e.g.
/// Block-STM) order on.
///
/// The `Ord` impl gives [`RwSet`] its canonical sorted form; the ordering
/// itself carries no semantic meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotKey {
    /// A contract storage slot.
    Storage(Address, U256),
    /// An account balance touched by value transfer.
    Balance(Address),
}

/// The conflict footprint of one transaction.
///
/// Invariant: both lists are ascending with no duplicates. Every
/// constructor in this module returns them so and [`RwSet::absorb`]
/// keeps them so; [`RwSet::conflicts_with`] relies on it (checked in
/// debug builds), and a containment check is a binary search. Key order
/// is a function of the keys alone, so the DAG build and the prefetch
/// hints visit them in the same order on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSet {
    /// Keys the transaction observes, ascending, deduplicated.
    pub reads: Vec<SlotKey>,
    /// Keys the transaction mutates, ascending, deduplicated.
    pub writes: Vec<SlotKey>,
}

impl RwSet {
    /// `true` when `self` writes something `other` reads or writes, or
    /// vice versa — i.e. the two transactions cannot run concurrently.
    /// `O(n + m)` comparisons over the sorted lists.
    pub fn conflicts_with(&self, other: &RwSet) -> bool {
        debug_assert!(self.is_canonical() && other.is_canonical());
        sorted_intersects(&self.writes, &other.writes)
            || sorted_intersects(&self.writes, &other.reads)
            || sorted_intersects(&self.reads, &other.writes)
    }

    /// Merges `other` into `self` (the packer's aggregate of everything
    /// already packed). Keeps both lists sorted and deduplicated.
    pub fn absorb(&mut self, other: &RwSet) {
        debug_assert!(self.is_canonical() && other.is_canonical());
        self.reads = sorted_union(&self.reads, &other.reads);
        self.writes = sorted_union(&self.writes, &other.writes);
    }

    /// Sorts and deduplicates both lists: the last step of every
    /// constructor.
    fn canonical(mut self) -> RwSet {
        for keys in [&mut self.reads, &mut self.writes] {
            keys.sort_unstable();
            keys.dedup();
        }
        self
    }

    fn is_canonical(&self) -> bool {
        let ascending = |keys: &[SlotKey]| keys.windows(2).all(|w| w[0] < w[1]);
        ascending(&self.reads) && ascending(&self.writes)
    }
}

/// `true` when two ascending sorted slices share an element.
fn sorted_intersects(a: &[SlotKey], b: &[SlotKey]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            core::cmp::Ordering::Less => i += 1,
            core::cmp::Ordering::Greater => j += 1,
            core::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Sorted deduplicating merge of two ascending sorted slices.
fn sorted_union(a: &[SlotKey], b: &[SlotKey]) -> Vec<SlotKey> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            core::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            core::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            core::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The one collector behind every constructor: a [`Tracer`] that keeps
/// the storage conflict keys and nothing else — no frames, no steps (so
/// fused sites skip their step replay) — in access order, duplicates and
/// all, until [`StorageKeys::finish`].
#[derive(Default)]
struct StorageKeys(RwSet);

impl Tracer for StorageKeys {
    fn wants_steps(&self) -> bool {
        false
    }

    fn storage_access(&mut self, address: Address, key: U256, write: bool) {
        let slot = SlotKey::Storage(address, key);
        if write {
            self.0.writes.push(slot);
        } else {
            self.0.reads.push(slot);
        }
    }
}

impl StorageKeys {
    /// Adds the balances `tx`'s value transfer moves and returns the
    /// canonical set.
    fn finish(mut self, tx: &Transaction) -> RwSet {
        if !tx.value.is_zero() {
            self.0.writes.push(SlotKey::Balance(tx.from));
            if let Some(to) = tx.to {
                self.0.writes.push(SlotKey::Balance(to));
            }
        }
        self.0.canonical()
    }
}

/// Extracts the read/write sets of a recorded execution: storage accesses
/// from the trace plus the balances moved by the value transfer.
pub fn tx_rw_set(tx: &Transaction, trace: &TxTrace) -> RwSet {
    let mut keys = StorageKeys::default();
    for acc in &trace.storage {
        keys.storage_access(acc.address, acc.key, acc.write);
    }
    keys.finish(tx)
}

/// Executes `tx` on `state` once, untraced, and returns the same set
/// [`tx_rw_set`] derives from a full recorded trace of that execution —
/// the interpreter reports storage accesses independently of step
/// recording. Accesses of reverted frames stay in, as they do in a trace.
///
/// # Errors
///
/// Propagates [`TxError`] from [`execute_transaction`]; callers fall back
/// to [`static_rw_set`].
pub fn speculative_rw_set<S: StateOps>(
    state: &mut S,
    header: &BlockHeader,
    tx: &Transaction,
) -> Result<RwSet, TxError> {
    let mut keys = StorageKeys::default();
    execute_transaction(state, header, tx, &mut keys)?;
    Ok(keys.finish(tx))
}

/// The minimal conflict footprint derivable from a transaction alone,
/// without executing it: the balances its value transfer moves. Used as
/// the mempool's fallback when admission-time speculative execution fails
/// (e.g. a mid-chain transaction that only becomes executable after its
/// predecessors commit). An under-approximation only costs parallelism —
/// the parallel engine's read-set validation still catches every real
/// conflict.
pub fn static_rw_set(tx: &Transaction) -> RwSet {
    StorageKeys::default().finish(tx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_asm::parse_asm;
    use mtpu_evm::state::State;
    use mtpu_primitives::SplitMix64;

    fn key(rng: &mut SplitMix64, space: u64) -> SlotKey {
        if rng.random_bool(0.3) {
            SlotKey::Balance(Address::from_low_u64(rng.random_range(0..space)))
        } else {
            SlotKey::Storage(
                Address::from_low_u64(rng.random_range(0..space)),
                U256::from(rng.random_range(0..space)),
            )
        }
    }

    fn random_set(rng: &mut SplitMix64, keys: u64, space: u64) -> RwSet {
        let mut set = RwSet::default();
        for _ in 0..rng.random_range(0..keys) {
            set.reads.push(key(rng, space));
        }
        for _ in 0..rng.random_range(0..keys) {
            set.writes.push(key(rng, space));
        }
        set.canonical()
    }

    /// The textbook nested-scan conflict check, the reference the sorted
    /// sweep is property-tested against.
    fn conflicts_naive(a: &RwSet, b: &RwSet) -> bool {
        a.writes
            .iter()
            .any(|k| b.reads.contains(k) || b.writes.contains(k))
            || b.writes.iter().any(|k| a.reads.contains(k))
    }

    /// The two-pointer sweep must agree with the naive nested scan on
    /// random sets — including tight key spaces where collisions are
    /// common and wide ones where they are rare.
    #[test]
    fn sorted_sweep_matches_naive_conflicts() {
        let mut rng = SplitMix64::seed_from_u64(0xF007);
        let mut conflicts = 0usize;
        for round in 0..400 {
            let space = if round % 2 == 0 { 4 } else { 1 << 20 };
            let a = random_set(&mut rng, 12, space);
            let b = random_set(&mut rng, 12, space);
            let want = conflicts_naive(&a, &b);
            assert_eq!(a.conflicts_with(&b), want, "sorted sweep diverged");
            assert_eq!(b.conflicts_with(&a), want, "conflict must be symmetric");
            conflicts += want as usize;
        }
        // The tight key space must actually exercise both outcomes.
        assert!(conflicts > 20, "degenerate workload: {conflicts} conflicts");
        assert!(conflicts < 400, "degenerate workload: all conflicting");
    }

    #[test]
    fn absorb_matches_pairwise_checks() {
        let mut rng = SplitMix64::seed_from_u64(0xABB0);
        for _ in 0..100 {
            let sets: Vec<RwSet> = (0..4).map(|_| random_set(&mut rng, 8, 6)).collect();
            let candidate = random_set(&mut rng, 8, 6);
            let mut agg = RwSet::default();
            for s in &sets {
                agg.absorb(s);
            }
            assert!(agg.is_canonical());
            let want = sets.iter().any(|s| conflicts_naive(s, &candidate));
            assert_eq!(agg.conflicts_with(&candidate), want);
        }
    }

    #[test]
    fn rw_set_is_sorted_and_deduplicated() {
        let mut set = RwSet::default();
        for i in [5u64, 1, 9, 1, 5] {
            set.writes.push(SlotKey::Balance(Address::from_low_u64(i)));
            set.reads
                .push(SlotKey::Storage(Address::from_low_u64(i), U256::from(i)));
        }
        let set = set.canonical();
        assert!(set.is_canonical());
        assert_eq!(set.writes.len(), 3);
        assert_eq!(set.reads.len(), 3);
    }

    /// The untraced and the static constructor return canonical lists
    /// for an execution that touches slots out of order and more than
    /// once, and for a self-transfer that names one balance twice.
    #[test]
    fn every_constructor_returns_canonical_lists() {
        let contract = Address::from_low_u64(0xC0DE);
        let user = Address::from_low_u64(1);
        let mut state = State::new();
        state.credit(user, U256::from(10_000_000u64));
        let code = "PUSH 5\nSLOAD\nPUSH 1\nSLOAD\nPUSH 5\nSLOAD\nPUSH 3\nSLOAD\n\
                    PUSH 7\nPUSH 9\nSSTORE\nPUSH 7\nPUSH 2\nSSTORE\nPUSH 8\nPUSH 9\nSSTORE\nSTOP";
        state.set_code(contract, parse_asm(code).expect("test contract assembles"));
        state.finalize_tx();
        let mut call = Transaction::call(user, contract, Vec::new(), 0);
        call.value = U256::from(3u64);
        let got = speculative_rw_set(&mut state.clone(), &BlockHeader::default(), &call)
            .expect("the call executes");
        let slot = |k: u64| SlotKey::Storage(contract, U256::from(k));
        assert_eq!(got.reads, vec![slot(1), slot(3), slot(5)]);
        let mut writes = vec![
            slot(2),
            slot(9),
            SlotKey::Balance(user),
            SlotKey::Balance(contract),
        ];
        writes.sort_unstable();
        assert_eq!(got.writes, writes);

        let own = Transaction::transfer(user, user, U256::from(5u64), 0);
        let fallback = static_rw_set(&own);
        assert!(fallback.is_canonical());
        assert_eq!(fallback.writes, vec![SlotKey::Balance(user)]);
    }

    #[test]
    fn static_rw_set_covers_value_transfers() {
        let t = Transaction::transfer(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            U256::from(5u64),
            0,
        );
        let s = static_rw_set(&t);
        assert!(s
            .writes
            .contains(&SlotKey::Balance(Address::from_low_u64(1))));
        assert!(s
            .writes
            .contains(&SlotKey::Balance(Address::from_low_u64(2))));
        let zero = Transaction::call(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            vec![1, 2, 3, 4],
            0,
        );
        assert!(static_rw_set(&zero).writes.is_empty());
    }
}
