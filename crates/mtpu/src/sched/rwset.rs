//! Read/write-set extraction: from recorded transaction traces
//! ([`tx_rw_set`]) or straight from one untraced execution
//! ([`speculative_rw_set`]).
//!
//! Shared between the consensus-stage DAG construction
//! ([`super::DepGraph::from_conflicts`]), the wall-clock parallel
//! execution engine (`mtpu-parexec`), and the mempool's conflict-aware
//! block packer (`mtpu-mempool`), which all drive off the same conflict
//! keys.

use mtpu_evm::state::StateOps;
use mtpu_evm::trace::{Tracer, TxTrace};
use mtpu_evm::tx::{BlockHeader, Transaction};
use mtpu_evm::{execute_transaction, TxError};
use mtpu_primitives::{Address, U256};
use std::collections::HashSet;

/// A conflict key: a storage slot or an account balance.
///
/// Gas-fee bookkeeping (sender gas debit, coinbase credit) is deliberately
/// *not* a key: fee accrual commutes and would otherwise serialize every
/// block, which neither the paper nor production parallel executors (e.g.
/// Block-STM) order on.
///
/// The `Ord` impl gives [`Footprint`] its canonical sorted form; the
/// ordering itself carries no semantic meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotKey {
    /// A contract storage slot.
    Storage(Address, U256),
    /// An account balance touched by value transfer.
    Balance(Address),
}

/// The conflict footprint of one transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSet {
    /// Keys the transaction observes.
    pub reads: HashSet<SlotKey>,
    /// Keys the transaction mutates.
    pub writes: HashSet<SlotKey>,
}

impl RwSet {
    /// `true` when `self` writes something `other` reads or writes, or
    /// vice versa — i.e. the two transactions cannot run concurrently.
    ///
    /// Always probes the hash sets of the *larger* side while iterating
    /// the smaller, so cost is `O(min(|self|, |other|))` probes; the
    /// [`RwSet::conflicts_with_naive`] reference scan is kept for the
    /// parity property test.
    pub fn conflicts_with(&self, other: &RwSet) -> bool {
        // self.writes ∩ (other.reads ∪ other.writes)
        let w_vs_rw = if self.writes.len() <= other.reads.len() + other.writes.len() {
            self.writes
                .iter()
                .any(|k| other.reads.contains(k) || other.writes.contains(k))
        } else {
            other.reads.iter().any(|k| self.writes.contains(k))
                || other.writes.iter().any(|k| self.writes.contains(k))
        };
        if w_vs_rw {
            return true;
        }
        // other.writes ∩ self.reads
        if other.writes.len() <= self.reads.len() {
            other.writes.iter().any(|k| self.reads.contains(k))
        } else {
            self.reads.iter().any(|k| other.writes.contains(k))
        }
    }

    /// The textbook nested-scan conflict check — the reference
    /// implementation the optimized paths are property-tested against.
    pub fn conflicts_with_naive(&self, other: &RwSet) -> bool {
        self.writes
            .iter()
            .any(|k| other.reads.contains(k) || other.writes.contains(k))
            || other.writes.iter().any(|k| self.reads.contains(k))
    }

    /// Compiles the set into its sorted-slice [`Footprint`] form for the
    /// block packer's inner loop.
    pub fn footprint(&self) -> Footprint {
        Footprint::from_rw_set(self)
    }
}

/// A compiled, immutable form of an [`RwSet`]: sorted deduplicated key
/// slices, so a conflict check is a linear two-pointer merge instead of
/// per-key hashing — the representation the block packer keeps per pooled
/// transaction and for its growing packed-set aggregate.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    reads: Vec<SlotKey>,
    writes: Vec<SlotKey>,
}

impl Footprint {
    /// Compiles `set` (sort + dedup both key lists).
    pub fn from_rw_set(set: &RwSet) -> Footprint {
        let mut reads: Vec<SlotKey> = set.reads.iter().copied().collect();
        let mut writes: Vec<SlotKey> = set.writes.iter().copied().collect();
        reads.sort_unstable();
        writes.sort_unstable();
        Footprint { reads, writes }
    }

    /// Keys read, sorted ascending.
    pub fn reads(&self) -> &[SlotKey] {
        &self.reads
    }

    /// Keys written, sorted ascending.
    pub fn writes(&self) -> &[SlotKey] {
        &self.writes
    }

    /// Total number of keys.
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// `true` when the footprint touches nothing.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// `true` when the two footprints cannot run concurrently — same
    /// predicate as [`RwSet::conflicts_with`], in `O(n + m)` comparisons
    /// over the sorted slices.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        sorted_intersects(&self.writes, &other.writes)
            || sorted_intersects(&self.writes, &other.reads)
            || sorted_intersects(&self.reads, &other.writes)
    }

    /// Merges `other` into `self` (the packer's aggregate of everything
    /// already packed). Keeps both lists sorted and deduplicated.
    pub fn absorb(&mut self, other: &Footprint) {
        self.reads = sorted_union(&self.reads, &other.reads);
        self.writes = sorted_union(&self.writes, &other.writes);
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

/// Extracts the read/write sets of a recorded execution: storage accesses
/// from the trace plus the balances moved by the value transfer.
pub fn tx_rw_set(tx: &Transaction, trace: &TxTrace) -> RwSet {
    let mut set = RwSet::default();
    for acc in &trace.storage {
        let slot = SlotKey::Storage(acc.address, acc.key);
        if acc.write {
            set.writes.insert(slot);
        } else {
            set.reads.insert(slot);
        }
    }
    // Value movement touches balances.
    if !tx.value.is_zero() {
        set.writes.insert(SlotKey::Balance(tx.from));
        if let Some(to) = tx.to {
            set.writes.insert(SlotKey::Balance(to));
        }
    }
    set
}

/// A [`Tracer`] that keeps the storage conflict keys and nothing else: no
/// frames, no steps (so fused sites skip their step replay).
struct StorageKeys(RwSet);

impl Tracer for StorageKeys {
    fn wants_steps(&self) -> bool {
        false
    }

    fn storage_access(&mut self, address: Address, key: U256, write: bool) {
        let slot = SlotKey::Storage(address, key);
        if write {
            self.0.writes.insert(slot);
        } else {
            self.0.reads.insert(slot);
        }
    }
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
    let mut keys = StorageKeys(static_rw_set(tx));
    execute_transaction(state, header, tx, &mut keys)?;
    Ok(keys.0)
}

/// The minimal conflict footprint derivable from a transaction alone,
/// without executing it: the balances its value transfer moves. Used as
/// the mempool's fallback when admission-time speculative execution fails
/// (e.g. a mid-chain transaction that only becomes executable after its
/// predecessors commit). An under-approximation only costs parallelism —
/// the parallel engine's read-set validation still catches every real
/// conflict.
pub fn static_rw_set(tx: &Transaction) -> RwSet {
    let mut set = RwSet::default();
    if !tx.value.is_zero() {
        set.writes.insert(SlotKey::Balance(tx.from));
        if let Some(to) = tx.to {
            set.writes.insert(SlotKey::Balance(to));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
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
            set.reads.insert(key(rng, space));
        }
        for _ in 0..rng.random_range(0..keys) {
            set.writes.insert(key(rng, space));
        }
        set
    }

    /// The optimized hash-probe path and the sorted-slice footprint path
    /// must agree with the naive nested scan on random sets — including
    /// tight key spaces where collisions are common and wide ones where
    /// they are rare.
    #[test]
    fn fast_paths_match_naive_conflicts() {
        let mut rng = SplitMix64::seed_from_u64(0xF007);
        let mut conflicts = 0usize;
        for round in 0..400 {
            let space = if round % 2 == 0 { 4 } else { 1 << 20 };
            let a = random_set(&mut rng, 12, space);
            let b = random_set(&mut rng, 12, space);
            let want = a.conflicts_with_naive(&b);
            assert_eq!(a.conflicts_with(&b), want, "hash-probe diverged");
            assert_eq!(b.conflicts_with(&a), want, "conflict must be symmetric");
            assert_eq!(
                a.footprint().conflicts_with(&b.footprint()),
                want,
                "footprint path diverged"
            );
            conflicts += want as usize;
        }
        // The tight key space must actually exercise both outcomes.
        assert!(conflicts > 20, "degenerate workload: {conflicts} conflicts");
        assert!(conflicts < 400, "degenerate workload: all conflicting");
    }

    #[test]
    fn footprint_absorb_matches_pairwise_checks() {
        let mut rng = SplitMix64::seed_from_u64(0xABB0);
        for _ in 0..100 {
            let sets: Vec<RwSet> = (0..4).map(|_| random_set(&mut rng, 8, 6)).collect();
            let candidate = random_set(&mut rng, 8, 6);
            let mut agg = Footprint::default();
            for s in &sets {
                agg.absorb(&s.footprint());
            }
            let want = sets.iter().any(|s| s.conflicts_with_naive(&candidate));
            assert_eq!(agg.conflicts_with(&candidate.footprint()), want);
        }
    }

    #[test]
    fn footprint_is_sorted_and_deduplicated() {
        let mut set = RwSet::default();
        for i in [5u64, 1, 9, 1, 5] {
            set.writes
                .insert(SlotKey::Balance(Address::from_low_u64(i)));
            set.reads
                .insert(SlotKey::Storage(Address::from_low_u64(i), U256::from(i)));
        }
        let fp = set.footprint();
        assert!(fp.writes().windows(2).all(|w| w[0] < w[1]));
        assert!(fp.reads().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(fp.writes().len(), 3);
        assert_eq!(fp.len(), 6);
        assert!(!fp.is_empty());
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
