//! The dependency DAG between transactions of a block.
//!
//! Per the paper (§2.2.2), dependencies are discovered in the consensus
//! stage — the elected node executes the block and serializes the DAG into
//! it, so the executing nodes know all conflicts *before* execution. We
//! reproduce that: the DAG is computed from the read/write sets of the
//! recorded traces (storage slots plus value-transfer balances).

use super::rwset::{tx_rw_set, RwSet, SlotKey};
use mtpu_evm::trace::TxTrace;
use mtpu_evm::tx::Transaction;
use mtpu_primitives::map::FastMap;
use mtpu_primitives::Address;

/// Directed acyclic dependency graph over the transactions of one block
/// (edge `i -> j` means `j` must observe `i`'s effects).
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    parents: Vec<Vec<u32>>,
    children: Vec<Vec<u32>>,
}

impl DepGraph {
    /// An edgeless graph over `n` transactions.
    pub fn new(n: usize) -> Self {
        DepGraph {
            parents: vec![Vec::new(); n],
            children: vec![Vec::new(); n],
        }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` for an empty block.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Adds edge `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics when `from >= to` (edges must follow block order, which
    /// guarantees acyclicity) or when an index is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < to, "dependency edges follow block order");
        assert!(to < self.parents.len(), "edge target out of range");
        if !self.parents[to].contains(&(from as u32)) {
            self.parents[to].push(from as u32);
            self.children[from].push(to as u32);
        }
    }

    /// Parents of `tx` (must-happen-before set).
    pub fn parents(&self, tx: usize) -> &[u32] {
        &self.parents[tx]
    }

    /// Children of `tx`.
    pub fn children(&self, tx: usize) -> &[u32] {
        &self.children[tx]
    }

    /// Fraction of transactions with at least one parent — the paper's
    /// "proportion of dependent transactions" x-axis.
    pub fn dependent_ratio(&self) -> f64 {
        if self.parents.is_empty() {
            return 0.0;
        }
        let dependent = self.parents.iter().filter(|p| !p.is_empty()).count();
        dependent as f64 / self.parents.len() as f64
    }

    /// Length of the longest dependency chain (critical path in
    /// transaction counts).
    pub fn critical_path_len(&self) -> usize {
        let n = self.len();
        let mut depth = vec![1usize; n];
        for i in 0..n {
            for &p in &self.parents[i] {
                depth[i] = depth[i].max(depth[p as usize] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Builds the DAG from the conflicts between recorded executions:
    /// write→read, write→write and read→write orderings over storage
    /// slots and transferred balances.
    ///
    /// Gas-fee bookkeeping (sender gas debit, coinbase credit) is
    /// excluded: fee accrual commutes and would otherwise serialize every
    /// block, which neither the paper nor production parallel executors
    /// (e.g. Block-STM) order on.
    pub fn from_conflicts(txs: &[Transaction], traces: &[TxTrace]) -> DepGraph {
        assert_eq!(txs.len(), traces.len());
        let sets: Vec<RwSet> = txs
            .iter()
            .zip(traces)
            .map(|(tx, trace)| tx_rw_set(tx, trace))
            .collect();
        DepGraph::from_rw_sets(txs, &sets)
    }

    /// Builds the DAG from precomputed read/write sets (the form the
    /// parallel execution engine already holds). Sender nonce-order edges
    /// are always included.
    pub fn from_rw_sets(txs: &[Transaction], sets: &[RwSet]) -> DepGraph {
        assert_eq!(txs.len(), sets.len());
        let n = txs.len();
        let mut g = DepGraph::new(n);
        let mut last_writer: FastMap<SlotKey, usize> = FastMap::default();
        let mut readers_since: FastMap<SlotKey, Vec<usize>> = FastMap::default();
        let mut last_of_sender: FastMap<Address, usize> = FastMap::default();

        for i in 0..n {
            // Nonce ordering: transactions of one sender execute in order.
            if let Some(&prev) = last_of_sender.get(&txs[i].from) {
                g.add_edge(prev, i);
            }
            last_of_sender.insert(txs[i].from, i);
            let RwSet { reads, writes } = &sets[i];
            for r in reads {
                if let Some(&w) = last_writer.get(r) {
                    if w != i {
                        g.add_edge(w, i);
                    }
                }
                readers_since.entry(*r).or_default().push(i);
            }
            for w in writes {
                if let Some(&pw) = last_writer.get(w) {
                    if pw != i {
                        g.add_edge(pw, i);
                    }
                }
                if let Some(rs) = readers_since.get(w) {
                    for &r in rs {
                        if r != i {
                            g.add_edge(r, i);
                        }
                    }
                }
                last_writer.insert(*w, i);
                readers_since.insert(*w, Vec::new());
            }
        }
        g
    }

    /// The trivial DAG with only sender nonce-order edges — the fallback
    /// when a block ships without a consensus-computed dependency graph.
    pub fn sender_order(txs: &[Transaction]) -> DepGraph {
        let mut g = DepGraph::new(txs.len());
        let mut last_of_sender: FastMap<Address, usize> = FastMap::default();
        for (i, tx) in txs.iter().enumerate() {
            if let Some(&prev) = last_of_sender.get(&tx.from) {
                g.add_edge(prev, i);
            }
            last_of_sender.insert(tx.from, i);
        }
        g
    }

    /// Checks that `start[j] >= end[i]` for every edge `i -> j` — the
    /// serializability oracle used by the scheduler tests.
    #[allow(clippy::needless_range_loop)] // j indexes parents and start
    pub fn schedule_respects_dag(&self, start: &[u64], end: &[u64]) -> bool {
        for j in 0..self.len() {
            for &p in &self.parents[j] {
                if start[j] < end[p as usize] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::trace::StorageAccess;
    use mtpu_primitives::U256;

    fn tx(from: u64, to: u64, value: u64) -> Transaction {
        Transaction::transfer(
            Address::from_low_u64(from),
            Address::from_low_u64(to),
            U256::from(value),
            0,
        )
    }

    fn trace_with(accs: &[(u64, u64, bool)]) -> TxTrace {
        TxTrace {
            storage: accs
                .iter()
                .map(|&(a, k, w)| StorageAccess {
                    step: 0,
                    address: Address::from_low_u64(a),
                    key: U256::from(k),
                    write: w,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn write_write_conflict() {
        let txs = vec![tx(1, 2, 0), tx(3, 4, 0)];
        let traces = vec![trace_with(&[(9, 1, true)]), trace_with(&[(9, 1, true)])];
        let g = DepGraph::from_conflicts(&txs, &traces);
        assert_eq!(g.parents(1), &[0]);
        assert_eq!(g.dependent_ratio(), 0.5);
    }

    #[test]
    fn read_write_and_write_read() {
        // T0 writes k, T1 reads k (WAR->RAW edge 0->1), T2 writes k
        // (edges from writer 0 and reader 1).
        let txs = vec![tx(1, 2, 0), tx(3, 4, 0), tx(5, 6, 0)];
        let traces = vec![
            trace_with(&[(9, 1, true)]),
            trace_with(&[(9, 1, false)]),
            trace_with(&[(9, 1, true)]),
        ];
        let g = DepGraph::from_conflicts(&txs, &traces);
        assert_eq!(g.parents(1), &[0]);
        let mut p2 = g.parents(2).to_vec();
        p2.sort();
        assert_eq!(p2, vec![0, 1]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn balance_conflicts_from_value_transfers() {
        // Two transfers from the same sender conflict.
        let txs = vec![tx(1, 2, 5), tx(1, 3, 5)];
        let traces = vec![TxTrace::default(), TxTrace::default()];
        let g = DepGraph::from_conflicts(&txs, &traces);
        assert_eq!(g.parents(1), &[0]);
    }

    #[test]
    fn independent_txs_have_no_edges() {
        let txs = vec![tx(1, 2, 1), tx(3, 4, 1)];
        let traces = vec![TxTrace::default(), TxTrace::default()];
        let g = DepGraph::from_conflicts(&txs, &traces);
        assert_eq!(g.dependent_ratio(), 0.0);
        assert_eq!(g.critical_path_len(), 1);
    }

    #[test]
    fn reads_do_not_conflict_with_reads() {
        let txs = vec![tx(1, 2, 0), tx(3, 4, 0)];
        let traces = vec![trace_with(&[(9, 1, false)]), trace_with(&[(9, 1, false)])];
        let g = DepGraph::from_conflicts(&txs, &traces);
        assert_eq!(g.dependent_ratio(), 0.0);
    }

    #[test]
    fn schedule_oracle() {
        let mut g = DepGraph::new(2);
        g.add_edge(0, 1);
        assert!(g.schedule_respects_dag(&[0, 10], &[10, 20]));
        assert!(!g.schedule_respects_dag(&[0, 5], &[10, 20]));
    }

    #[test]
    #[should_panic(expected = "block order")]
    fn backward_edge_rejected() {
        let mut g = DepGraph::new(2);
        g.add_edge(1, 0);
    }

    #[test]
    fn recipient_balance_conflict() {
        // Different senders paying the same recipient conflict on
        // Balance(recipient) (write-write).
        let txs = vec![tx(1, 9, 5), tx(2, 9, 7)];
        let traces = vec![TxTrace::default(), TxTrace::default()];
        let g = DepGraph::from_conflicts(&txs, &traces);
        assert_eq!(g.parents(1), &[0]);
        assert_eq!(g.children(0), &[1]);
    }

    #[test]
    fn storage_and_balance_edges_are_disjoint_keys() {
        // T0 writes slot (9,1); T1 transfers value to address 9. A
        // storage slot and a balance on the same address must NOT alias.
        let txs = vec![tx(1, 2, 0), tx(3, 9, 5)];
        let traces = vec![trace_with(&[(9, 1, true)]), TxTrace::default()];
        let g = DepGraph::from_conflicts(&txs, &traces);
        assert_eq!(g.dependent_ratio(), 0.0);
    }

    #[test]
    fn construction_is_deterministic() {
        let txs = vec![tx(1, 2, 5), tx(3, 4, 0), tx(1, 4, 2), tx(5, 2, 9)];
        let traces = vec![
            trace_with(&[(7, 1, true), (7, 2, false)]),
            trace_with(&[(7, 1, false), (8, 3, true)]),
            trace_with(&[(8, 3, true)]),
            trace_with(&[(7, 2, true)]),
        ];
        let a = DepGraph::from_conflicts(&txs, &traces);
        for _ in 0..10 {
            let b = DepGraph::from_conflicts(&txs, &traces);
            for i in 0..a.len() {
                assert_eq!(a.parents(i), b.parents(i));
                assert_eq!(a.children(i), b.children(i));
            }
        }
    }

    #[test]
    fn sender_order_fallback() {
        let txs = vec![tx(1, 2, 0), tx(3, 4, 0), tx(1, 5, 0)];
        let g = DepGraph::sender_order(&txs);
        assert_eq!(g.parents(0), &[] as &[u32]);
        assert_eq!(g.parents(1), &[] as &[u32]);
        assert_eq!(g.parents(2), &[0]);
    }

    /// Permuting a trace's storage accesses and repeating some leaves
    /// its `RwSet` and the DAG's adjacency slices untouched, unsorted:
    /// key order follows the keys, not access order or hash order.
    #[test]
    fn adjacency_order_is_a_function_of_the_keys() {
        let txs = vec![
            tx(1, 2, 0),
            tx(3, 4, 0),
            tx(5, 6, 0),
            tx(7, 8, 0),
            tx(9, 2, 0),
        ];
        let writers = [(7, 3, true), (7, 1, true), (8, 2, true)];
        let accesses = [(8, 2, false), (7, 1, false), (7, 3, false), (7, 9, true)];
        let shuffled = [
            (7, 9, true),
            (7, 3, false),
            (7, 9, true),
            (8, 2, false),
            (7, 1, false),
            (7, 3, false),
        ];
        let block = |last_two: &[(u64, u64, bool)]| {
            let mut traces: Vec<TxTrace> = writers.iter().map(|&w| trace_with(&[w])).collect();
            traces.push(trace_with(last_two));
            traces.push(trace_with(last_two));
            let sets: Vec<RwSet> = txs
                .iter()
                .zip(&traces)
                .map(|(tx, tr)| tx_rw_set(tx, tr))
                .collect();
            let g = DepGraph::from_rw_sets(&txs, &sets);
            (sets, g)
        };
        let (sets_a, a) = block(&accesses);
        let (sets_b, b) = block(&shuffled);
        assert_eq!(sets_a, sets_b);
        assert_eq!(
            a.parents(3),
            &[1, 0, 2],
            "parents follow the sorted read keys"
        );
        for i in 0..a.len() {
            assert_eq!(a.parents(i), b.parents(i));
            assert_eq!(a.children(i), b.children(i));
        }
    }

    #[test]
    fn from_rw_sets_matches_from_conflicts() {
        let txs = vec![tx(1, 2, 5), tx(3, 4, 0), tx(5, 2, 1)];
        let traces = vec![
            trace_with(&[(7, 1, true)]),
            trace_with(&[(7, 1, false)]),
            TxTrace::default(),
        ];
        let sets: Vec<RwSet> = txs
            .iter()
            .zip(&traces)
            .map(|(tx, tr)| tx_rw_set(tx, tr))
            .collect();
        let a = DepGraph::from_conflicts(&txs, &traces);
        let b = DepGraph::from_rw_sets(&txs, &sets);
        for i in 0..a.len() {
            assert_eq!(a.parents(i), b.parents(i));
        }
    }
}
