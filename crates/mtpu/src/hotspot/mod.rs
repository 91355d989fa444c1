//! Hotspot-contract optimization (paper §3.4).
//!
//! During the block interval the MTPU collects execution paths of
//! frequently invoked contracts into the Contract Table, keyed by
//! contract address + entry-function identifier. For each entry it
//! derives: the pre-executable Compare/Check chunks, the chunked-loading
//! byte count, the Constants-Table eliminations, and the prefetchable
//! storage accesses. [`ContractTable::transforms_for`] then applies those
//! (pc-keyed) results to any redundant transaction's trace.

mod analysis;

pub use analysis::{analyze_path, PathAnalysis};

use crate::stream::{BitSet, StreamTransforms};
use mtpu_evm::trace::TxTrace;
use mtpu_primitives::map::{FastMap, FastSet};
use mtpu_primitives::Address;

/// Key of a Contract Table entry: contract address + entry function.
pub type HotspotKey = (Address, [u8; 4]);

/// The Contract Table: per-(contract, entry-function) optimization state.
#[derive(Debug, Clone, Default)]
pub struct ContractTable {
    entries: FastMap<HotspotKey, PathAnalysis>,
    invocations: FastMap<HotspotKey, u64>,
}

impl ContractTable {
    /// An empty table.
    pub fn new() -> Self {
        ContractTable::default()
    }

    /// Number of optimized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry has been learned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records an invocation (path tracking is cheap: the DB cache's
    /// single-instruction side table, §3.4.1).
    pub fn record_invocation(&mut self, trace: &TxTrace) {
        if let Some(key) = Self::key_of(trace) {
            *self.invocations.entry(key).or_default() += 1;
        }
    }

    /// Invocation count of an entry.
    pub fn invocations(&self, key: &HotspotKey) -> u64 {
        self.invocations.get(key).copied().unwrap_or(0)
    }

    /// The `n` most frequently invoked keys (the TOP-N hotspot set).
    pub fn top_keys(&self, n: usize) -> Vec<HotspotKey> {
        let mut v: Vec<(HotspotKey, u64)> =
            self.invocations.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.into_iter().take(n).map(|(k, _)| k).collect()
    }

    /// Learns (or refreshes) the optimization state of a hotspot from one
    /// recorded execution — the offline deep optimization performed in
    /// the idle time slice.
    pub fn learn(&mut self, trace: &TxTrace, code: &[u8]) {
        if let Some(key) = Self::key_of(trace) {
            self.entries.insert(key, analyze_path(trace, code));
        }
    }

    /// Whether this transaction hits an optimized entry.
    pub fn is_hotspot(&self, trace: &TxTrace) -> bool {
        Self::key_of(trace)
            .map(|k| self.entries.contains_key(&k))
            .unwrap_or(false)
    }

    /// Analysis of a key, when learned.
    pub fn analysis(&self, key: &HotspotKey) -> Option<&PathAnalysis> {
        self.entries.get(key)
    }

    /// Keeps only the `n` most-invoked entries — models a capacity-bound
    /// Contract Table whose stale entries age out as hotspots drift
    /// (paper §2.2.3).
    pub fn retain_top(&mut self, n: usize) {
        let keep: FastSet<HotspotKey> = self.top_keys(n).into_iter().collect();
        self.entries.retain(|k, _| keep.contains(k));
    }

    /// Clears the invocation counters (starts a new observation window).
    pub fn reset_invocations(&mut self) {
        self.invocations.clear();
    }

    /// Builds the stream transforms + chunked-loading override for one
    /// transaction. Returns the no-op transforms for non-hotspots.
    pub fn transforms_for(&self, trace: &TxTrace) -> (StreamTransforms, Option<u64>) {
        let Some(key) = Self::key_of(trace) else {
            return (StreamTransforms::none(), None);
        };
        let Some(a) = self.entries.get(&key) else {
            return (StreamTransforms::none(), None);
        };
        // Every step set is sized for the whole trace up front, so the
        // build allocates per set, not per step.
        let bound = trace.steps.len();
        let mut tr = StreamTransforms {
            skip_steps: BitSet::with_bound(bound),
            eliminated_pushes: BitSet::with_bound(bound),
            const_operand_steps: BitSet::with_bound(bound),
            prefetched_steps: BitSet::with_bound(bound),
        };
        // Pre-execution skips the leading run of Compare/Check pcs.
        let skipped = trace
            .steps
            .iter()
            .take_while(|s| s.frame == 0 && a.preexec_pcs.contains(&s.pc))
            .count();
        for i in 0..skipped {
            tr.skip_steps.insert(i as u32);
        }
        for (i, s) in trace.steps.iter().enumerate().skip(skipped) {
            if s.frame != 0 {
                continue;
            }
            let i = i as u32;
            if a.eliminated_push_pcs.contains(&s.pc) {
                tr.eliminated_pushes.insert(i);
            }
            if a.const_operand_pcs.contains(&s.pc) {
                tr.const_operand_steps.insert(i);
            }
            if a.prefetch_pcs.contains(&s.pc) {
                tr.prefetched_steps.insert(i);
            }
        }
        (tr, Some(a.loaded_bytes))
    }

    fn key_of(trace: &TxTrace) -> Option<HotspotKey> {
        let top = trace.top_frame()?;
        Some((top.code_address, top.selector?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mtpu_evm::trace::{CallKind, FrameInfo, TraceStep};
    use mtpu_primitives::B256;

    /// Builds code + trace for: PUSH1 5; PUSH1 3; ADD; PUSH1 0; MSTORE;
    /// CALLER; PUSH1 32; MSTORE; PUSH1 64; PUSH1 0; SHA3; SLOAD; STOP
    /// — the Fig. 11 pattern: SLOAD key = keccak(const .. caller).
    fn fig11_like() -> (Vec<u8>, TxTrace) {
        let code = vec![
            0x60, 0x05, // 0: PUSH1 5
            0x60, 0x03, // 2: PUSH1 3
            0x01, // 4: ADD
            0x60, 0x00, // 5: PUSH1 0
            0x52, // 7: MSTORE      mem[0] = 8 (const)
            0x33, // 8: CALLER
            0x60, 0x20, // 9: PUSH1 32
            0x52, // 11: MSTORE     mem[32] = caller (txattr)
            0x60, 0x40, // 12: PUSH1 64
            0x60, 0x00, // 14: PUSH1 0
            0x20, // 16: SHA3
            0x54, // 17: SLOAD
            0x00, // 18: STOP
        ];
        let steps: Vec<TraceStep> = [
            (0u32, 0x60u8),
            (2, 0x60),
            (4, 0x01),
            (5, 0x60),
            (7, 0x52),
            (8, 0x33),
            (9, 0x60),
            (11, 0x52),
            (12, 0x60),
            (14, 0x60),
            (16, 0x20),
            (17, 0x54),
            (18, 0x00),
        ]
        .iter()
        .map(|&(pc, op)| TraceStep { frame: 0, pc, op })
        .collect();
        let trace = TxTrace {
            frames: vec![FrameInfo {
                depth: 0,
                kind: CallKind::Call,
                code_address: Address::from_low_u64(7),
                storage_address: Address::from_low_u64(7),
                code_hash: B256::keccak(&code),
                code_len: code.len() as u32,
                input_len: 36,
                selector: Some([0xaa, 0xbb, 0xcc, 0xdd]),
            }],
            steps,
            storage: Vec::new(),
            gas_used: 30_000,
            success: true,
        };
        (code, trace)
    }

    #[test]
    fn resolvable_pcs_found_on_traced_run() {
        use mtpu_evm::interpreter::{CallParams, Evm};
        use mtpu_evm::state::State;
        use mtpu_evm::trace::TraceRecorder;
        use mtpu_evm::tx::BlockHeader;
        use mtpu_primitives::U256;

        // PUSH1 7, SLOAD, POP, PUSH1 0 CALLDATALOAD, SLOAD, STOP — the
        // first SLOAD key is constant, the second is calldata-derived
        // (TxAttr, still fixed).
        let code = vec![0x60, 0x07, 0x54, 0x50, 0x60, 0x00, 0x35, 0x54, 0x00];
        let mut state = State::new();
        let contract = Address::from_low_u64(0xc0de);
        state.deploy_code(contract, code.clone());
        let header = BlockHeader::default();
        let mut tracer = TraceRecorder::new();
        let caller = Address::from_low_u64(1);
        let mut evm = Evm::new(&mut state, &header, caller, U256::ONE, &mut tracer);
        let res = evm.call(CallParams {
            kind: CallKind::Call,
            caller,
            code_address: contract,
            storage_address: contract,
            value: U256::ZERO,
            transfers_value: false,
            input: vec![0u8; 32],
            gas: 100_000,
            is_static: false,
            depth: 0,
        });
        assert!(res.success());
        let a = analyze_path(&tracer.into_trace(), &code);
        assert!(a.prefetch_pcs.contains(&2), "constant-key SLOAD at pc 2");
        assert!(
            a.prefetch_pcs.contains(&7),
            "calldata-derived key SLOAD at pc 7"
        );
        assert_eq!(a.prefetch_pcs.len(), 2);
    }

    #[test]
    fn constant_backtracking_finds_fig11_chain() {
        let (code, trace) = fig11_like();
        let a = analyze_path(&trace, &code);
        // ADD(5, 3) is a constant instruction; its PUSH producers are
        // eliminated.
        assert!(a.const_operand_pcs.contains(&4), "{a:?}");
        assert!(a.eliminated_push_pcs.contains(&0));
        assert!(a.eliminated_push_pcs.contains(&2));
        // MSTOREs have fixed operands.
        assert!(a.const_operand_pcs.contains(&7));
        assert!(a.const_operand_pcs.contains(&11));
        // SHA3 over a fully fixed region is fixed; SLOAD key resolvable.
        assert!(a.const_operand_pcs.contains(&16));
        assert!(a.prefetch_pcs.contains(&17), "{a:?}");
    }

    #[test]
    fn unknown_poisons_the_chain() {
        // mem[32] written from an SLOAD result -> SHA3 not resolvable.
        let code = vec![
            0x60, 0x01, // 0: PUSH1 1
            0x54, // 2: SLOAD       (unknown value)
            0x60, 0x20, // 3: PUSH1 32
            0x52, // 5: MSTORE      mem[32] = unknown
            0x60, 0x00, 0x60, 0x00, 0x52, // 6,8,10: PUSH 0; PUSH 0; MSTORE
            0x60, 0x40, 0x60, 0x00, // 11,13: PUSH1 64; PUSH1 0
            0x20, // 15: SHA3
            0x54, // 16: SLOAD
            0x00,
        ];
        let steps: Vec<TraceStep> = [
            (0u32, 0x60u8),
            (2, 0x54),
            (3, 0x60),
            (5, 0x52),
            (6, 0x60),
            (8, 0x60),
            (10, 0x52),
            (11, 0x60),
            (13, 0x60),
            (15, 0x20),
            (16, 0x54),
            (17, 0x00),
        ]
        .iter()
        .map(|&(pc, op)| TraceStep { frame: 0, pc, op })
        .collect();
        let trace = TxTrace {
            frames: fig11_like().1.frames.clone(),
            steps,
            storage: Vec::new(),
            gas_used: 0,
            success: true,
        };
        let a = analyze_path(&trace, &code);
        // First SLOAD at pc 2 is prefetchable (const key), the second at
        // pc 16 is not (its key hashes unknown data).
        assert!(a.prefetch_pcs.contains(&2));
        assert!(!a.prefetch_pcs.contains(&16), "{a:?}");
    }

    #[test]
    fn preexec_prefix_extends_through_fixed_dataflow() {
        let (code, trace) = fig11_like();
        let a = analyze_path(&trace, &code);
        // The whole computation depends only on constants and CALLER, so
        // everything up to (and including) the SHA3 is pre-executable;
        // the SLOAD reads mutable state and ends the prefix.
        assert!(a.preexec_pcs.contains(&0));
        assert!(a.preexec_pcs.contains(&2));
        assert!(a.preexec_pcs.contains(&4), "const ADD is fixed");
        assert!(a.preexec_pcs.contains(&16), "fixed SHA3 is pre-executable");
        assert!(!a.preexec_pcs.contains(&17), "SLOAD ends the prefix");
    }

    #[test]
    fn preexec_prefix_stops_at_unknown_dataflow() {
        // PUSH1 1; SLOAD; PUSH1 0; MSTORE; STOP — the MSTORE stores an
        // unknown (storage-loaded) value, so only the leading PUSH and
        // the SLOAD's key computation stay pre-executable.
        let code = vec![0x60, 0x01, 0x54, 0x60, 0x00, 0x52, 0x00];
        let steps: Vec<TraceStep> = [(0u32, 0x60u8), (2, 0x54), (3, 0x60), (5, 0x52), (6, 0x00)]
            .iter()
            .map(|&(pc, op)| TraceStep { frame: 0, pc, op })
            .collect();
        let trace = TxTrace {
            frames: fig11_like().1.frames.clone(),
            steps,
            storage: Vec::new(),
            gas_used: 0,
            success: true,
        };
        let a = analyze_path(&trace, &code);
        assert!(a.preexec_pcs.contains(&0));
        assert!(!a.preexec_pcs.contains(&2), "SLOAD is never pre-executed");
        assert!(
            !a.preexec_pcs.contains(&5),
            "MSTORE of unknown value is not"
        );
    }

    #[test]
    fn chunked_loading_counts_path_bytes() {
        let (code, trace) = fig11_like();
        let a = analyze_path(&trace, &code);
        assert_eq!(a.full_bytes, code.len() as u64);
        assert!(a.loaded_bytes <= a.full_bytes);
        assert!(a.loaded_bytes > 0);
    }

    #[test]
    fn contract_table_learns_and_transforms() {
        let (code, trace) = fig11_like();
        let mut table = ContractTable::new();
        assert!(!table.is_hotspot(&trace));
        table.record_invocation(&trace);
        table.record_invocation(&trace);
        table.learn(&trace, &code);
        assert!(table.is_hotspot(&trace));
        assert_eq!(table.len(), 1);
        let key = (Address::from_low_u64(7), [0xaa, 0xbb, 0xcc, 0xdd]);
        assert_eq!(table.invocations(&key), 2);
        assert_eq!(table.top_keys(5), vec![key]);

        let (tr, loaded) = table.transforms_for(&trace);
        assert!(loaded.is_some());
        // The pre-executed prefix covers everything before the SLOAD
        // (steps 0..=10); the SLOAD itself is not skipped.
        assert!(tr.skip_steps.contains(&0));
        assert!(tr.skip_steps.contains(&10));
        assert!(!tr.skip_steps.contains(&11));
        // Skipped steps are not double-counted as eliminated.
        assert!(!tr
            .eliminated_pushes
            .iter()
            .any(|s| tr.skip_steps.contains(&s)));
        // The SLOAD at step index 11 is prefetched.
        assert!(tr.prefetched_steps.contains(&11));
    }

    #[test]
    fn non_hotspot_gets_noop_transforms() {
        let (_, trace) = fig11_like();
        let table = ContractTable::new();
        let (tr, loaded) = table.transforms_for(&trace);
        assert!(tr.skip_steps.is_empty());
        assert_eq!(loaded, None);
    }
}
