//! Conversion of a recorded execution trace into the decoded micro-op
//! stream the PU pipeline consumes, applying instruction folding
//! (paper §3.3.4) and the hotspot optimizer's stream transformations
//! (pre-execution skip, constant-instruction elimination, §3.4).

use mtpu_evm::opcode::Opcode;
use mtpu_evm::trace::TxTrace;

/// One decoded micro-operation flowing through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Index of the primary step in the source [`TxTrace::steps`].
    pub step: u32,
    /// Frame index (selects the executing code identity).
    pub frame: u32,
    /// PC of the first constituent instruction (lines are addressed by
    /// the address of the first filled instruction).
    pub pc: u32,
    /// The executing opcode (for a folded pair, the *second* op).
    pub op: Opcode,
    /// A `PUSH` was folded into this op: its immediate operand comes from
    /// the synthetic instruction, not the stack.
    pub const_operand: bool,
    /// Original instruction count this micro-op retires (1, or 2 for a
    /// folded pair).
    pub insn_count: u32,
    /// Storage operand resolved at pre-execution time and prefetched into
    /// the data cache (hotspot optimization §3.4.4).
    pub prefetched: bool,
}

/// Ops a preceding `PUSH` may fold into (the "most common patterns" the
/// fill unit's pattern detector checks, §3.3.4).
pub fn is_foldable_target(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Eq | Lt
            | Gt
            | Slt
            | Sgt
            | And
            | Or
            | Xor
            | Add
            | Sub
            | Shl
            | Shr
            | Jump
            | Jumpi
            | Mstore
            | Mload
            | Sload
    )
}

/// A set of small `u32`s — program counters or trace step indices — as a
/// dense bit vector: membership is a shift and a mask, and iteration is
/// ascending. Members are bounded by a code length or a trace length, so
/// the vector stays a few hundred words at most.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set that holds members below `bound` without growing.
    pub fn with_bound(bound: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(bound.div_ceil(64)),
            len: 0,
        }
    }

    /// Adds `v`; `true` when it was not yet a member.
    pub fn insert(&mut self, v: u32) -> bool {
        let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.len += fresh as usize;
        fresh
    }

    /// `true` when `v` is a member (by reference, as `HashSet::contains`
    /// takes it, so call sites read the same).
    pub fn contains(&self, v: &u32) -> bool {
        self.words
            .get(*v as usize / 64)
            .is_some_and(|w| w & (1u64 << (v % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    w as u32 * 64 + bit
                })
            })
        })
    }

    /// Keeps only the `cap` smallest members.
    pub fn truncate(&mut self, cap: usize) {
        if self.len <= cap {
            return;
        }
        let mut kept = 0;
        for word in &mut self.words {
            let ones = word.count_ones() as usize;
            if kept + ones <= cap {
                kept += ones;
                continue;
            }
            // Clear this word's highest members until the count fits.
            while kept + word.count_ones() as usize > cap {
                *word &= !(1u64 << (63 - word.leading_zeros()));
            }
            kept = cap;
        }
        self.len = cap;
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut set = BitSet::default();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

/// Stream-level transformations requested by the hotspot optimizer.
#[derive(Debug, Clone, Default)]
pub struct StreamTransforms {
    /// Steps to drop entirely: the pre-executed Compare/Check chunks.
    pub skip_steps: BitSet,
    /// PUSH steps eliminated because their value moved to the Constants
    /// Table; the consuming instruction reads the table instead.
    pub eliminated_pushes: BitSet,
    /// Steps (consumers of eliminated pushes) whose operand comes from
    /// the Constants Table.
    pub const_operand_steps: BitSet,
    /// SLOAD steps whose data was prefetched before execution.
    pub prefetched_steps: BitSet,
}

impl StreamTransforms {
    /// No transformations (hotspot optimization off).
    pub fn none() -> Self {
        StreamTransforms::default()
    }
}

/// Statistics of a stream build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Steps dropped by pre-execution.
    pub skipped_preexec: u64,
    /// PUSH instructions eliminated into the Constants Table.
    pub eliminated: u64,
    /// PUSHes folded into their consumers.
    pub folded: u64,
}

/// Builds the micro-op stream for one transaction.
///
/// Order of transformations matches the hardware: pre-executed chunks
/// never reach the pipeline; constant-eliminated PUSHes are absent from
/// the fetched bytecode; folding happens in the fill unit on what remains.
pub fn build_stream(
    trace: &TxTrace,
    enable_folding: bool,
    tr: &StreamTransforms,
) -> (Vec<MicroOp>, StreamStats) {
    let mut stats = StreamStats::default();
    let mut out: Vec<MicroOp> = Vec::with_capacity(trace.steps.len());
    for (i, s) in trace.steps.iter().enumerate() {
        let i = i as u32;
        if tr.skip_steps.contains(&i) {
            stats.skipped_preexec += 1;
            continue;
        }
        if tr.eliminated_pushes.contains(&i) {
            stats.eliminated += 1;
            continue;
        }
        let next = MicroOp {
            step: i,
            frame: s.frame,
            pc: s.pc,
            op: s.opcode(),
            const_operand: tr.const_operand_steps.contains(&i),
            insn_count: 1,
            prefetched: tr.prefetched_steps.contains(&i),
        };
        // Fold a PUSH + target pair: adjacent survivors, same frame, and
        // the target actually consumes the pushed value (consecutive
        // pcs). A folded op is never a PUSH, so pairs do not chain.
        if let Some(cur) = out.last_mut().filter(|_| enable_folding) {
            let contiguous = next.frame == cur.frame
                && next.pc as usize == cur.pc as usize + 1 + cur.op.immediate_len();
            if cur.op.is_push()
                && !cur.const_operand
                && contiguous
                && is_foldable_target(next.op)
                && !next.const_operand
            {
                *cur = MicroOp {
                    step: next.step,
                    frame: cur.frame,
                    pc: cur.pc,
                    op: next.op,
                    const_operand: true,
                    insn_count: 2,
                    prefetched: next.prefetched,
                };
                stats.folded += 1;
                continue;
            }
        }
        out.push(next);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::trace::{TraceStep, TxTrace};

    fn trace_of(ops: &[(u32, Opcode)]) -> TxTrace {
        TxTrace {
            steps: ops
                .iter()
                .map(|&(pc, op)| TraceStep {
                    frame: 0,
                    pc,
                    op: op as u8,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn folds_push_eq_pair() {
        // PUSH4 sel (pc 0, imm 4) ; EQ (pc 5)
        let t = trace_of(&[(0, Opcode::Push4), (5, Opcode::Eq)]);
        let (s, st) = build_stream(&t, true, &StreamTransforms::none());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].op, Opcode::Eq);
        assert_eq!(s[0].pc, 0);
        assert!(s[0].const_operand);
        assert_eq!(s[0].insn_count, 2);
        assert_eq!(st.folded, 1);
    }

    #[test]
    fn no_fold_when_disabled_or_nonadjacent() {
        let t = trace_of(&[(0, Opcode::Push4), (5, Opcode::Eq)]);
        let (s, _) = build_stream(&t, false, &StreamTransforms::none());
        assert_eq!(s.len(), 2);

        // A jump between them (pc mismatch) prevents folding.
        let t = trace_of(&[(0, Opcode::Push4), (9, Opcode::Eq)]);
        let (s, _) = build_stream(&t, true, &StreamTransforms::none());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn fold_does_not_chain_pushes() {
        // PUSH1 a; PUSH1 b; ADD -> only the second PUSH folds.
        let t = trace_of(&[(0, Opcode::Push1), (2, Opcode::Push1), (4, Opcode::Add)]);
        let (s, st) = build_stream(&t, true, &StreamTransforms::none());
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].op, Opcode::Push1);
        assert_eq!(s[1].op, Opcode::Add);
        assert!(s[1].const_operand);
        assert_eq!(st.folded, 1);
    }

    #[test]
    fn transforms_apply() {
        let t = trace_of(&[
            (0, Opcode::Push1),
            (2, Opcode::Calldataload),
            (3, Opcode::Push1),
            (5, Opcode::Sload),
        ]);
        let tr = StreamTransforms {
            skip_steps: [0u32, 1].into_iter().collect(),
            eliminated_pushes: [2u32].into_iter().collect(),
            const_operand_steps: [3u32].into_iter().collect(),
            prefetched_steps: [3u32].into_iter().collect(),
        };
        let (s, st) = build_stream(&t, true, &tr);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].op, Opcode::Sload);
        assert!(s[0].const_operand);
        assert!(s[0].prefetched);
        assert_eq!(st.skipped_preexec, 2);
        assert_eq!(st.eliminated, 1);
        assert_eq!(st.folded, 0);
    }

    #[test]
    fn bit_set_matches_a_hash_set() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut dense = BitSet::with_bound(64);
        let mut reference = std::collections::HashSet::new();
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 700) as u32;
            assert_eq!(dense.insert(v), reference.insert(v));
        }
        assert_eq!(dense.len(), reference.len());
        for v in 0..800 {
            assert_eq!(dense.contains(&v), reference.contains(&v), "{v}");
        }
        let mut sorted: Vec<u32> = reference.into_iter().collect();
        sorted.sort_unstable();
        assert_eq!(dense.iter().collect::<Vec<_>>(), sorted);

        // `truncate` keeps the lowest members, as a sort-and-cut does.
        for cap in [sorted.len() + 1, sorted.len(), 130, 64, 1, 0] {
            let mut capped = dense.clone();
            capped.truncate(cap);
            let want = &sorted[..cap.min(sorted.len())];
            assert_eq!(capped.iter().collect::<Vec<_>>(), want);
            assert_eq!(capped.len(), want.len());
        }
        assert!(BitSet::default().is_empty());
        assert!(!BitSet::default().contains(&0));
    }

    #[test]
    fn jumpi_folds() {
        let t = trace_of(&[(0, Opcode::Push2), (3, Opcode::Jumpi)]);
        let (s, _) = build_stream(&t, true, &StreamTransforms::none());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].op, Opcode::Jumpi);
    }
}
