//! The decoded-bytecode (DB) cache and its fill unit (paper §3.3.3–3.3.5,
//! Fig. 8b).
//!
//! The fill unit collects decoded micro-ops into cache lines. A line holds
//! at most one instruction per functional unit (one slot per Table 3
//! category), WAR/WAW hazards are absorbed by the R/W sequence numbers,
//! one RAW per line can be forwarded between reconfigurable units (the F
//! field), and control transfers end the line (the next-instruction
//! address is recorded at the end). All instructions of a hit line issue
//! in a single cycle with their gas sum (G) deducted at once.

use crate::config::DbCacheConfig;
use crate::funit::{is_reconfigurable, stack_effect};
use crate::stream::MicroOp;
use mtpu_evm::opcode::Opcode;
use mtpu_primitives::B256;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Identity of a cache line: the executing code plus the address of the
/// first filled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineKey {
    /// Code identity (hash of the contract bytecode).
    pub code: B256,
    /// PC of the first instruction in the line.
    pub pc: u32,
}

/// A finalized DB-cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The line's identity.
    pub key: LineKey,
    /// Opcodes and pcs of the constituent micro-ops, in order. (`pc`
    /// relative identity is enough to validate a hit against the stream;
    /// per-issue operands live in the stream itself.)
    pub ops: Vec<(u32, Opcode, bool)>,
    /// Whether the line used its one forwarding slot (F field).
    pub forwarded: bool,
}

impl Line {
    /// Number of instructions issued together on a hit.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for the (never stored) empty line.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Maximum micro-ops per line (the line's fixed-length field budget:
/// 234 KiB / 2048 lines in Table 5 bounds a line at a handful of slots).
pub const MAX_LINE_OPS: usize = 8;

/// Why the fill unit closed a line before adding an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStop {
    /// The op's functional-unit slot is already occupied.
    UnitConflict,
    /// A second RAW dependency (or an unforwardable first RAW).
    RawDependency,
    /// The previous op was a control transfer / frame end.
    BlockEnd,
}

/// Deepest line-relative stack the fill unit can reach: a `SWAP16` pads
/// it to 17 entries and each of a line's ops pushes at most one more.
const LINE_STACK: usize = 17 + MAX_LINE_OPS;

/// The fill unit: builds one line at a time from the miss stream. Its
/// state is inline, so filling allocates nothing until a line is stored.
#[derive(Debug, Clone)]
pub struct LineBuilder {
    code: B256,
    ops: [(u32, Opcode, bool); MAX_LINE_OPS],
    len: usize,
    /// One slot per `OpCategory`.
    used_units: u16,
    /// Line-relative stack, top first: `Some(i)` = produced by line op
    /// `i`, `None` = a value from before the line. Only the first `depth`
    /// entries are live.
    stack: [Option<u8>; LINE_STACK],
    depth: usize,
    forward_used: bool,
    forwarding_enabled: bool,
    closed: bool,
}

impl LineBuilder {
    /// Starts an empty line for `code`.
    pub fn new(code: B256, forwarding_enabled: bool) -> Self {
        LineBuilder {
            code,
            ops: [(0, Opcode::Stop, false); MAX_LINE_OPS],
            len: 0,
            used_units: 0,
            stack: [None; LINE_STACK],
            depth: 0,
            forward_used: false,
            forwarding_enabled,
            closed: false,
        }
    }

    /// Number of ops currently in the line.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no op has been added yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The line op that produced stack position `pos` (1 = top), if any.
    fn producer_at(&self, pos: usize) -> Option<u8> {
        if pos <= self.depth {
            self.stack[pos - 1]
        } else {
            None
        }
    }

    fn push_top(&mut self, v: Option<u8>) {
        self.stack.copy_within(0..self.depth, 1);
        self.stack[0] = v;
        self.depth += 1;
    }

    /// Attempts to append `uop`. On `Err`, the line must be finalized and
    /// a new one started with this op.
    pub fn try_add(&mut self, uop: &MicroOp) -> Result<(), FillStop> {
        if self.closed {
            return Err(FillStop::BlockEnd);
        }
        if self.len >= MAX_LINE_OPS {
            return Err(FillStop::UnitConflict);
        }
        // Stack-manipulation instructions do not occupy a functional-unit
        // slot: the line's R/W sequence numbers encode their aggregate
        // effect (paper §3.3.4), so any number may share a line — only
        // their data dependencies constrain filling.
        let is_stack = uop.op.category() == mtpu_evm::OpCategory::Stack;
        let unit_bit = 1u16 << uop.op.category().index();
        if !is_stack && self.used_units & unit_bit != 0 {
            return Err(FillStop::UnitConflict);
        }
        let eff = stack_effect(uop.op);
        // A folded/const operand comes from the synthetic instruction or
        // the Constants Table: it removes the read of the top operand.
        // The constant replaces the value that would have been pushed on
        // top; remaining operands shift up one position.
        let reads = match eff.reads() {
            [rest @ .., _] if uop.const_operand => rest,
            all => all,
        };
        // RAW dependencies on earlier line ops: how many, and the first.
        let (mut raw, mut producer) = (0, 0u8);
        for &pos in reads {
            if let Some(p) = self.producer_at(pos) {
                if raw == 0 {
                    producer = p;
                }
                raw += 1;
            }
        }
        if raw > 0 {
            let single = raw == 1;
            let producer_ok = single && is_reconfigurable(self.ops[producer as usize].1);
            let consumer_ok = is_reconfigurable(uop.op);
            let can_forward = self.forwarding_enabled
                && !self.forward_used
                && single
                && producer_ok
                && consumer_ok;
            if can_forward {
                self.forward_used = true;
            } else {
                return Err(FillStop::RawDependency);
            }
        }
        // Accept: update unit slots and the symbolic stack.
        if !is_stack {
            self.used_units |= unit_bit;
        }
        let idx = self.len as u8;
        self.ops[self.len] = (uop.pc, uop.op, uop.const_operand);
        self.len += 1;

        if let Some(n) = eff.dup_depth {
            self.push_top(self.producer_at(n));
        } else if let Some(n) = eff.swap_depth {
            while self.depth < n + 1 {
                self.stack[self.depth] = None;
                self.depth += 1;
            }
            self.stack.swap(0, n);
        } else {
            let pops = if uop.const_operand && eff.pops > 0 {
                eff.pops - 1
            } else {
                eff.pops
            };
            let pops = pops.min(self.depth);
            self.stack.copy_within(pops..self.depth, 0);
            self.depth -= pops;
            for _ in 0..eff.pushes {
                self.push_top(Some(idx));
            }
        }
        // Control transfers complete the line (next-PC recorded).
        if uop.op.is_block_end() || uop.op.category() == mtpu_evm::OpCategory::ContextSwitching {
            self.closed = true;
        }
        Ok(())
    }

    /// Finalizes the line, returning it when it holds at least two
    /// instructions (single-instruction lines are not stored — paper
    /// §3.4.1 — the caller records them in the path side table instead).
    pub fn finish(self) -> Option<Line> {
        if self.len < 2 {
            return None;
        }
        Some(Line {
            key: LineKey {
                code: self.code,
                pc: self.ops[0].0,
            },
            ops: self.ops[..self.len].to_vec(),
            forwarded: self.forward_used,
        })
    }
}

#[derive(Debug, Clone)]
struct Entry {
    line: Line,
    lru: u64,
}

/// Cumulative DB-cache statistics (satellite of the Table 7 metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbCacheStats {
    /// Lookups that found a resident line with the key's tag. The
    /// pipeline validates such a line against the upcoming stream and
    /// issues a mismatch as a miss; it still counts here.
    pub hits: u64,
    /// Total lookups.
    pub lookups: u64,
    /// Lines stored by the fill unit.
    pub inserts: u64,
    /// Lines displaced by LRU replacement.
    pub evictions: u64,
    /// Lines currently resident.
    pub resident: usize,
}

impl DbCacheStats {
    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Hit ratio in `[0, 1]` (0 when no lookups happened).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Set-associative, LRU-replaced DB cache.
#[derive(Debug, Clone)]
pub struct DbCache {
    sets: Vec<Vec<Entry>>,
    ways: usize,
    /// The `LineKey` hash state after its `code` field, for the code
    /// looked up last: a lookup in the same code hashes only the pc.
    code_hasher: Option<(B256, DefaultHasher)>,
    tick: u64,
    hits: u64,
    lookups: u64,
    inserts: u64,
    evictions: u64,
}

impl DbCache {
    /// Creates a cache with `cfg.entries` total lines.
    pub fn new(cfg: DbCacheConfig) -> Self {
        let ways = cfg.ways.max(1).min(cfg.entries.max(1));
        let set_count = (cfg.entries / ways).max(1);
        DbCache {
            sets: vec![Vec::new(); set_count],
            ways,
            code_hasher: None,
            tick: 0,
            hits: 0,
            lookups: 0,
            inserts: 0,
            evictions: 0,
        }
    }

    /// The set of `key`: `DefaultHasher` over an explicit byte stream —
    /// `write_usize(32)`, the 32 bytes of `code`, then `write_u32(pc)` —
    /// resumed from the cached state after `code`. The stream is spelled
    /// out rather than taken from `LineKey`'s `Hash`, so no change to a
    /// primitive's `Hash` can move it. The index must not change: it
    /// decides which lines conflict, and with them every simulated value.
    /// It models a
    /// fixed hardware index function, so it stays on the unseeded
    /// `DefaultHasher` rather than the per-process seeded
    /// [`FastMap`](mtpu_primitives::map::FastMap) hasher, whose sets would
    /// move from run to run; `set_index_is_pinned` holds its literal values.
    fn set_index(&mut self, key: &LineKey) -> usize {
        let state = match &mut self.code_hasher {
            Some((code, state)) if *code == key.code => state,
            slot => {
                let mut state = DefaultHasher::new();
                state.write_usize(32);
                state.write(key.code.as_bytes());
                &mut slot.insert((key.code, state)).1
            }
        };
        let mut h = state.clone();
        h.write_u32(key.pc);
        (h.finish() as usize) % self.sets.len()
    }

    /// Looks up a line, updating LRU and hit statistics.
    pub fn lookup(&mut self, key: &LineKey) -> Option<&Line> {
        self.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(key);
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.line.key == *key) {
            e.lru = tick;
            self.hits += 1;
            Some(&e.line)
        } else {
            None
        }
    }

    /// Inserts a line, evicting the set's LRU entry when full.
    pub fn insert(&mut self, line: Line) {
        self.tick += 1;
        self.inserts += 1;
        let idx = self.set_index(&line.key);
        let ways = self.ways;
        let tick = self.tick;
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.line.key == line.key) {
            e.line = line;
            e.lru = tick;
            return;
        }
        if set.len() >= ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("nonempty set");
            set.swap_remove(victim);
            self.evictions += 1;
        }
        set.push(Entry { line, lru: tick });
    }

    /// Flushes all lines (context reconstruction without redundancy
    /// optimization).
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Lines currently resident.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Cumulative statistics since construction.
    pub fn stats(&self) -> DbCacheStats {
        DbCacheStats {
            hits: self.hits,
            lookups: self.lookups,
            inserts: self.inserts,
            evictions: self.evictions,
            resident: self.resident(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uop(pc: u32, op: Opcode) -> MicroOp {
        MicroOp {
            step: pc,
            frame: 0,
            pc,
            op,
            const_operand: false,
            insn_count: 1,
            prefetched: false,
        }
    }

    fn folded(pc: u32, op: Opcode) -> MicroOp {
        MicroOp {
            const_operand: true,
            insn_count: 2,
            ..uop(pc, op)
        }
    }

    #[test]
    fn unit_conflict_closes_line() {
        let mut b = LineBuilder::new(B256::ZERO, true);
        b.try_add(&uop(0, Opcode::Caller)).unwrap();
        // CALLER and CALLDATASIZE share the fixed-access unit.
        assert_eq!(
            b.try_add(&uop(1, Opcode::Calldatasize)),
            Err(FillStop::UnitConflict)
        );
    }

    #[test]
    fn raw_without_forwarding_closes_line() {
        let mut b = LineBuilder::new(B256::ZERO, false);
        b.try_add(&uop(0, Opcode::Push1)).unwrap();
        // ISZERO consumes the pushed value -> RAW, no forwarding.
        assert_eq!(
            b.try_add(&uop(2, Opcode::Iszero)),
            Err(FillStop::RawDependency)
        );
    }

    #[test]
    fn one_raw_forwardable_between_reconfigurable_units() {
        let mut b = LineBuilder::new(B256::ZERO, true);
        b.try_add(&uop(0, Opcode::Push1)).unwrap();
        b.try_add(&uop(2, Opcode::Iszero)).unwrap(); // forwarded
                                                     // A second RAW (ADD consumes the ISZERO result) cannot be
                                                     // forwarded: the F slot is taken.
        assert_eq!(
            b.try_add(&uop(3, Opcode::Add)),
            Err(FillStop::RawDependency)
        );
        let line = b.finish().expect("two ops stored");
        assert!(line.forwarded);
        assert_eq!(line.len(), 2);
    }

    #[test]
    fn multiple_independent_stack_ops_share_line() {
        // The R/W sequence numbers absorb stack traffic: several PUSHes
        // coexist in one line.
        let mut b = LineBuilder::new(B256::ZERO, true);
        b.try_add(&uop(0, Opcode::Push1)).unwrap();
        b.try_add(&uop(2, Opcode::Push1)).unwrap();
        b.try_add(&uop(4, Opcode::Push1)).unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn line_capacity_bounded() {
        let mut b = LineBuilder::new(B256::ZERO, true);
        for i in 0..MAX_LINE_OPS {
            b.try_add(&uop(i as u32 * 2, Opcode::Push1)).unwrap();
        }
        assert_eq!(
            b.try_add(&uop(99, Opcode::Push1)),
            Err(FillStop::UnitConflict)
        );
    }

    #[test]
    fn no_forward_for_nonreconfigurable_consumer() {
        let mut b = LineBuilder::new(B256::ZERO, true);
        b.try_add(&uop(0, Opcode::Push1)).unwrap();
        // SLOAD consumes the pushed key but the storage unit is not
        // reconfigurable.
        assert_eq!(
            b.try_add(&uop(2, Opcode::Sload)),
            Err(FillStop::RawDependency)
        );
    }

    #[test]
    fn folding_example_from_paper() {
        // Paper §3.3.4: PUSH4 id; EQ | PUSH2 addr; JUMPI — after folding
        // the first pair and forwarding EQ->JUMPI, all fit in one line.
        let mut b = LineBuilder::new(B256::ZERO, true);
        // Folded PUSH4+EQ: reads only the pre-line stack (selector), no RAW.
        b.try_add(&folded(0, Opcode::Eq)).unwrap();
        // Folded PUSH2+JUMPI: reads the EQ flag -> one RAW, forwarded.
        b.try_add(&folded(6, Opcode::Jumpi)).unwrap();
        let line = b.finish().expect("line of 2 synthetic ops");
        assert_eq!(line.len(), 2);
        assert!(line.forwarded);
        // The four original instructions issue in one cycle.
        assert_eq!(line.ops.iter().len(), 2);
    }

    #[test]
    fn independent_ops_share_line() {
        let mut b = LineBuilder::new(B256::ZERO, true);
        // Values already on the pre-line stack: ADD reads pre-line, then
        // CALLER (no reads), then PUSH (no reads) — three units, no RAW.
        b.try_add(&uop(0, Opcode::Add)).unwrap();
        b.try_add(&uop(1, Opcode::Caller)).unwrap();
        b.try_add(&uop(2, Opcode::Push1)).unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn block_end_closes_line() {
        let mut b = LineBuilder::new(B256::ZERO, true);
        b.try_add(&uop(0, Opcode::Jump)).unwrap();
        assert_eq!(b.try_add(&uop(5, Opcode::Caller)), Err(FillStop::BlockEnd));
        // Single-op lines are not stored.
        assert!(b.finish().is_none());
    }

    #[test]
    fn swap_tracks_producers() {
        let mut b = LineBuilder::new(B256::ZERO, true);
        b.try_add(&uop(0, Opcode::Push1)).unwrap();
        // SWAP1 reads the pushed top -> RAW (forwardable once).
        b.try_add(&uop(2, Opcode::Swap1)).unwrap();
        // After the swap the produced value sits at depth 2; DUP2 reads it
        // -> a second RAW -> close.
        assert_eq!(
            b.try_add(&uop(3, Opcode::Dup2)),
            Err(FillStop::RawDependency)
        );
    }

    #[test]
    fn cache_lru_eviction() {
        let mut c = DbCache::new(DbCacheConfig {
            entries: 2,
            ways: 2,
        });
        let mk = |pc: u32| {
            let mut b = LineBuilder::new(B256::ZERO, true);
            b.try_add(&uop(pc, Opcode::Add)).unwrap();
            b.try_add(&uop(pc + 1, Opcode::Caller)).unwrap();
            b.finish().unwrap()
        };
        c.insert(mk(0));
        c.insert(mk(10));
        assert!(c
            .lookup(&LineKey {
                code: B256::ZERO,
                pc: 0
            })
            .is_some());
        // Insert a third line: evicts pc 10 (LRU after the pc-0 touch),
        // assuming single-set geometry.
        c.insert(mk(20));
        assert_eq!(c.resident(), 2);
        let s = c.stats();
        assert_eq!((s.hits, s.lookups), (1, 1));
        assert_eq!(s.misses(), 0);
        assert_eq!(s.inserts, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident, 2);
        assert!((s.hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn set_index_is_the_hash_of_the_whole_key() {
        let mut c = DbCache::new(DbCacheConfig {
            entries: 2048,
            ways: 4,
        });
        let codes = [B256::ZERO, B256::keccak(b"a"), B256::keccak(b"b")];
        // Alternate codes so the cached code state is both reused and
        // replaced.
        for i in 0..300u32 {
            let key = LineKey {
                code: codes[(i as usize / 7) % codes.len()],
                pc: i.wrapping_mul(2_654_435_761),
            };
            let mut h = DefaultHasher::new();
            h.write_usize(32);
            h.write(key.code.as_bytes());
            h.write_u32(key.pc);
            assert_eq!(c.set_index(&key), (h.finish() as usize) % 512, "{key:?}");
        }
    }

    #[test]
    fn set_index_is_pinned() {
        // The literal sets of fixed keys at 512 sets. A change to `B256`'s
        // derived `Hash`, to `DefaultHasher` or to `set_index` fails here
        // by name before it moves a simulated table.
        let mut c = DbCache::new(DbCacheConfig {
            entries: 2048,
            ways: 4,
        });
        let pinned: [(B256, u32, usize); 8] = [
            (B256::ZERO, 0, 37),
            (B256::ZERO, 1, 83),
            (B256::ZERO, 0x5b, 287),
            (B256::ZERO, 24_576, 333),
            (B256::keccak(b"a"), 0, 197),
            (B256::keccak(b"a"), 7, 488),
            (B256::keccak(b"b"), 42, 244),
            (B256::keccak(b"b"), u32::MAX, 129),
        ];
        let got: Vec<usize> = pinned
            .iter()
            .map(|&(code, pc, _)| c.set_index(&LineKey { code, pc }))
            .collect();
        let want: Vec<usize> = pinned.iter().map(|&(_, _, set)| set).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cache_flush() {
        let mut c = DbCache::new(DbCacheConfig {
            entries: 8,
            ways: 2,
        });
        let mut b = LineBuilder::new(B256::ZERO, true);
        b.try_add(&uop(0, Opcode::Add)).unwrap();
        b.try_add(&uop(1, Opcode::Caller)).unwrap();
        c.insert(b.finish().unwrap());
        assert_eq!(c.resident(), 1);
        c.flush();
        assert_eq!(c.resident(), 0);
    }
}
