//! Analysis-time superinstruction fusion: the real-interpreter counterpart
//! of the simulated hotspot pipeline in `mtpu::hotspot`.
//!
//! [`build`] scans a bytecode once (it runs inside [`crate::analysis::CodeAnalysis::analyze`],
//! so the cost amortizes through the shared [`crate::analysis::AnalysisCache`])
//! and emits a [`FusedTable`]: a per-pc side-table of [`FusedSpec`]s the
//! dispatch loop can execute in a single step instead of two-to-dozens of
//! individual opcode dispatches. The rule set, most-specific first:
//!
//! 1. **Selector dispatch** — a chain of Solidity dispatcher arms
//!    (`DUP1; PUSH4 sel; EQ; PUSHn dest; JUMPI` repeated) collapses into one
//!    [`FusedKind::SelectorDispatch`] that compares the selector word on top
//!    of the stack against every arm and jumps to the matching,
//!    pre-validated destination.
//! 2. **Selector load** — the dispatcher prologue
//!    `PUSH1 0; CALLDATALOAD; PUSH1 0xE0; SHR` becomes
//!    [`FusedKind::LoadSelector`].
//! 3. **Constant folding** — a statically-computable run (pushes plus pure
//!    arithmetic/logic, consuming only values produced inside the run) that
//!    nets exactly one value collapses to [`FusedKind::PushConst`], indexing
//!    a per-analysis constants table. This mirrors the stack-backtracked
//!    constant identification of `mtpu::hotspot::analysis`, evaluated ahead
//!    of time instead of per trace.
//! 4. **Branch pairs/triples** — `ISZERO; PUSHn; JUMPI` (the `require()`
//!    shape), `PUSHn; JUMP` and `PUSHn; JUMPI`, with the jump target
//!    validated against the jumpdest bitmap at analysis time.
//! 5. **Storage pairs** — `PUSHn; SLOAD` (constant slot) and `DUPn; SLOAD`.
//! 6. **Memory pairs** — `PUSHn off; MLOAD` and `PUSHn off; MSTORE` with a
//!    constant offset: the memory-expansion bound is known at analysis
//!    time, so the dispatch loop charges the exact same expansion gas the
//!    unfused pair would, in one step.
//! 7. **`SWAP1; POP`** — the compiler's "drop the second value" idiom.
//!
//! # Gas exactness and suppression conditions
//!
//! Every fused step charges exactly the sum of its constituents' static
//! costs (computed from [`OP_TABLE`], the same table the unfused loop
//! charges from). Instructions with *dynamic* gas — memory expansion, EXP,
//! SHA3, copies, SSTORE, calls — are never fused constituents, with one
//! deliberate exception: `MLOAD`/`MSTORE` behind a constant-offset `PUSH`
//! (rule 6), whose only dynamic component is memory expansion over a
//! statically-known `[offset, offset+32)` range; the dispatch loop charges
//! that expansion with the same `mem_charge` sequence as the unfused pair,
//! so the total is bit-identical. The structural rule is enforced via
//! [`gas::has_dynamic_gas`] in `requirements` (the memory rule computes
//! its requirements manually). Likewise no rule accepts
//! `JUMPDEST` as an interior constituent, so a fused region can never be
//! jumped into halfway: every interior pc holds a non-`JUMPDEST` byte and
//! therefore can't appear in the jumpdest bitmap. Together with the
//! "exceptions consume all frame gas" rule, this keeps receipts, logs and
//! state roots bit-identical fused vs unfused (see DESIGN.md §14 for the
//! full argument).

use crate::analysis::OP_TABLE;
use crate::gas;
use crate::opcode::Opcode;
use mtpu_primitives::U256;

/// Most instructions a constant-folded region may span, bounding the
/// builder's lookahead to O(code · MAX_FOLD_OPS).
pub const MAX_FOLD_OPS: usize = 32;
/// Most arms a single fused dispatcher chain may absorb.
pub const MAX_DISPATCH_ARMS: usize = 256;
/// Sentinel in the pc index meaning "no fused site starts here".
const NO_FUSION: u32 = u32::MAX;

/// One arm of a fused Solidity dispatcher chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorArm {
    /// The 4-byte function selector this arm tests for.
    pub selector: u32,
    /// Jump destination when the selector matches.
    pub target: u32,
    /// Whether `target` is a valid `JUMPDEST` (pre-validated at analysis
    /// time against the jumpdest bitmap).
    pub valid: bool,
    /// Static gas of this arm plus all arms before it — what the unfused
    /// loop would have charged by the time this arm's `JUMPI` takes.
    pub gas_to_here: u32,
    /// Byte length of this arm (`9 + n` for a `PUSHn` destination).
    pub len: u16,
}

/// Semantics of one fused superinstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusedKind {
    /// `PUSHn dest; JUMP` with the destination pre-validated.
    PushJump {
        /// Jump destination.
        target: u32,
        /// Whether `target` is a valid `JUMPDEST`.
        valid: bool,
    },
    /// `PUSHn dest; JUMPI` — pops only the condition.
    PushJumpi {
        /// Jump destination.
        target: u32,
        /// Whether `target` is a valid `JUMPDEST`.
        valid: bool,
    },
    /// `ISZERO; PUSHn dest; JUMPI` — jump when the popped value is zero
    /// (the `require()` shape).
    IszeroPushJumpi {
        /// Jump destination.
        target: u32,
        /// Whether `target` is a valid `JUMPDEST`.
        valid: bool,
    },
    /// `PUSH1 0; CALLDATALOAD; PUSH1 0xE0; SHR` — push the call's 4-byte
    /// selector as a word.
    LoadSelector,
    /// A chain of dispatcher arms: match the selector word on top of the
    /// stack (without consuming it) against each arm in order.
    SelectorDispatch {
        /// The arms, in code order.
        arms: Box<[SelectorArm]>,
    },
    /// A statically-folded region: push one precomputed constant.
    PushConst {
        /// Index into the per-analysis constants table.
        idx: u32,
    },
    /// `PUSHn key; SLOAD` — load a statically-known storage slot.
    PushSload {
        /// Index of the slot key in the constants table.
        idx: u32,
    },
    /// `DUPn; SLOAD` — load the slot named by the n-th stack element.
    DupSload {
        /// 1-based depth of the key on the stack.
        depth: u8,
    },
    /// `PUSHn off; MLOAD` — load the memory word at a constant offset.
    /// Spec gas covers only the static costs; the dispatch loop charges
    /// memory expansion over `[offset, offset + 32)` exactly like the
    /// unfused `MLOAD`.
    PushMload {
        /// The constant byte offset (bounded at fuse time so
        /// `offset + 32` cannot overflow).
        offset: u32,
    },
    /// `PUSHn off; MSTORE` — store the popped word at a constant offset,
    /// with dispatch-time memory expansion as in [`FusedKind::PushMload`].
    PushMstore {
        /// The constant byte offset (bounded at fuse time).
        offset: u32,
    },
    /// `SWAP1; POP` — drop the second-from-top value.
    SwapPop,
}

/// One fused site: the dispatch loop's single-step replacement for a run
/// of constituent instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedSpec {
    /// Sum of the constituents' static gas.
    pub gas: u32,
    /// Minimum caller-provided stack depth (max over the constituents of
    /// their requirement at that point in the run).
    pub need: u16,
    /// Peak net stack growth over the run — the overflow precheck is
    /// `sp + grow <= STACK_LIMIT`, matching the per-op prechecks exactly.
    pub grow: u16,
    /// Byte length of the fused region.
    pub len: u16,
    /// What the fused step does.
    pub kind: FusedKind,
}

/// Per-bytecode fusion side-table: a pc-indexed map of fused sites plus
/// the constants table that `PushConst`/`PushSload` sites reference.
#[derive(Debug, Default)]
pub struct FusedTable {
    index: Box<[u32]>,
    specs: Box<[FusedSpec]>,
    consts: Box<[U256]>,
    folded: u32,
}

impl FusedTable {
    /// The fused site starting at `pc`, if any. Interior pcs of a fused
    /// region have no entry (they are unreachable while fusion is on).
    #[inline]
    pub fn spec_at(&self, pc: usize) -> Option<&FusedSpec> {
        match self.index.get(pc) {
            Some(&i) if i != NO_FUSION => Some(&self.specs[i as usize]),
            _ => None,
        }
    }

    /// Looks up a pre-evaluated constant.
    #[inline]
    pub fn const_at(&self, idx: u32) -> U256 {
        self.consts[idx as usize]
    }

    /// Number of fused sites in this bytecode.
    pub fn sites(&self) -> usize {
        self.specs.len()
    }

    /// Number of constant-folded regions (`PushConst` sites).
    pub fn folded_consts(&self) -> usize {
        self.folded as usize
    }
}

/// Decodes the immediate of the PUSH at `pc` exactly like the dispatch
/// loop: short reads at end-of-code are zero-padded on the right.
pub(crate) fn push_immediate(code: &[u8], pc: usize, n: usize) -> U256 {
    let end = (pc + 1 + n).min(code.len());
    let v = U256::from_be_slice(&code[pc + 1..end]);
    if end - (pc + 1) < n {
        v << (8 * (n - (end - pc - 1)))
    } else {
        v
    }
}

/// Combined precheck requirements of executing `ops` back to back:
/// `(need, grow, gas)` such that checking `sp >= need` and
/// `sp + grow <= STACK_LIMIT` once is equivalent to the unfused loop's
/// per-op checks, and `gas` is the sum of static costs.
fn requirements(ops: &[Opcode]) -> (u16, u16, u32) {
    let mut depth = 0i32;
    let mut need = 0i32;
    let mut grow = 0i32;
    let mut gas_sum = 0u32;
    for &op in ops {
        debug_assert!(
            !gas::has_dynamic_gas(op),
            "fused constituents must have fully static gas"
        );
        let info = &OP_TABLE[op as u8 as usize];
        need = need.max(info.min_stack as i32 - depth);
        depth += info.net as i32;
        grow = grow.max(depth);
        gas_sum += info.static_gas;
    }
    (need.max(0) as u16, grow.max(0) as u16, gas_sum)
}

/// Interns `v` into the constants table, deduplicating.
fn intern_const(consts: &mut Vec<U256>, v: U256) -> u32 {
    if let Some(i) = consts.iter().position(|c| *c == v) {
        return i as u32;
    }
    consts.push(v);
    (consts.len() - 1) as u32
}

/// Resolves a statically-known branch target against the jumpdest bitmap.
fn branch_target(v: U256, is_jumpdest: &impl Fn(usize) -> bool) -> (u32, bool) {
    match v.try_to_u64() {
        Some(t) if t <= u32::MAX as u64 => (t as u32, is_jumpdest(t as usize)),
        // Anything wider than u32 can never land on a jumpdest (code is
        // capped far below 4 GiB), matching the unfused InvalidJump.
        _ => (0, false),
    }
}

fn is_push_byte(b: u8) -> bool {
    (0x60..=0x7f).contains(&b)
}

/// Scans `code` and builds its fusion side-table. `is_jumpdest` must be
/// the final jumpdest predicate of the same bytecode.
pub fn build(code: &[u8], is_jumpdest: impl Fn(usize) -> bool) -> FusedTable {
    if code.is_empty() {
        return FusedTable::default();
    }
    let mut specs: Vec<FusedSpec> = Vec::new();
    let mut consts: Vec<U256> = Vec::new();
    let mut folded = 0u32;
    let mut index = vec![NO_FUSION; code.len()];
    let mut pc = 0usize;
    while pc < code.len() {
        let info = &OP_TABLE[code[pc] as usize];
        if !info.defined {
            pc += 1;
            continue;
        }
        match try_fuse_at(code, pc, &is_jumpdest, &mut consts, &mut folded) {
            Some(spec) => {
                index[pc] = specs.len() as u32;
                pc += spec.len as usize;
                specs.push(spec);
            }
            None => pc += 1 + info.imm as usize,
        }
    }
    if specs.is_empty() && consts.is_empty() {
        return FusedTable::default();
    }
    FusedTable {
        index: index.into_boxed_slice(),
        specs: specs.into_boxed_slice(),
        consts: consts.into_boxed_slice(),
        folded,
    }
}

/// Tries every fusion rule at `pc`, most specific first.
fn try_fuse_at(
    code: &[u8],
    pc: usize,
    is_jumpdest: &impl Fn(usize) -> bool,
    consts: &mut Vec<U256>,
    folded: &mut u32,
) -> Option<FusedSpec> {
    if let Some(s) = try_selector_dispatch(code, pc, is_jumpdest) {
        return Some(s);
    }
    if let Some(s) = try_load_selector(code, pc) {
        return Some(s);
    }
    if let Some(s) = try_const_fold(code, pc, consts, folded) {
        return Some(s);
    }
    if let Some(s) = try_iszero_push_jumpi(code, pc, is_jumpdest) {
        return Some(s);
    }
    if let Some(s) = try_push_branch(code, pc, is_jumpdest) {
        return Some(s);
    }
    if let Some(s) = try_push_sload(code, pc, consts) {
        return Some(s);
    }
    if let Some(s) = try_push_mem(code, pc) {
        return Some(s);
    }
    if let Some(s) = try_dup_sload(code, pc) {
        return Some(s);
    }
    try_swap_pop(code, pc)
}

/// One raw dispatcher arm: `DUP1; PUSH4 sel; EQ; PUSHn dest; JUMPI`.
fn match_arm(code: &[u8], q: usize) -> Option<(u32, U256, u16)> {
    if *code.get(q)? != Opcode::Dup1 as u8 || *code.get(q + 1)? != Opcode::Push4 as u8 {
        return None;
    }
    if *code.get(q + 6)? != Opcode::Eq as u8 {
        return None;
    }
    let pb = *code.get(q + 7)?;
    if !is_push_byte(pb) {
        return None;
    }
    let n = (pb - 0x5f) as usize;
    if *code.get(q + 8 + n)? != Opcode::Jumpi as u8 {
        return None;
    }
    let selector = u32::from_be_bytes([code[q + 2], code[q + 3], code[q + 4], code[q + 5]]);
    let dest = push_immediate(code, q + 7, n);
    Some((selector, dest, (9 + n) as u16))
}

fn try_selector_dispatch(
    code: &[u8],
    pc: usize,
    is_jumpdest: &impl Fn(usize) -> bool,
) -> Option<FusedSpec> {
    let mut arms: Vec<SelectorArm> = Vec::new();
    let mut ops: Vec<Opcode> = Vec::new();
    let mut q = pc;
    let mut gas_so_far = 0u32;
    while arms.len() < MAX_DISPATCH_ARMS {
        let Some((selector, dest, len)) = match_arm(code, q) else {
            break;
        };
        let push_op = Opcode::from_u8(code[q + 7]).expect("matched a PUSH byte");
        let arm_ops = [
            Opcode::Dup1,
            Opcode::Push4,
            Opcode::Eq,
            push_op,
            Opcode::Jumpi,
        ];
        let (_, _, arm_gas) = requirements(&arm_ops);
        gas_so_far += arm_gas;
        let (target, valid) = branch_target(dest, is_jumpdest);
        arms.push(SelectorArm {
            selector,
            target,
            valid,
            gas_to_here: gas_so_far,
            len,
        });
        ops.extend_from_slice(&arm_ops);
        q += len as usize;
    }
    if arms.is_empty() {
        return None;
    }
    let (need, grow, gas) = requirements(&ops);
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: (q - pc) as u16,
        kind: FusedKind::SelectorDispatch {
            arms: arms.into_boxed_slice(),
        },
    })
}

/// `PUSH1 0; CALLDATALOAD; PUSH1 0xE0; SHR`, byte-exact.
const LOAD_SELECTOR_BYTES: [u8; 6] = [0x60, 0x00, 0x35, 0x60, 0xe0, 0x1c];

fn try_load_selector(code: &[u8], pc: usize) -> Option<FusedSpec> {
    if code.len() < pc + LOAD_SELECTOR_BYTES.len()
        || code[pc..pc + LOAD_SELECTOR_BYTES.len()] != LOAD_SELECTOR_BYTES
    {
        return None;
    }
    let ops = [
        Opcode::Push1,
        Opcode::Calldataload,
        Opcode::Push1,
        Opcode::Shr,
    ];
    let (need, grow, gas) = requirements(&ops);
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: LOAD_SELECTOR_BYTES.len() as u16,
        kind: FusedKind::LoadSelector,
    })
}

/// Evaluates one pure, gas-static opcode on the abstract stack, mirroring
/// the interpreter's operand order exactly. Returns `false` when `op` is
/// outside the foldable set.
pub(crate) fn eval_pure(op: Opcode, st: &mut Vec<U256>) -> bool {
    use Opcode::*;
    fn pop2(st: &mut Vec<U256>) -> (U256, U256) {
        let a = st.pop().expect("min_stack prechecked");
        let b = st.pop().expect("min_stack prechecked");
        (a, b)
    }
    fn pop3(st: &mut Vec<U256>) -> (U256, U256, U256) {
        let (a, b) = pop2(st);
        let c = st.pop().expect("min_stack prechecked");
        (a, b, c)
    }
    let r = match op {
        Add => {
            let (a, b) = pop2(st);
            a.wrapping_add(b)
        }
        Mul => {
            let (a, b) = pop2(st);
            a.wrapping_mul(b)
        }
        Sub => {
            let (a, b) = pop2(st);
            a.wrapping_sub(b)
        }
        Div => {
            let (a, b) = pop2(st);
            a.evm_div(b)
        }
        Sdiv => {
            let (a, b) = pop2(st);
            a.evm_sdiv(b)
        }
        Mod => {
            let (a, b) = pop2(st);
            a.evm_rem(b)
        }
        Smod => {
            let (a, b) = pop2(st);
            a.evm_smod(b)
        }
        Addmod => {
            let (a, b, m) = pop3(st);
            a.addmod(b, m)
        }
        Mulmod => {
            let (a, b, m) = pop3(st);
            a.mulmod(b, m)
        }
        Signextend => {
            let (i, v) = pop2(st);
            v.signextend(i)
        }
        Lt => {
            let (a, b) = pop2(st);
            U256::from(a < b)
        }
        Gt => {
            let (a, b) = pop2(st);
            U256::from(a > b)
        }
        Slt => {
            let (a, b) = pop2(st);
            U256::from(a.signed_cmp(&b).is_lt())
        }
        Sgt => {
            let (a, b) = pop2(st);
            U256::from(a.signed_cmp(&b).is_gt())
        }
        Eq => {
            let (a, b) = pop2(st);
            U256::from(a == b)
        }
        Iszero => {
            let a = st.pop().expect("min_stack prechecked");
            U256::from(a.is_zero())
        }
        And => {
            let (a, b) = pop2(st);
            a & b
        }
        Or => {
            let (a, b) = pop2(st);
            a | b
        }
        Xor => {
            let (a, b) = pop2(st);
            a ^ b
        }
        Not => {
            let a = st.pop().expect("min_stack prechecked");
            !a
        }
        Byte => {
            let (i, v) = pop2(st);
            v.byte_be(i)
        }
        Shl => {
            let (s, v) = pop2(st);
            v.evm_shl(s)
        }
        Shr => {
            let (s, v) = pop2(st);
            v.evm_shr(s)
        }
        Sar => {
            let (s, v) = pop2(st);
            v.evm_sar(s)
        }
        // EXP is excluded (per-byte dynamic gas); everything else either
        // touches state/memory/context or is a control transfer.
        _ => return false,
    };
    st.push(r);
    true
}

/// Stack-backtracked constant folding: the longest run starting at `pc`
/// of pushes plus pure operators that consumes only values produced inside
/// the run and nets exactly one value.
fn try_const_fold(
    code: &[u8],
    pc: usize,
    consts: &mut Vec<U256>,
    folded: &mut u32,
) -> Option<FusedSpec> {
    let mut st: Vec<U256> = Vec::new();
    let mut ops: Vec<Opcode> = Vec::new();
    let mut q = pc;
    // (end pc, op count, folded value) of the best candidate so far.
    let mut best: Option<(usize, usize, U256)> = None;
    while ops.len() < MAX_FOLD_OPS && q < code.len() {
        let byte = code[q];
        let Some(op) = Opcode::from_u8(byte) else {
            break;
        };
        let next = q + 1 + OP_TABLE[byte as usize].imm as usize;
        if op.is_push() {
            st.push(push_immediate(code, q, op.immediate_len()));
        } else if op.is_dup() {
            let n = (byte - 0x7f) as usize;
            if n > st.len() {
                break;
            }
            st.push(st[st.len() - n]);
        } else if op.is_swap() {
            let n = (byte - 0x8f) as usize;
            if n >= st.len() {
                break;
            }
            let top = st.len() - 1;
            st.swap(top, top - n);
        } else if op == Opcode::Pop {
            if st.is_empty() {
                break;
            }
            st.pop();
        } else {
            if OP_TABLE[byte as usize].min_stack as usize > st.len() {
                break;
            }
            if !eval_pure(op, &mut st) {
                break;
            }
        }
        ops.push(op);
        q = next;
        if st.len() == 1 && ops.len() >= 2 {
            best = Some((q, ops.len(), st[0]));
        }
    }
    let (end, count, value) = best?;
    let (need, grow, gas) = requirements(&ops[..count]);
    debug_assert_eq!(need, 0, "a folded region consumes no caller operands");
    let idx = intern_const(consts, value);
    *folded += 1;
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: (end - pc) as u16,
        kind: FusedKind::PushConst { idx },
    })
}

fn try_iszero_push_jumpi(
    code: &[u8],
    pc: usize,
    is_jumpdest: &impl Fn(usize) -> bool,
) -> Option<FusedSpec> {
    if code[pc] != Opcode::Iszero as u8 {
        return None;
    }
    let pb = *code.get(pc + 1)?;
    if !is_push_byte(pb) {
        return None;
    }
    let n = (pb - 0x5f) as usize;
    if *code.get(pc + 2 + n)? != Opcode::Jumpi as u8 {
        return None;
    }
    let dest = push_immediate(code, pc + 1, n);
    let (target, valid) = branch_target(dest, is_jumpdest);
    let push_op = Opcode::from_u8(pb).expect("matched a PUSH byte");
    let (need, grow, gas) = requirements(&[Opcode::Iszero, push_op, Opcode::Jumpi]);
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: (3 + n) as u16,
        kind: FusedKind::IszeroPushJumpi { target, valid },
    })
}

fn try_push_branch(
    code: &[u8],
    pc: usize,
    is_jumpdest: &impl Fn(usize) -> bool,
) -> Option<FusedSpec> {
    let pb = code[pc];
    if !is_push_byte(pb) {
        return None;
    }
    let n = (pb - 0x5f) as usize;
    let branch = *code.get(pc + 1 + n)?;
    if branch != Opcode::Jump as u8 && branch != Opcode::Jumpi as u8 {
        return None;
    }
    let dest = push_immediate(code, pc, n);
    let (target, valid) = branch_target(dest, is_jumpdest);
    let push_op = Opcode::from_u8(pb).expect("matched a PUSH byte");
    let (kind, branch_op) = if branch == Opcode::Jump as u8 {
        (FusedKind::PushJump { target, valid }, Opcode::Jump)
    } else {
        (FusedKind::PushJumpi { target, valid }, Opcode::Jumpi)
    };
    let (need, grow, gas) = requirements(&[push_op, branch_op]);
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: (2 + n) as u16,
        kind,
    })
}

fn try_push_sload(code: &[u8], pc: usize, consts: &mut Vec<U256>) -> Option<FusedSpec> {
    let pb = code[pc];
    if !is_push_byte(pb) {
        return None;
    }
    let n = (pb - 0x5f) as usize;
    if *code.get(pc + 1 + n)? != Opcode::Sload as u8 {
        return None;
    }
    let key = push_immediate(code, pc, n);
    let idx = intern_const(consts, key);
    let push_op = Opcode::from_u8(pb).expect("matched a PUSH byte");
    let (need, grow, gas) = requirements(&[push_op, Opcode::Sload]);
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: (2 + n) as u16,
        kind: FusedKind::PushSload { idx },
    })
}

/// `PUSHn off; MLOAD` / `PUSHn off; MSTORE` with a constant offset.
///
/// [`requirements`] rejects dynamic-gas constituents, so the `(need, grow,
/// gas)` triple is computed by hand here: `gas` is the *static* sum only —
/// the dispatch loop adds the memory-expansion charge for
/// `[offset, offset + 32)` at execution time, where the live memory size
/// is known, using the same `mem_charge` sequence as the unfused ops.
fn try_push_mem(code: &[u8], pc: usize) -> Option<FusedSpec> {
    let pb = code[pc];
    if !is_push_byte(pb) {
        return None;
    }
    let n = (pb - 0x5f) as usize;
    let mem_op = *code.get(pc + 1 + n)?;
    let is_load = mem_op == Opcode::Mload as u8;
    if !is_load && mem_op != Opcode::Mstore as u8 {
        return None;
    }
    // Offsets whose word range does not fit in 32 bits stay unfused: the
    // unfused pair out-of-gasses on them, and keeping them off the fast
    // path means the fused arm never needs the overflow checks.
    let offset = match push_immediate(code, pc, n).try_to_u64() {
        Some(o) if o + 32 <= u32::MAX as u64 => o as u32,
        _ => return None,
    };
    let gas = OP_TABLE[pb as usize].static_gas + OP_TABLE[mem_op as usize].static_gas;
    let (need, grow, kind) = if is_load {
        (0, 1, FusedKind::PushMload { offset })
    } else {
        (1, 1, FusedKind::PushMstore { offset })
    };
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: (2 + n) as u16,
        kind,
    })
}

fn try_dup_sload(code: &[u8], pc: usize) -> Option<FusedSpec> {
    let db = code[pc];
    if !(0x80..=0x8f).contains(&db) {
        return None;
    }
    if *code.get(pc + 1)? != Opcode::Sload as u8 {
        return None;
    }
    let depth = db - 0x7f;
    let dup_op = Opcode::from_u8(db).expect("matched a DUP byte");
    let (need, grow, gas) = requirements(&[dup_op, Opcode::Sload]);
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: 2,
        kind: FusedKind::DupSload { depth },
    })
}

fn try_swap_pop(code: &[u8], pc: usize) -> Option<FusedSpec> {
    if code[pc] != Opcode::Swap1 as u8 || *code.get(pc + 1)? != Opcode::Pop as u8 {
        return None;
    }
    let (need, grow, gas) = requirements(&[Opcode::Swap1, Opcode::Pop]);
    Some(FusedSpec {
        gas,
        need,
        grow,
        len: 2,
        kind: FusedKind::SwapPop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::CodeAnalysis;

    fn table_of(code: &[u8]) -> FusedTable {
        let analysis = CodeAnalysis::analyze(code);
        build(code, |pc| analysis.is_jumpdest(pc))
    }

    #[test]
    fn push_jump_fuses_with_validated_target() {
        // PUSH1 4, JUMP, INVALID, JUMPDEST, STOP
        let code = [0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00];
        let t = table_of(&code);
        let spec = t.spec_at(0).expect("PUSH1+JUMP should fuse");
        assert_eq!(spec.len, 3);
        assert_eq!(spec.gas, 3 + 8);
        assert_eq!(spec.need, 0);
        assert_eq!(spec.grow, 1);
        assert_eq!(
            spec.kind,
            FusedKind::PushJump {
                target: 4,
                valid: true
            }
        );
        // Interior pcs carry no sites.
        assert!(t.spec_at(1).is_none());
        assert!(t.spec_at(2).is_none());
    }

    #[test]
    fn push_jump_to_invalid_target_marks_invalid() {
        // PUSH1 3, JUMP — 3 is not a JUMPDEST.
        let code = [0x60, 0x03, 0x56, 0x00];
        let t = table_of(&code);
        match t.spec_at(0).expect("still fuses").kind {
            FusedKind::PushJump { valid, .. } => assert!(!valid),
            ref k => panic!("unexpected kind {k:?}"),
        }
    }

    #[test]
    fn iszero_push_jumpi_fuses_as_require_shape() {
        // ISZERO, PUSH2 0x0008, JUMPI, STOP, INVALID, INVALID, JUMPDEST
        let code = [0x15, 0x61, 0x00, 0x08, 0x57, 0x00, 0xfe, 0xfe, 0x5b];
        let t = table_of(&code);
        let spec = t.spec_at(0).expect("require shape should fuse");
        assert_eq!(spec.len, 5);
        assert_eq!(spec.gas, 3 + 3 + 10);
        assert_eq!(spec.need, 1);
        assert_eq!(
            spec.kind,
            FusedKind::IszeroPushJumpi {
                target: 8,
                valid: true
            }
        );
    }

    #[test]
    fn const_fold_collapses_push_push_arith() {
        // PUSH1 32, PUSH1 4, ADD => 36 (the calldata-argument offset shape).
        let code = [0x60, 0x20, 0x60, 0x04, 0x01, 0x00];
        let t = table_of(&code);
        let spec = t.spec_at(0).expect("should fold");
        assert_eq!(spec.len, 5);
        assert_eq!(spec.gas, 3 + 3 + 3);
        assert_eq!(spec.need, 0);
        assert_eq!(spec.grow, 2);
        match spec.kind {
            FusedKind::PushConst { idx } => {
                // ADD pops (a=4, b=32) and pushes a+b.
                assert_eq!(t.const_at(idx), U256::from(36u64));
            }
            ref k => panic!("unexpected kind {k:?}"),
        }
        assert_eq!(t.folded_consts(), 1);
    }

    #[test]
    fn const_fold_mirrors_interpreter_operand_order() {
        // PUSH1 8, PUSH1 2, SUB pops a=2, b=8 => 2 - 8 wraps.
        let code = [0x60, 0x08, 0x60, 0x02, 0x03, 0x00];
        let t = table_of(&code);
        match t.spec_at(0).expect("should fold").kind {
            FusedKind::PushConst { idx } => {
                assert_eq!(
                    t.const_at(idx),
                    U256::from(2u64).wrapping_sub(U256::from(8u64))
                );
            }
            ref k => panic!("unexpected kind {k:?}"),
        }
        // PUSH1 2, PUSH1 16, SHR: s=16, v=2... order check via SHL:
        // PUSH1 2, PUSH1 1, SHL pops s=1, v=2 => 2 << 1 = 4.
        let code = [0x60, 0x02, 0x60, 0x01, 0x1b, 0x00];
        let t = table_of(&code);
        match t.spec_at(0).expect("should fold").kind {
            FusedKind::PushConst { idx } => assert_eq!(t.const_at(idx), U256::from(4u64)),
            ref k => panic!("unexpected kind {k:?}"),
        }
    }

    #[test]
    fn exp_is_never_folded() {
        // PUSH1 2, PUSH1 3, EXP has dynamic per-byte gas: no fold, and the
        // pushes alone never net one value, so no site at all.
        let code = [0x60, 0x02, 0x60, 0x03, 0x0a, 0x00];
        let t = table_of(&code);
        assert_eq!(t.sites(), 0, "unexpected site: {:?}", t.spec_at(0));
    }

    #[test]
    fn dispatcher_chain_fuses_into_arms() {
        // The byte shape `mtpu_asm::Assembler::dispatcher` emits: selector
        // prologue, two arms, fallback jump, then the three jumpdests.
        #[rustfmt::skip]
        let code = [
            // 0..6: PUSH1 0; CALLDATALOAD; PUSH1 0xE0; SHR
            0x60, 0x00, 0x35, 0x60, 0xe0, 0x1c,
            // 6..17: DUP1; PUSH4 aabbccdd; EQ; PUSH2 32; JUMPI
            0x80, 0x63, 0xaa, 0xbb, 0xcc, 0xdd, 0x14, 0x61, 0x00, 32, 0x57,
            // 17..28: DUP1; PUSH4 11223344; EQ; PUSH2 34; JUMPI
            0x80, 0x63, 0x11, 0x22, 0x33, 0x44, 0x14, 0x61, 0x00, 34, 0x57,
            // 28..32: PUSH2 36; JUMP (fallback)
            0x61, 0x00, 36, 0x56,
            // 32: JUMPDEST; STOP  34: JUMPDEST; STOP  36: JUMPDEST; STOP
            0x5b, 0x00, 0x5b, 0x00, 0x5b, 0x00,
        ];
        let t = table_of(&code);
        // Site 0: the selector-load prologue.
        let spec = t.spec_at(0).expect("prologue should fuse");
        assert_eq!(spec.kind, FusedKind::LoadSelector);
        assert_eq!(spec.gas, 12);
        // Next site: the two-arm dispatcher chain.
        let chain = t
            .spec_at(LOAD_SELECTOR_BYTES.len())
            .expect("dispatcher chain should fuse");
        match &chain.kind {
            FusedKind::SelectorDispatch { arms } => {
                assert_eq!(arms.len(), 2);
                assert!(arms.iter().all(|arm| arm.valid));
                assert_eq!(arms[0].selector, 0xaabbccdd);
                assert_eq!(arms[0].target, 32);
                assert_eq!(arms[1].selector, 0x11223344);
                assert_eq!(arms[1].target, 34);
                assert_eq!(arms[0].gas_to_here, 22);
                assert_eq!(arms[1].gas_to_here, 44);
            }
            k => panic!("unexpected kind {k:?}"),
        }
        assert_eq!(chain.gas, 44);
        assert_eq!(chain.need, 1);
        assert_eq!(chain.grow, 2);
    }

    #[test]
    fn storage_pairs_fuse() {
        // PUSH1 7, SLOAD ... DUP2, SLOAD
        let code = [0x60, 0x07, 0x54, 0x81, 0x54, 0x00];
        let t = table_of(&code);
        match t.spec_at(0).expect("PUSH+SLOAD fuses").kind {
            FusedKind::PushSload { idx } => assert_eq!(t.const_at(idx), U256::from(7u64)),
            ref k => panic!("unexpected kind {k:?}"),
        }
        let spec = t.spec_at(3).expect("DUP2+SLOAD fuses");
        assert_eq!(spec.kind, FusedKind::DupSload { depth: 2 });
        assert_eq!(spec.gas, 3 + 800);
        assert_eq!(spec.need, 2);
    }

    #[test]
    fn memory_pairs_fuse_with_static_gas_only() {
        // PUSH1 0x40, MLOAD ... PUSH1 0x40, MSTORE
        let code = [0x60, 0x40, 0x51, 0x60, 0x40, 0x52, 0x00];
        let t = table_of(&code);
        let load = t.spec_at(0).expect("PUSH+MLOAD fuses");
        assert_eq!(load.kind, FusedKind::PushMload { offset: 0x40 });
        assert_eq!(load.gas, 3 + 3, "expansion is charged at dispatch");
        assert_eq!(load.need, 0);
        assert_eq!(load.grow, 1);
        assert_eq!(load.len, 3);
        let store = t.spec_at(3).expect("PUSH+MSTORE fuses");
        assert_eq!(store.kind, FusedKind::PushMstore { offset: 0x40 });
        assert_eq!(store.gas, 3 + 3);
        assert_eq!(store.need, 1);
        assert_eq!(store.grow, 1);
    }

    #[test]
    fn oversized_memory_offset_stays_unfused() {
        // PUSH5 0x01_00000000 (over the u32 bound), MLOAD.
        let code = [0x64, 0x01, 0x00, 0x00, 0x00, 0x00, 0x51, 0x00];
        let t = table_of(&code);
        assert!(t.spec_at(0).is_none(), "huge offsets take the slow path");
    }

    #[test]
    fn swap_pop_fuses() {
        let code = [0x90, 0x50, 0x00];
        let t = table_of(&code);
        let spec = t.spec_at(0).expect("SWAP1+POP fuses");
        assert_eq!(spec.kind, FusedKind::SwapPop);
        assert_eq!(spec.gas, 3 + 2);
        assert_eq!(spec.need, 2);
        assert_eq!(spec.grow, 0);
    }

    #[test]
    fn no_site_spans_a_jumpdest_interior() {
        // Property check on random bytecode: no fused region may contain a
        // jumpdest anywhere past its first byte (else a jump could land
        // mid-region).
        let mut seed = 0xf051_0000_5eed_0001u64;
        let mut next = move || {
            seed = seed.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for _ in 0..128 {
            let len = (next() % 400) as usize + 8;
            let code: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let analysis = CodeAnalysis::analyze(&code);
            let t = build(&code, |pc| analysis.is_jumpdest(pc));
            for (pc, spec) in (0..code.len()).filter_map(|pc| Some((pc, t.spec_at(pc)?))) {
                for interior in pc + 1..pc + spec.len as usize {
                    assert!(
                        !analysis.is_jumpdest(interior),
                        "site at {pc} (len {}) spans jumpdest {interior}",
                        spec.len
                    );
                }
            }
        }
    }
}
