//! Per-path analysis of a hotspot contract: pre-executable chunk
//! detection (§3.4.2), constant-instruction identification by operand
//! backtracking (§3.4.3), and prefetchable-access detection (§3.4.4).
//!
//! The analysis replays the recorded execution path of the hotspot's top
//! frame with an *abstract* stack: each value is `Const` (known at
//! pre-execution time), `TxAttr` (derived only from transaction/block
//! attributes, which are invariant during execution), or `Unknown`. One
//! pass yields every result: an `SLOAD` whose key is fixed when its
//! operand is popped is a prefetchable access.

use mtpu_evm::opcode::Opcode;
use mtpu_evm::trace::TxTrace;
use mtpu_primitives::U256;
use std::collections::{HashMap, HashSet};

/// Abstract value with an optional producing-PUSH step for elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AVal {
    /// A compile-time constant; `Some(step)` when produced directly by a
    /// PUSH that may be eliminated into the Constants Table.
    Const(U256, Option<u32>),
    /// Derived only from fixed transaction/block attributes.
    TxAttr,
    /// May change between pre-execution and execution.
    Unknown,
}

impl AVal {
    fn is_fixed(&self) -> bool {
        !matches!(self, AVal::Unknown)
    }

    fn producer(&self) -> Option<u32> {
        match self {
            AVal::Const(_, p) => *p,
            _ => None,
        }
    }
}

/// Result of analyzing one execution path (pc-keyed so it applies to every
/// redundant transaction with the same contract and entry function).
#[derive(Debug, Clone, Default)]
pub struct PathAnalysis {
    /// PCs of the pre-executable Compare/Check prefix.
    pub preexec_pcs: HashSet<u32>,
    /// PCs of PUSH instructions whose value moves to the Constants Table.
    pub eliminated_push_pcs: HashSet<u32>,
    /// PCs of constant instructions (operands served by the table).
    pub const_operand_pcs: HashSet<u32>,
    /// PCs of SLOADs whose key is resolvable before execution.
    pub prefetch_pcs: HashSet<u32>,
    /// Bytes of bytecode on the executed path (chunked loading, §3.4.2).
    pub loaded_bytes: u64,
    /// Total bytecode size.
    pub full_bytes: u64,
}

/// Instructions allowed in the pre-executable prefix: they depend only on
/// transaction attributes (`To`, `Input`, `CallValue`), so the Compare and
/// Check chunks built from them can run during the block interval.
fn preexecutable(op: Opcode) -> bool {
    use Opcode::*;
    op.is_push()
        || op.is_dup()
        || op.is_swap()
        || matches!(
            op,
            Pop | Calldataload
                | Calldatasize
                | Callvalue
                | Shr
                | Shl
                | And
                | Or
                | Eq
                | Lt
                | Gt
                | Iszero
                | Jump
                | Jumpi
                | Jumpdest
        )
}

/// Evaluates a binary op over two constants.
fn eval2(op: Opcode, a: U256, b: U256) -> Option<U256> {
    use Opcode::*;
    Some(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => a.evm_div(b),
        Mod => a.evm_rem(b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => b.evm_shl(a),
        Shr => b.evm_shr(a),
        Eq => U256::from(a == b),
        Lt => U256::from(a < b),
        Gt => U256::from(a > b),
        Byte => b.byte_be(a),
        Exp => a.wrapping_pow(b),
        Signextend => b.signextend(a),
        _ => return None,
    })
}

/// Capacity of the in-core Constants Table (Table 5 lists it among the
/// core memories): at most this many operands can be separated from the
/// stack per contract entry.
pub const CONSTANTS_TABLE_SLOTS: usize = 128;

/// Truncates a pc set to its `cap` lowest program counters.
fn cap_pcs(set: &mut HashSet<u32>, cap: usize) {
    if set.len() > cap {
        let mut v: Vec<u32> = set.iter().copied().collect();
        v.sort_unstable();
        v.truncate(cap);
        *set = v.into_iter().collect();
    }
}

/// Analyzes the top frame of `trace` executing `code`.
pub fn analyze_path(trace: &TxTrace, code: &[u8]) -> PathAnalysis {
    let mut out = PathAnalysis {
        full_bytes: code.len() as u64,
        ..Default::default()
    };

    // --- Chunked loading: bytes covered by the executed path. ---
    let mut pcs: Vec<u32> = trace
        .steps
        .iter()
        .filter(|s| s.frame == 0)
        .map(|s| s.pc)
        .collect();
    pcs.sort_unstable();
    pcs.dedup();
    const CHUNK_GRANULE: u32 = 32;
    let mut loaded = 0u64;
    let mut span: Option<(u32, u32)> = None;
    for &pc in &pcs {
        match span {
            Some((start, end)) if pc <= end + CHUNK_GRANULE => span = Some((start, pc)),
            Some((start, end)) => {
                loaded += (end - start + CHUNK_GRANULE) as u64;
                span = Some((pc, pc));
                let _ = start;
            }
            None => span = Some((pc, pc)),
        }
    }
    if let Some((start, end)) = span {
        loaded += (end - start + CHUNK_GRANULE) as u64;
    }
    out.loaded_bytes = loaded.min(out.full_bytes);

    // --- Abstract replay of the top frame. ---
    // `prefix_alive` tracks the pre-executable Compare/Check prefix: the
    // longest leading run of steps whose execution depends only on
    // transaction attributes (paper §3.4.2). A step qualifies when its
    // opcode is structural (stack shuffling, jumps) or all its operands
    // are fixed at pre-execution time.
    let mut prefix_alive = true;
    let mut stack: Vec<AVal> = Vec::with_capacity(64);
    let mut memory: HashMap<u64, AVal> = HashMap::new();
    // Consumed-once bookkeeping: a PUSH is eliminable only if its single
    // consumer is a constant instruction.
    for (idx, s) in trace.steps.iter().enumerate() {
        if s.frame != 0 {
            prefix_alive = false;
            // A nested call may clobber nothing in our frame's stack, but
            // its return data makes the caller's subsequent values
            // unknown only through the ops that consume them; skip callee
            // steps entirely.
            continue;
        }
        let op = s.opcode();
        let pops = op.stack_pops();
        use Opcode::*;

        // Structural ops (no value computation) extend the prefix.
        if prefix_alive
            && (op.is_push() || op.is_dup() || op.is_swap() || op == Jumpdest || op == Pop)
        {
            out.preexec_pcs.insert(s.pc);
        }
        // DUP/SWAP manipulate without consuming.
        if op.is_dup() {
            let n = (op as u8 - 0x7f) as usize;
            let v = if n <= stack.len() {
                // A duplicated value loses its eliminable producer: the
                // original PUSH now has two consumers.
                match stack[stack.len() - n] {
                    AVal::Const(c, _) => {
                        let sl = stack.len();
                        stack[sl - n] = AVal::Const(c, None);
                        AVal::Const(c, None)
                    }
                    other => other,
                }
            } else {
                AVal::Unknown
            };
            stack.push(v);
            continue;
        }
        if op.is_swap() {
            let n = (op as u8 - 0x8f) as usize;
            let len = stack.len();
            if n < len {
                stack.swap(len - 1, len - 1 - n);
            } else {
                // Below the tracked region: poison the top.
                if let Some(t) = stack.last_mut() {
                    *t = AVal::Unknown;
                }
            }
            continue;
        }
        if op.is_push() {
            let n = op.immediate_len();
            let pc = s.pc as usize;
            let end = (pc + 1 + n).min(code.len());
            let imm = U256::from_be_slice(code.get(pc + 1..end).unwrap_or(&[]));
            stack.push(AVal::Const(imm, Some(idx as u32)));
            continue;
        }

        // Generic: pop operands (Unknown-padded when the abstract stack
        // lost track).
        let mut args: Vec<AVal> = Vec::with_capacity(pops);
        for _ in 0..pops {
            args.push(stack.pop().unwrap_or(AVal::Unknown));
        }

        // Prefetchable access: the key is resolvable before execution.
        if op == Sload && args[0].is_fixed() {
            out.prefetch_pcs.insert(s.pc);
        }

        // Pre-executable prefix: ops whose result/effect is fixed given
        // transaction attributes. Storage, logs, calls and anything with
        // an unknown operand end the prefix.
        if prefix_alive {
            let fixed_args = args.iter().all(AVal::is_fixed);
            let allowed = preexecutable(op)
                || matches!(
                    op,
                    Mstore
                        | Mload
                        | Sha3
                        | Add
                        | Sub
                        | Mul
                        | Div
                        | Mod
                        | Xor
                        | Not
                        | Byte
                        | Caller
                        | Origin
                        | Calldatasize
                        | Callvalue
                        | Address
                        | Codesize
                        | Gasprice
                );
            if allowed && (fixed_args || pops == 0) {
                out.preexec_pcs.insert(s.pc);
            } else {
                prefix_alive = false;
            }
        }

        // Classification: all operands fixed -> constant instruction.
        if pops > 0 && args.iter().all(AVal::is_fixed) {
            match op {
                // Control flow consumes constants structurally; the
                // dispatcher lives in the pre-executed chunk already.
                Jump | Jumpi | Jumpdest | Pop => {}
                _ => {
                    out.const_operand_pcs.insert(s.pc);
                    for a in &args {
                        if let Some(p) = a.producer() {
                            out.eliminated_push_pcs.insert(trace.steps[p as usize].pc);
                        }
                    }
                }
            }
        }
        // Abstract result.
        let result: AVal = match op {
            Caller | Origin | Callvalue | Calldatasize | Address | Codesize | Gasprice
            | Coinbase | Timestamp | Number | Difficulty | Gaslimit => AVal::TxAttr,
            Calldataload => {
                if args[0].is_fixed() {
                    AVal::TxAttr
                } else {
                    AVal::Unknown
                }
            }
            Mload => match args[0] {
                AVal::Const(off, _) => memory.get(&off.low_u64()).copied().unwrap_or(AVal::Unknown),
                _ => AVal::Unknown,
            },
            Sha3 => {
                // Hash of a memory region whose words are all fixed is
                // itself fixed (the Fig. 11 mapping-slot case).
                match (args.first(), args.get(1)) {
                    (Some(AVal::Const(off, _)), Some(AVal::Const(len, _))) => {
                        let (off, len) = (off.low_u64(), len.low_u64());
                        let mut fixed = len % 32 == 0;
                        let mut w = off;
                        while fixed && w < off + len {
                            fixed &= memory.get(&w).map(AVal::is_fixed).unwrap_or(false);
                            w += 32;
                        }
                        if fixed && len > 0 {
                            AVal::TxAttr
                        } else {
                            AVal::Unknown
                        }
                    }
                    _ => AVal::Unknown,
                }
            }
            Mstore => {
                if let AVal::Const(off, _) = args[0] {
                    memory.insert(off.low_u64(), args[1]);
                }
                AVal::Unknown // no result
            }
            Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr | Eq | Lt | Gt | Byte
            | Exp | Signextend => match (args[0], args[1]) {
                (AVal::Const(a, _), AVal::Const(b, _)) => eval2(op, a, b)
                    .map(|v| AVal::Const(v, None))
                    .unwrap_or(AVal::Unknown),
                (x, y) if x.is_fixed() && y.is_fixed() => AVal::TxAttr,
                _ => AVal::Unknown,
            },
            Iszero | Not => {
                if args[0].is_fixed() {
                    match args[0] {
                        AVal::Const(a, _) => {
                            let v = if op == Iszero {
                                U256::from(a.is_zero())
                            } else {
                                !a
                            };
                            AVal::Const(v, None)
                        }
                        _ => AVal::TxAttr,
                    }
                } else {
                    AVal::Unknown
                }
            }
            Slt | Sgt | Addmod | Mulmod | Sdiv | Smod => {
                if args.iter().all(AVal::is_fixed) {
                    AVal::TxAttr
                } else {
                    AVal::Unknown
                }
            }
            _ => AVal::Unknown,
        };
        for _ in 0..op.stack_pushes() {
            stack.push(result);
        }
    }
    // The Constants Table is a finite structure: bound the number of
    // separated operands (and the PUSHes they replace) per entry.
    cap_pcs(&mut out.const_operand_pcs, CONSTANTS_TABLE_SLOTS);
    cap_pcs(&mut out.eliminated_push_pcs, CONSTANTS_TABLE_SLOTS);
    out
}
