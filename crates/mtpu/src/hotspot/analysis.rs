//! Per-path analysis of a hotspot contract: pre-executable chunk
//! detection (§3.4.2), constant-instruction identification by operand
//! backtracking (§3.4.3), and prefetchable-access detection (§3.4.4).
//!
//! The analysis replays the recorded execution path of the hotspot's top
//! frame with an *abstract* stack: each value is `Const` (known at
//! pre-execution time), `TxAttr` (derived only from transaction/block
//! attributes, which are invariant during execution), or `Unknown`. One
//! pass yields every result: an `SLOAD` whose key is fixed when its
//! operand is popped is a prefetchable access. Pure arithmetic/logic over
//! constants is evaluated by [`Opcode::eval_pure`], the interpreter's own
//! semantics.

use crate::stream::BitSet;
use mtpu_evm::opcode::Opcode;
use mtpu_evm::trace::TxTrace;
use mtpu_primitives::U256;
use std::collections::HashMap;

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
    pub preexec_pcs: BitSet,
    /// PCs of PUSH instructions whose value moves to the Constants Table.
    pub eliminated_push_pcs: BitSet,
    /// PCs of constant instructions (operands served by the table).
    pub const_operand_pcs: BitSet,
    /// PCs of SLOADs whose key is resolvable before execution.
    pub prefetch_pcs: BitSet,
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

/// Capacity of the in-core Constants Table (Table 5 lists it among the
/// core memories): at most this many operands can be separated from the
/// stack per contract entry.
pub const CONSTANTS_TABLE_SLOTS: usize = 128;

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
            // Pure arithmetic/logic: evaluated when every operand is a
            // constant, fixed when every operand is fixed.
            _ if op.is_pure() => {
                let operand = |i: usize| match args.get(i) {
                    Some(AVal::Const(v, _)) => Some(*v),
                    Some(_) => None,
                    None => Some(U256::ZERO),
                };
                match (operand(0), operand(1), operand(2)) {
                    (Some(a), Some(b), Some(c)) => op
                        .eval_pure(a, b, c)
                        .map_or(AVal::Unknown, |v| AVal::Const(v, None)),
                    _ if args.iter().all(AVal::is_fixed) => AVal::TxAttr,
                    _ => AVal::Unknown,
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
    out.const_operand_pcs.truncate(CONSTANTS_TABLE_SLOTS);
    out.eliminated_push_pcs.truncate(CONSTANTS_TABLE_SLOTS);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_asm::Assembler;
    use mtpu_evm::interpreter::{CallParams, Evm};
    use mtpu_evm::state::State;
    use mtpu_evm::trace::{CallKind, TraceRecorder};
    use mtpu_evm::tx::BlockHeader;
    use mtpu_primitives::Address;

    /// Runs `code` in a fresh contract and returns its trace.
    fn trace_of(code: &[u8]) -> TxTrace {
        let mut state = State::new();
        let contract = Address::from_low_u64(0xc0de);
        state.deploy_code(contract, code.to_vec());
        let header = BlockHeader::default();
        let mut tracer = TraceRecorder::new();
        let caller = Address::from_low_u64(1);
        let res = Evm::new(&mut state, &header, caller, U256::ONE, &mut tracer).call(CallParams {
            kind: CallKind::Call,
            caller,
            code_address: contract,
            storage_address: contract,
            value: U256::ZERO,
            transfers_value: false,
            input: Vec::new(),
            gas: 1_000_000,
            is_static: false,
            depth: 0,
        });
        assert!(res.success(), "{:?}", res.halt);
        tracer.into_trace()
    }

    fn pc_of(trace: &TxTrace, op: Opcode) -> u32 {
        trace
            .steps
            .iter()
            .find(|s| s.opcode() == op)
            .expect("op was executed")
            .pc
    }

    #[test]
    fn signed_modular_and_sar_results_are_constants() {
        let neg = |v: u64| U256::from(v).twos_neg();
        let u = |v: u64| U256::from(v);
        // (op, operands top first, result), each result a small offset.
        let cases: [(Opcode, &[U256], u64); 7] = [
            (Opcode::Sdiv, &[neg(64), neg(2)], 32),
            (Opcode::Smod, &[u(70), neg(32)], 6),
            (Opcode::Slt, &[neg(1), u(1)], 1),
            (Opcode::Sgt, &[u(1), neg(1)], 1),
            (Opcode::Addmod, &[U256::MAX, u(33), u(64)], 32),
            (Opcode::Mulmod, &[u(10), u(10), u(24)], 4),
            (Opcode::Sar, &[u(2), u(128)], 32),
        ];
        for (op, args, offset) in cases {
            // mem[op(args)] = 7; SLOAD(MLOAD(offset)): the key is fixed
            // only if the model knew the MSTORE offset as a constant.
            let mut asm = Assembler::new();
            asm.push(7u64);
            for &a in args.iter().rev() {
                asm.push(a);
            }
            asm.op(op)
                .op(Opcode::Mstore)
                .push(offset)
                .op(Opcode::Mload)
                .op(Opcode::Sload)
                .op(Opcode::Stop);
            let code = asm.assemble().expect("assembles");
            let trace = trace_of(&code);
            let a = analyze_path(&trace, &code);
            assert!(a.const_operand_pcs.contains(&pc_of(&trace, op)), "{op}");
            assert!(
                a.prefetch_pcs.contains(&pc_of(&trace, Opcode::Sload)),
                "{op}: MLOAD of a constant-offset store feeds a fixed key"
            );
        }

        // A SAR result straight into an SLOAD key.
        let mut asm = Assembler::new();
        asm.push(neg(256))
            .push(4u64)
            .op(Opcode::Sar)
            .op(Opcode::Sload)
            .op(Opcode::Stop);
        let code = asm.assemble().expect("assembles");
        let trace = trace_of(&code);
        let a = analyze_path(&trace, &code);
        assert!(a.prefetch_pcs.contains(&pc_of(&trace, Opcode::Sload)));
    }
}
