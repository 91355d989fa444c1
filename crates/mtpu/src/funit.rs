//! Functional-unit properties: latency classes, reconfigurability (data
//! forwarding eligibility, §3.3.4) and stack read/write behaviour used by
//! the fill unit's dependency analysis.

use crate::config::LatencyModel;
use mtpu_evm::opcode::{OpCategory, Opcode};

/// Latency class of an instruction, resolved against a [`LatencyModel`]
/// at issue time (storage classes depend on runtime buffer state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatClass {
    /// One-cycle ALU/stack/context ops.
    Simple,
    /// Multi-cycle multiplier/divider.
    MulDiv,
    /// EXP.
    Exp,
    /// Keccak unit.
    Sha3,
    /// MEM scratchpad access.
    Mem,
    /// Receipt-buffer append.
    Log,
    /// Storage access (dynamic: dcache / State Buffer / main memory).
    Storage,
    /// Off-chip state query.
    StateQuery,
    /// Call-family context switch.
    ContextSwitch,
}

impl LatClass {
    /// Static (non-storage-dependent) cycles under `m`. `Storage` returns
    /// its best case; the pipeline adjusts per access.
    pub fn base_cycles(self, m: &LatencyModel) -> u64 {
        match self {
            LatClass::Simple => m.simple,
            LatClass::MulDiv => m.muldiv,
            LatClass::Exp => m.exp,
            LatClass::Sha3 => m.sha3,
            LatClass::Mem => m.mem,
            LatClass::Log => m.log,
            LatClass::Storage => m.state_buffer_hit,
            LatClass::StateQuery => m.state_query,
            LatClass::ContextSwitch => m.context_switch,
        }
    }
}

/// Latency class of an opcode.
pub fn lat_class(op: Opcode) -> LatClass {
    use Opcode::*;
    match op {
        Mul | Div | Sdiv | Mod | Smod | Addmod | Mulmod | Signextend => LatClass::MulDiv,
        Exp => LatClass::Exp,
        Sha3 => LatClass::Sha3,
        Mload | Mstore | Mstore8 | Msize | Calldatacopy | Codecopy | Returndatacopy => {
            LatClass::Mem
        }
        Log0 | Log1 | Log2 | Log3 | Log4 => LatClass::Log,
        Sload | Sstore => LatClass::Storage,
        Balance | Extcodesize | Extcodecopy | Extcodehash | Blockhash => LatClass::StateQuery,
        Create | Call | Callcode | Delegatecall | Create2 | Staticcall => LatClass::ContextSwitch,
        _ => LatClass::Simple,
    }
}

/// Reconfigurable units execute in half a cycle and may forward results to
/// each other (paper §3.3.4). These are the simple single-cycle units:
/// basic arithmetic, logic, stack and fixed-access.
pub fn is_reconfigurable(op: Opcode) -> bool {
    matches!(lat_class(op), LatClass::Simple)
        && matches!(
            op.category(),
            OpCategory::Arithmetic
                | OpCategory::Logic
                | OpCategory::Stack
                | OpCategory::FixedAccess
                | OpCategory::Branch
        )
}

/// Most stack positions one instruction reads (`CALL`'s seven operands).
const MAX_READS: usize = 7;

/// Stack positions (1 = top) an instruction *reads* before executing, and
/// its net effect, for the fill unit's RAW analysis. DUP reads a single
/// deep position; SWAP reads the two positions it exchanges; everything
/// else reads the values it pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEffect {
    /// Read positions, 1-based from the top; the first `read_count` are
    /// meaningful.
    reads: [usize; MAX_READS],
    read_count: usize,
    /// Values consumed from the top.
    pub pops: usize,
    /// Values produced onto the top.
    pub pushes: usize,
    /// `Some(n)` when the op is `SWAPn` (positions 1 and n+1 exchange).
    pub swap_depth: Option<usize>,
    /// `Some(n)` when the op is `DUPn` (position n is copied).
    pub dup_depth: Option<usize>,
}

impl StackEffect {
    /// Read positions, 1-based from the top.
    pub fn reads(&self) -> &[usize] {
        &self.reads[..self.read_count]
    }
}

/// Computes the [`StackEffect`] of an opcode.
pub fn stack_effect(op: Opcode) -> StackEffect {
    let b = op as u8;
    let mut reads = [0; MAX_READS];
    if op.is_dup() {
        let n = (b - 0x7f) as usize;
        reads[0] = n;
        return StackEffect {
            reads,
            read_count: 1,
            pops: 0,
            pushes: 1,
            swap_depth: None,
            dup_depth: Some(n),
        };
    }
    if op.is_swap() {
        let n = (b - 0x8f) as usize;
        reads[..2].copy_from_slice(&[1, n + 1]);
        return StackEffect {
            reads,
            read_count: 2,
            pops: 0,
            pushes: 0,
            swap_depth: Some(n),
            dup_depth: None,
        };
    }
    let pops = op.stack_pops();
    for (i, r) in reads[..pops].iter_mut().enumerate() {
        *r = i + 1;
    }
    StackEffect {
        reads,
        read_count: pops,
        pops,
        pushes: op.stack_pushes(),
        swap_depth: None,
        dup_depth: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_classes() {
        assert_eq!(lat_class(Opcode::Add), LatClass::Simple);
        assert_eq!(lat_class(Opcode::Mul), LatClass::MulDiv);
        assert_eq!(lat_class(Opcode::Sha3), LatClass::Sha3);
        assert_eq!(lat_class(Opcode::Sload), LatClass::Storage);
        assert_eq!(lat_class(Opcode::Balance), LatClass::StateQuery);
        assert_eq!(lat_class(Opcode::Call), LatClass::ContextSwitch);
        assert_eq!(lat_class(Opcode::Push1), LatClass::Simple);
    }

    #[test]
    fn reconfigurable_set() {
        assert!(is_reconfigurable(Opcode::Add));
        assert!(is_reconfigurable(Opcode::Eq));
        assert!(is_reconfigurable(Opcode::Push4));
        assert!(is_reconfigurable(Opcode::Swap3));
        assert!(is_reconfigurable(Opcode::Caller));
        assert!(!is_reconfigurable(Opcode::Mul));
        assert!(!is_reconfigurable(Opcode::Sload));
        assert!(!is_reconfigurable(Opcode::Sha3));
        assert!(!is_reconfigurable(Opcode::Call));
    }

    #[test]
    fn stack_effects() {
        let add = stack_effect(Opcode::Add);
        assert_eq!(add.reads(), [1, 2]);
        assert_eq!((add.pops, add.pushes), (2, 1));

        let dup3 = stack_effect(Opcode::Dup3);
        assert_eq!(dup3.reads(), [3]);
        assert_eq!((dup3.pops, dup3.pushes), (0, 1));
        assert_eq!(dup3.dup_depth, Some(3));

        let swap2 = stack_effect(Opcode::Swap2);
        assert_eq!(swap2.reads(), [1, 3]);
        assert_eq!(swap2.swap_depth, Some(2));
        assert_eq!((swap2.pops, swap2.pushes), (0, 0));

        let push = stack_effect(Opcode::Push7);
        assert!(push.reads().is_empty());
        assert_eq!((push.pops, push.pushes), (0, 1));
    }

    #[test]
    fn every_opcode_fits_the_read_array() {
        // `stack_effect` panics on an op that reads more than MAX_READS.
        for op in (0..=u8::MAX).filter_map(Opcode::from_u8) {
            stack_effect(op);
        }
        assert_eq!(stack_effect(Opcode::Call).reads(), [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn base_cycles_follow_model() {
        let m = LatencyModel::default();
        assert_eq!(LatClass::Simple.base_cycles(&m), m.simple);
        assert_eq!(LatClass::Sha3.base_cycles(&m), m.sha3);
        assert_eq!(LatClass::StateQuery.base_cycles(&m), m.state_query);
    }
}
