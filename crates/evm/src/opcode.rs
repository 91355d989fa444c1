//! The smart-contract instruction set implemented by the accelerator
//! (paper Table 3), with the functional-unit categories the MTPU's modular
//! design assigns to each instruction.

use core::fmt;
use mtpu_primitives::U256;

/// Functional-unit category of an instruction (paper Table 3).
///
/// The MTPU implements one hardware functional unit per category; a DB-cache
/// line has one slot per category, so two instructions of the same category
/// can never share a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpCategory {
    /// ADD, MUL, SUB, DIV, SDIV, MOD, SMOD, ADDMOD, MULMOD, EXP, SIGNEXTEND.
    Arithmetic,
    /// LT, GT, SLT, SGT, EQ, ISZERO, AND, OR, XOR, NOT, BYTE, SHL, SHR, SAR.
    Logic,
    /// SHA3.
    Sha,
    /// Transaction/block attribute reads with fixed access logic.
    FixedAccess,
    /// BALANCE, EXTCODESIZE, EXTCODECOPY, EXTCODEHASH.
    StateQuery,
    /// MLOAD, MSTORE, MSTORE8, MSIZE, LOG0..LOG4.
    Memory,
    /// SLOAD, SSTORE.
    Storage,
    /// JUMP, JUMPI, JUMPDEST.
    Branch,
    /// POP, PUSH1..PUSH32, DUP1..DUP16, SWAP1..SWAP16.
    Stack,
    /// STOP, RETURN, REVERT, INVALID, SELFDESTRUCT.
    Control,
    /// CREATE, CALL, CALLCODE, DELEGATECALL, CREATE2, STATICCALL.
    ContextSwitching,
}

impl OpCategory {
    /// All categories, in Table 3 order.
    pub const ALL: [OpCategory; 11] = [
        OpCategory::Arithmetic,
        OpCategory::Logic,
        OpCategory::Sha,
        OpCategory::FixedAccess,
        OpCategory::StateQuery,
        OpCategory::Memory,
        OpCategory::Storage,
        OpCategory::Branch,
        OpCategory::Stack,
        OpCategory::Control,
        OpCategory::ContextSwitching,
    ];

    /// Table-3 column name.
    pub fn name(self) -> &'static str {
        match self {
            OpCategory::Arithmetic => "Arithmetic",
            OpCategory::Logic => "Logic",
            OpCategory::Sha => "SHA",
            OpCategory::FixedAccess => "Fixed access",
            OpCategory::StateQuery => "State query",
            OpCategory::Memory => "Memory",
            OpCategory::Storage => "Storage",
            OpCategory::Branch => "Branch",
            OpCategory::Stack => "Stack",
            OpCategory::Control => "Control",
            OpCategory::ContextSwitching => "Context switching",
        }
    }

    /// Index in [`OpCategory::ALL`].
    pub fn index(self) -> usize {
        OpCategory::ALL
            .iter()
            .position(|&c| c == self)
            .expect("category is in ALL")
    }
}

impl fmt::Display for OpCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! opcodes {
    ($(($name:ident, $byte:expr, $mnemonic:expr, $cat:ident, $pop:expr, $push:expr)),* $(,)?) => {
        /// An EVM opcode.
        ///
        /// `PUSH1..PUSH32`, `DUP1..DUP16`, `SWAP1..SWAP16` and `LOG0..LOG4`
        /// are represented by individual variants so a decoded instruction is
        /// a single byte-sized value.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        #[repr(u8)]
        pub enum Opcode {
            $(
                #[doc = $mnemonic]
                $name = $byte,
            )*
        }

        impl Opcode {
            /// Decodes a raw byte; `None` for unassigned opcodes.
            pub const fn from_u8(byte: u8) -> Option<Opcode> {
                match byte {
                    $($byte => Some(Opcode::$name),)*
                    _ => None,
                }
            }

            /// The instruction mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$name => $mnemonic,)*
                }
            }

            /// Functional-unit category (paper Table 3).
            pub const fn category(self) -> OpCategory {
                match self {
                    $(Opcode::$name => OpCategory::$cat,)*
                }
            }

            /// Number of stack operands consumed.
            pub const fn stack_pops(self) -> usize {
                match self {
                    $(Opcode::$name => $pop,)*
                }
            }

            /// Number of stack results produced.
            pub const fn stack_pushes(self) -> usize {
                match self {
                    $(Opcode::$name => $push,)*
                }
            }
        }
    };
}

opcodes! {
    (Stop, 0x00, "STOP", Control, 0, 0),
    (Add, 0x01, "ADD", Arithmetic, 2, 1),
    (Mul, 0x02, "MUL", Arithmetic, 2, 1),
    (Sub, 0x03, "SUB", Arithmetic, 2, 1),
    (Div, 0x04, "DIV", Arithmetic, 2, 1),
    (Sdiv, 0x05, "SDIV", Arithmetic, 2, 1),
    (Mod, 0x06, "MOD", Arithmetic, 2, 1),
    (Smod, 0x07, "SMOD", Arithmetic, 2, 1),
    (Addmod, 0x08, "ADDMOD", Arithmetic, 3, 1),
    (Mulmod, 0x09, "MULMOD", Arithmetic, 3, 1),
    (Exp, 0x0a, "EXP", Arithmetic, 2, 1),
    (Signextend, 0x0b, "SIGNEXTEND", Arithmetic, 2, 1),

    (Lt, 0x10, "LT", Logic, 2, 1),
    (Gt, 0x11, "GT", Logic, 2, 1),
    (Slt, 0x12, "SLT", Logic, 2, 1),
    (Sgt, 0x13, "SGT", Logic, 2, 1),
    (Eq, 0x14, "EQ", Logic, 2, 1),
    (Iszero, 0x15, "ISZERO", Logic, 1, 1),
    (And, 0x16, "AND", Logic, 2, 1),
    (Or, 0x17, "OR", Logic, 2, 1),
    (Xor, 0x18, "XOR", Logic, 2, 1),
    (Not, 0x19, "NOT", Logic, 1, 1),
    (Byte, 0x1a, "BYTE", Logic, 2, 1),
    (Shl, 0x1b, "SHL", Logic, 2, 1),
    (Shr, 0x1c, "SHR", Logic, 2, 1),
    (Sar, 0x1d, "SAR", Logic, 2, 1),

    (Sha3, 0x20, "SHA3", Sha, 2, 1),

    (Address, 0x30, "ADDRESS", FixedAccess, 0, 1),
    (Balance, 0x31, "BALANCE", StateQuery, 1, 1),
    (Origin, 0x32, "ORIGIN", FixedAccess, 0, 1),
    (Caller, 0x33, "CALLER", FixedAccess, 0, 1),
    (Callvalue, 0x34, "CALLVALUE", FixedAccess, 0, 1),
    (Calldataload, 0x35, "CALLDATALOAD", FixedAccess, 1, 1),
    (Calldatasize, 0x36, "CALLDATASIZE", FixedAccess, 0, 1),
    (Calldatacopy, 0x37, "CALLDATACOPY", FixedAccess, 3, 0),
    (Codesize, 0x38, "CODESIZE", FixedAccess, 0, 1),
    (Codecopy, 0x39, "CODECOPY", FixedAccess, 3, 0),
    (Gasprice, 0x3a, "GASPRICE", FixedAccess, 0, 1),
    (Extcodesize, 0x3b, "EXTCODESIZE", StateQuery, 1, 1),
    (Extcodecopy, 0x3c, "EXTCODECOPY", StateQuery, 4, 0),
    (Returndatasize, 0x3d, "RETURNDATASIZE", FixedAccess, 0, 1),
    (Returndatacopy, 0x3e, "RETURNDATACOPY", FixedAccess, 3, 0),
    (Extcodehash, 0x3f, "EXTCODEHASH", StateQuery, 1, 1),
    (Blockhash, 0x40, "BLOCKHASH", FixedAccess, 1, 1),
    (Coinbase, 0x41, "COINBASE", FixedAccess, 0, 1),
    (Timestamp, 0x42, "TIMESTAMP", FixedAccess, 0, 1),
    (Number, 0x43, "NUMBER", FixedAccess, 0, 1),
    (Difficulty, 0x44, "DIFFICULTY", FixedAccess, 0, 1),
    (Gaslimit, 0x45, "GASLIMIT", FixedAccess, 0, 1),

    (Pop, 0x50, "POP", Stack, 1, 0),
    (Mload, 0x51, "MLOAD", Memory, 1, 1),
    (Mstore, 0x52, "MSTORE", Memory, 2, 0),
    (Mstore8, 0x53, "MSTORE8", Memory, 2, 0),
    (Sload, 0x54, "SLOAD", Storage, 1, 1),
    (Sstore, 0x55, "SSTORE", Storage, 2, 0),
    (Jump, 0x56, "JUMP", Branch, 1, 0),
    (Jumpi, 0x57, "JUMPI", Branch, 2, 0),
    (Pc, 0x58, "PC", FixedAccess, 0, 1),
    (Msize, 0x59, "MSIZE", Memory, 0, 1),
    (Gas, 0x5a, "GAS", FixedAccess, 0, 1),
    (Jumpdest, 0x5b, "JUMPDEST", Branch, 0, 0),

    (Push1, 0x60, "PUSH1", Stack, 0, 1),
    (Push2, 0x61, "PUSH2", Stack, 0, 1),
    (Push3, 0x62, "PUSH3", Stack, 0, 1),
    (Push4, 0x63, "PUSH4", Stack, 0, 1),
    (Push5, 0x64, "PUSH5", Stack, 0, 1),
    (Push6, 0x65, "PUSH6", Stack, 0, 1),
    (Push7, 0x66, "PUSH7", Stack, 0, 1),
    (Push8, 0x67, "PUSH8", Stack, 0, 1),
    (Push9, 0x68, "PUSH9", Stack, 0, 1),
    (Push10, 0x69, "PUSH10", Stack, 0, 1),
    (Push11, 0x6a, "PUSH11", Stack, 0, 1),
    (Push12, 0x6b, "PUSH12", Stack, 0, 1),
    (Push13, 0x6c, "PUSH13", Stack, 0, 1),
    (Push14, 0x6d, "PUSH14", Stack, 0, 1),
    (Push15, 0x6e, "PUSH15", Stack, 0, 1),
    (Push16, 0x6f, "PUSH16", Stack, 0, 1),
    (Push17, 0x70, "PUSH17", Stack, 0, 1),
    (Push18, 0x71, "PUSH18", Stack, 0, 1),
    (Push19, 0x72, "PUSH19", Stack, 0, 1),
    (Push20, 0x73, "PUSH20", Stack, 0, 1),
    (Push21, 0x74, "PUSH21", Stack, 0, 1),
    (Push22, 0x75, "PUSH22", Stack, 0, 1),
    (Push23, 0x76, "PUSH23", Stack, 0, 1),
    (Push24, 0x77, "PUSH24", Stack, 0, 1),
    (Push25, 0x78, "PUSH25", Stack, 0, 1),
    (Push26, 0x79, "PUSH26", Stack, 0, 1),
    (Push27, 0x7a, "PUSH27", Stack, 0, 1),
    (Push28, 0x7b, "PUSH28", Stack, 0, 1),
    (Push29, 0x7c, "PUSH29", Stack, 0, 1),
    (Push30, 0x7d, "PUSH30", Stack, 0, 1),
    (Push31, 0x7e, "PUSH31", Stack, 0, 1),
    (Push32, 0x7f, "PUSH32", Stack, 0, 1),

    (Dup1, 0x80, "DUP1", Stack, 1, 2),
    (Dup2, 0x81, "DUP2", Stack, 2, 3),
    (Dup3, 0x82, "DUP3", Stack, 3, 4),
    (Dup4, 0x83, "DUP4", Stack, 4, 5),
    (Dup5, 0x84, "DUP5", Stack, 5, 6),
    (Dup6, 0x85, "DUP6", Stack, 6, 7),
    (Dup7, 0x86, "DUP7", Stack, 7, 8),
    (Dup8, 0x87, "DUP8", Stack, 8, 9),
    (Dup9, 0x88, "DUP9", Stack, 9, 10),
    (Dup10, 0x89, "DUP10", Stack, 10, 11),
    (Dup11, 0x8a, "DUP11", Stack, 11, 12),
    (Dup12, 0x8b, "DUP12", Stack, 12, 13),
    (Dup13, 0x8c, "DUP13", Stack, 13, 14),
    (Dup14, 0x8d, "DUP14", Stack, 14, 15),
    (Dup15, 0x8e, "DUP15", Stack, 15, 16),
    (Dup16, 0x8f, "DUP16", Stack, 16, 17),

    (Swap1, 0x90, "SWAP1", Stack, 2, 2),
    (Swap2, 0x91, "SWAP2", Stack, 3, 3),
    (Swap3, 0x92, "SWAP3", Stack, 4, 4),
    (Swap4, 0x93, "SWAP4", Stack, 5, 5),
    (Swap5, 0x94, "SWAP5", Stack, 6, 6),
    (Swap6, 0x95, "SWAP6", Stack, 7, 7),
    (Swap7, 0x96, "SWAP7", Stack, 8, 8),
    (Swap8, 0x97, "SWAP8", Stack, 9, 9),
    (Swap9, 0x98, "SWAP9", Stack, 10, 10),
    (Swap10, 0x99, "SWAP10", Stack, 11, 11),
    (Swap11, 0x9a, "SWAP11", Stack, 12, 12),
    (Swap12, 0x9b, "SWAP12", Stack, 13, 13),
    (Swap13, 0x9c, "SWAP13", Stack, 14, 14),
    (Swap14, 0x9d, "SWAP14", Stack, 15, 15),
    (Swap15, 0x9e, "SWAP15", Stack, 16, 16),
    (Swap16, 0x9f, "SWAP16", Stack, 17, 17),

    (Log0, 0xa0, "LOG0", Memory, 2, 0),
    (Log1, 0xa1, "LOG1", Memory, 3, 0),
    (Log2, 0xa2, "LOG2", Memory, 4, 0),
    (Log3, 0xa3, "LOG3", Memory, 5, 0),
    (Log4, 0xa4, "LOG4", Memory, 6, 0),

    (Create, 0xf0, "CREATE", ContextSwitching, 3, 1),
    (Call, 0xf1, "CALL", ContextSwitching, 7, 1),
    (Callcode, 0xf2, "CALLCODE", ContextSwitching, 7, 1),
    (Return, 0xf3, "RETURN", Control, 2, 0),
    (Delegatecall, 0xf4, "DELEGATECALL", ContextSwitching, 6, 1),
    (Create2, 0xf5, "CREATE2", ContextSwitching, 4, 1),
    (Staticcall, 0xfa, "STATICCALL", ContextSwitching, 6, 1),
    (Revert, 0xfd, "REVERT", Control, 2, 0),
    (Invalid, 0xfe, "INVALID", Control, 0, 0),
    (Selfdestruct, 0xff, "SELFDESTRUCT", Control, 1, 0),
}

impl Opcode {
    /// Immediate size in bytes (nonzero only for `PUSH1..PUSH32`).
    pub const fn immediate_len(self) -> usize {
        let b = self as u8;
        if b >= 0x60 && b <= 0x7f {
            (b - 0x5f) as usize
        } else {
            0
        }
    }

    /// `true` for `PUSH1..PUSH32`.
    pub const fn is_push(self) -> bool {
        self.immediate_len() != 0
    }

    /// `true` for `DUP1..DUP16`.
    pub const fn is_dup(self) -> bool {
        let b = self as u8;
        b >= 0x80 && b <= 0x8f
    }

    /// `true` for `SWAP1..SWAP16`.
    pub const fn is_swap(self) -> bool {
        let b = self as u8;
        b >= 0x90 && b <= 0x9f
    }

    /// `true` if the instruction ends a basic block (any control transfer
    /// or terminator).
    pub const fn is_block_end(self) -> bool {
        matches!(
            self,
            Opcode::Jump
                | Opcode::Jumpi
                | Opcode::Stop
                | Opcode::Return
                | Opcode::Revert
                | Opcode::Invalid
                | Opcode::Selfdestruct
        )
    }

    /// `true` if the instruction terminates the current call frame.
    pub const fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Stop | Opcode::Return | Opcode::Revert | Opcode::Invalid | Opcode::Selfdestruct
        )
    }

    /// The result of a pure opcode — one whose value depends only on its
    /// operands: `ADD`…`SAR`, which includes `ISZERO`, `NOT` and `EXP` —
    /// or `None` for any other opcode.
    ///
    /// Operands come in pop order: `a` is the top of the stack, `b` the
    /// next, `c` the third; operands beyond [`Opcode::stack_pops`] are
    /// ignored. This is the one definition of these opcodes' semantics:
    /// the interpreter, the fusion pass's constant folder and the MTPU
    /// model's constant identification all evaluate through it. `EXP`'s
    /// per-byte gas is the caller's concern.
    // Forced: left to the inliner it stays an out-of-line call from the
    // dispatch loop, ≈ 1 % of `interp_seq` throughput.
    #[inline(always)]
    pub fn eval_pure(self, a: U256, b: U256, c: U256) -> Option<U256> {
        use Opcode::*;
        Some(match self {
            Add => a.wrapping_add(b),
            Mul => a.wrapping_mul(b),
            Sub => a.wrapping_sub(b),
            Div => a.evm_div(b),
            Sdiv => a.evm_sdiv(b),
            Mod => a.evm_rem(b),
            Smod => a.evm_smod(b),
            Addmod => a.addmod(b, c),
            Mulmod => a.mulmod(b, c),
            Exp => a.wrapping_pow(b),
            Signextend => b.signextend(a),
            Lt => U256::from(a < b),
            Gt => U256::from(a > b),
            Slt => U256::from(a.signed_cmp(&b).is_lt()),
            Sgt => U256::from(a.signed_cmp(&b).is_gt()),
            Eq => U256::from(a == b),
            Iszero => U256::from(a.is_zero()),
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Not => !a,
            Byte => b.byte_be(a),
            Shl => b.evm_shl(a),
            Shr => b.evm_shr(a),
            Sar => b.evm_sar(a),
            _ => return None,
        })
    }

    /// `true` for the opcodes [`Opcode::eval_pure`] evaluates: exactly
    /// the Arithmetic and Logic categories of Table 3.
    pub const fn is_pure(self) -> bool {
        matches!(self.category(), OpCategory::Arithmetic | OpCategory::Logic)
    }

    /// The PUSH opcode with an `n`-byte immediate.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 32`.
    pub fn push(n: usize) -> Opcode {
        assert!((1..=32).contains(&n), "PUSH immediate must be 1..=32 bytes");
        Opcode::from_u8(0x5f + n as u8).expect("0x60..=0x7f are PUSH opcodes")
    }

    /// The DUP opcode duplicating the `n`-th stack element (1-based).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 16`.
    pub fn dup(n: usize) -> Opcode {
        assert!((1..=16).contains(&n), "DUP depth must be 1..=16");
        Opcode::from_u8(0x7f + n as u8).expect("0x80..=0x8f are DUP opcodes")
    }

    /// The SWAP opcode swapping with the `n+1`-th stack element (1-based).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 16`.
    pub fn swap(n: usize) -> Opcode {
        assert!((1..=16).contains(&n), "SWAP depth must be 1..=16");
        Opcode::from_u8(0x8f + n as u8).expect("0x90..=0x9f are SWAP opcodes")
    }

    /// The LOG opcode with `n` topics.
    ///
    /// # Panics
    ///
    /// Panics unless `n <= 4`.
    pub fn log(n: usize) -> Opcode {
        assert!(n <= 4, "LOG topic count must be 0..=4");
        Opcode::from_u8(0xa0 + n as u8).expect("0xa0..=0xa4 are LOG opcodes")
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_assigned_bytes() {
        let mut count = 0;
        for b in 0u16..=255 {
            if let Some(op) = Opcode::from_u8(b as u8) {
                assert_eq!(op as u8, b as u8);
                count += 1;
            }
        }
        // 12+14+1+22+12+32+16+16+5+10 assigned bytes in this instruction set.
        assert_eq!(count, 140);
    }

    #[test]
    fn categories_match_table3() {
        assert_eq!(Opcode::Add.category(), OpCategory::Arithmetic);
        assert_eq!(Opcode::Eq.category(), OpCategory::Logic);
        assert_eq!(Opcode::Sha3.category(), OpCategory::Sha);
        assert_eq!(Opcode::Caller.category(), OpCategory::FixedAccess);
        assert_eq!(Opcode::Balance.category(), OpCategory::StateQuery);
        assert_eq!(Opcode::Mload.category(), OpCategory::Memory);
        assert_eq!(Opcode::Log4.category(), OpCategory::Memory);
        assert_eq!(Opcode::Sload.category(), OpCategory::Storage);
        assert_eq!(Opcode::Jumpi.category(), OpCategory::Branch);
        assert_eq!(Opcode::Push32.category(), OpCategory::Stack);
        assert_eq!(Opcode::Return.category(), OpCategory::Control);
        assert_eq!(
            Opcode::Delegatecall.category(),
            OpCategory::ContextSwitching
        );
    }

    #[test]
    fn push_family() {
        assert_eq!(Opcode::push(1), Opcode::Push1);
        assert_eq!(Opcode::push(32), Opcode::Push32);
        assert_eq!(Opcode::Push4.immediate_len(), 4);
        assert!(Opcode::Push1.is_push());
        assert!(!Opcode::Add.is_push());
    }

    #[test]
    fn dup_swap_log_families() {
        assert_eq!(Opcode::dup(1), Opcode::Dup1);
        assert_eq!(Opcode::dup(16), Opcode::Dup16);
        assert_eq!(Opcode::swap(3), Opcode::Swap3);
        assert_eq!(Opcode::log(0), Opcode::Log0);
        assert!(Opcode::Dup3.is_dup());
        assert!(Opcode::Swap9.is_swap());
    }

    #[test]
    fn stack_effects() {
        assert_eq!(Opcode::Add.stack_pops(), 2);
        assert_eq!(Opcode::Add.stack_pushes(), 1);
        assert_eq!(Opcode::Dup2.stack_pops(), 2);
        assert_eq!(Opcode::Dup2.stack_pushes(), 3);
        assert_eq!(Opcode::Swap1.stack_pops(), 2);
        assert_eq!(Opcode::Swap1.stack_pushes(), 2);
        assert_eq!(Opcode::Call.stack_pops(), 7);
    }

    #[test]
    fn block_end_detection() {
        for op in [
            Opcode::Jump,
            Opcode::Jumpi,
            Opcode::Stop,
            Opcode::Return,
            Opcode::Revert,
        ] {
            assert!(op.is_block_end());
        }
        assert!(!Opcode::Add.is_block_end());
        assert!(Opcode::Stop.is_terminator());
        assert!(!Opcode::Jump.is_terminator());
    }

    #[test]
    fn eval_pure_covers_exactly_the_pure_set() {
        let mut pure = 0;
        for b in 0u16..=255 {
            if let Some(op) = Opcode::from_u8(b as u8) {
                let v = op.eval_pure(U256::ONE, U256::ONE, U256::ONE);
                assert_eq!(v.is_some(), op.is_pure(), "{op}");
                pure += op.is_pure() as usize;
            }
        }
        // ADD..SIGNEXTEND (11) and LT..SAR (14).
        assert_eq!(pure, 25);
    }

    #[test]
    fn eval_pure_takes_operands_in_pop_order() {
        let (two, eight) = (U256::from(2u64), U256::from(8u64));
        let z = U256::ZERO;
        // SUB: a - b with a on top.
        assert_eq!(
            Opcode::Sub.eval_pure(two, eight, z),
            Some(two.wrapping_sub(eight))
        );
        // Shifts take the shift amount from the top.
        assert_eq!(
            Opcode::Shl.eval_pure(U256::ONE, two, z),
            Some(U256::from(4u64))
        );
        assert_eq!(
            Opcode::Exp.eval_pure(two, eight, z),
            Some(U256::from(256u64))
        );
        // The third operand is ADDMOD's modulus.
        assert_eq!(
            Opcode::Addmod.eval_pure(eight, eight, U256::from(5u64)),
            Some(U256::ONE)
        );
        assert_eq!(Opcode::Iszero.eval_pure(z, two, two), Some(U256::ONE));
    }

    #[test]
    fn category_index_is_stable() {
        for (i, c) in OpCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
