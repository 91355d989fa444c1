//! A programmatic EVM assembler with labels and Solidity-style idiom
//! helpers, used to author the synthetic TOP8 contracts.

use mtpu_evm::opcode::Opcode;
use mtpu_primitives::U256;
use std::collections::HashMap;
use std::fmt;

/// Width in bytes of label-referencing PUSH instructions. Two bytes
/// addresses 64 KiB of code — far beyond the largest real contract.
const LABEL_PUSH_WIDTH: usize = 2;

/// Label of the shared revert block (`Assembler::revert_anchor`).
const REVERT_ANCHOR: &str = "__revert0";

/// Error produced by [`Assembler::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A label address exceeded the PUSH width.
    LabelOutOfRange(String),
    /// `push_bytes` was called with more than 32 bytes.
    ImmediateTooWide(usize),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::LabelOutOfRange(l) => write!(f, "label `{l}` beyond PUSH2 range"),
            AsmError::ImmediateTooWide(n) => write!(f, "push immediate of {n} bytes (max 32)"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    Op(Opcode),
    Imm(Vec<u8>),     // PUSHn + bytes, n == len
    LabelRef(String), // PUSH2 <label>
    LabelDef(String),
}

/// Incremental assembler. All emit methods return `&mut Self` for
/// chaining.
///
/// ```
/// use mtpu_asm::Assembler;
/// use mtpu_evm::opcode::Opcode;
///
/// let code = Assembler::new()
///     .push(2u64)
///     .push(3u64)
///     .op(Opcode::Add)
///     .op(Opcode::Stop)
///     .assemble()?;
/// assert_eq!(code, vec![0x60, 0x02, 0x60, 0x03, 0x01, 0x00]);
/// # Ok::<(), mtpu_asm::AsmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    items: Vec<Item>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Emits a bare opcode.
    pub fn op(&mut self, op: Opcode) -> &mut Self {
        self.items.push(Item::Op(op));
        self
    }

    /// Emits several opcodes.
    pub fn ops(&mut self, ops: &[Opcode]) -> &mut Self {
        for &o in ops {
            self.op(o);
        }
        self
    }

    /// Emits the shortest `PUSHn` holding `value` (PUSH1 0 for zero).
    pub fn push(&mut self, value: impl Into<U256>) -> &mut Self {
        let v: U256 = value.into();
        let bytes = v.to_be_bytes_trimmed();
        let bytes = if bytes.is_empty() { vec![0] } else { bytes };
        self.items.push(Item::Imm(bytes));
        self
    }

    /// Emits `PUSHn` with exactly these bytes (preserves leading zeros —
    /// used for 4-byte selectors).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty. Widths over 32 are reported at
    /// [`Assembler::assemble`] time.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        assert!(!bytes.is_empty(), "push_bytes requires at least one byte");
        self.items.push(Item::Imm(bytes.to_vec()));
        self
    }

    /// Emits `PUSH2 <label>`, resolved at assembly time.
    pub fn push_label(&mut self, name: &str) -> &mut Self {
        self.items.push(Item::LabelRef(name.to_string()));
        self
    }

    /// Defines `name` at the current position **and** emits a `JUMPDEST`.
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.items.push(Item::LabelDef(name.to_string()));
        self.op(Opcode::Jumpdest)
    }

    /// Defines `name` at the current position without a `JUMPDEST`
    /// (for data or fall-through positions).
    pub fn mark(&mut self, name: &str) -> &mut Self {
        self.items.push(Item::LabelDef(name.to_string()));
        self
    }

    /// `PUSH2 label; JUMP`.
    pub fn jump(&mut self, label: &str) -> &mut Self {
        self.push_label(label).op(Opcode::Jump)
    }

    /// `PUSH2 label; JUMPI` — consumes the condition already on the stack.
    pub fn jumpi(&mut self, label: &str) -> &mut Self {
        self.push_label(label).op(Opcode::Jumpi)
    }

    // ------------------------------------------------------------------
    // Solidity-compiler idioms (these produce the instruction mixes of
    // paper Table 6: selector dispatch, mapping slots, require checks).
    // ------------------------------------------------------------------

    /// Emits the standard function dispatcher: load the 4-byte selector
    /// from calldata, compare against each entry, jump to its label;
    /// fall through to `fallback_label`.
    ///
    /// This is the *Compare* chunk of the paper's Fig. 10 bytecode
    /// chunking.
    pub fn dispatcher(&mut self, entries: &[([u8; 4], &str)], fallback_label: &str) -> &mut Self {
        // PUSH1 0; CALLDATALOAD; PUSH1 0xE0; SHR  -> selector on stack
        self.push(0u64)
            .op(Opcode::Calldataload)
            .push(0xe0u64)
            .op(Opcode::Shr);
        for (sel, label) in entries {
            // DUP1; PUSH4 sel; EQ; PUSH2 label; JUMPI
            self.op(Opcode::Dup1)
                .push_bytes(sel)
                .op(Opcode::Eq)
                .jumpi(label);
        }
        self.jump(fallback_label)
    }

    /// Emits the Solidity non-payable check: revert if `CALLVALUE != 0`
    /// (jumps to the shared revert anchor, see
    /// [`Assembler::revert_anchor`]).
    ///
    /// This is the *Check* chunk of the paper's Fig. 10.
    pub fn require_not_payable(&mut self) -> &mut Self {
        self.op(Opcode::Callvalue).jumpi(REVERT_ANCHOR)
    }

    /// Reverts with empty data: `PUSH1 0; PUSH1 0; REVERT`.
    pub fn revert_zero(&mut self) -> &mut Self {
        self.push(0u64).push(0u64).op(Opcode::Revert)
    }

    /// Defines the shared revert target every [`Assembler::require`]
    /// jumps to. Emit exactly once per contract, after the function
    /// bodies.
    pub fn revert_anchor(&mut self) -> &mut Self {
        self.label(REVERT_ANCHOR).revert_zero()
    }

    /// Consumes a boolean on the stack; reverts when it is zero
    /// (Solidity `require`, compiled to a jump to the shared revert
    /// block).
    pub fn require(&mut self) -> &mut Self {
        self.op(Opcode::Iszero).jumpi(REVERT_ANCHOR)
    }

    /// Loads calldata argument `i` (32-byte slots after the selector)
    /// onto the stack with the ABI decoder's offset arithmetic:
    /// `PUSH 32*i; PUSH 4; ADD; CALLDATALOAD`.
    pub fn calldata_arg(&mut self, i: usize) -> &mut Self {
        self.push((32 * i) as u64)
            .push(4u64)
            .op(Opcode::Add)
            .op(Opcode::Calldataload)
    }

    /// Computes a Solidity mapping slot for the key on the stack top:
    /// `keccak256(key ++ slot)`. Consumes the key, leaves the slot hash.
    pub fn mapping_slot(&mut self, slot: u64) -> &mut Self {
        // MSTORE key at 0; MSTORE slot at 32; SHA3(0, 64)
        self.push(0u64)
            .op(Opcode::Mstore)
            .push(slot)
            .push(32u64)
            .op(Opcode::Mstore)
            .push(64u64)
            .push(0u64)
            .op(Opcode::Sha3)
    }

    /// Computes a nested mapping slot `keccak256(key2 ++ keccak256(key1 ++
    /// slot))`. Expects `key2` then `key1` on the stack (key1 on top);
    /// leaves the slot hash.
    pub fn nested_mapping_slot(&mut self, slot: u64) -> &mut Self {
        self.mapping_slot(slot)
            // stack: key2, h1  -> put key2 at 0 and h1 at 32
            .op(Opcode::Swap1)
            .push(0u64)
            .op(Opcode::Mstore)
            .push(32u64)
            .op(Opcode::Mstore)
            .push(64u64)
            .push(0u64)
            .op(Opcode::Sha3)
    }

    /// Returns the 32-byte word on the stack top: store it at memory 0 and
    /// `RETURN(0, 32)`.
    pub fn return_word(&mut self) -> &mut Self {
        self.push(0u64)
            .op(Opcode::Mstore)
            .push(32u64)
            .push(0u64)
            .op(Opcode::Return)
    }

    /// Returns `true` (the common ERC20 success result).
    pub fn return_true(&mut self) -> &mut Self {
        self.push(1u64).return_word()
    }

    /// Resolves labels and produces bytecode.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for undefined/duplicate labels, out-of-range
    /// label addresses, and oversized immediates.
    pub fn assemble(&self) -> Result<Vec<u8>, AsmError> {
        // Pass 1: compute offsets.
        let mut offsets: HashMap<&str, usize> = HashMap::new();
        let mut pc = 0usize;
        for item in &self.items {
            match item {
                Item::Op(_) => pc += 1,
                Item::Imm(bytes) => {
                    if bytes.len() > 32 {
                        return Err(AsmError::ImmediateTooWide(bytes.len()));
                    }
                    pc += 1 + bytes.len();
                }
                Item::LabelRef(_) => pc += 1 + LABEL_PUSH_WIDTH,
                Item::LabelDef(name) => {
                    if offsets.insert(name, pc).is_some() {
                        return Err(AsmError::DuplicateLabel(name.clone()));
                    }
                }
            }
        }
        // Pass 2: emit.
        let mut code = Vec::with_capacity(pc);
        for item in &self.items {
            match item {
                Item::Op(op) => code.push(*op as u8),
                Item::Imm(bytes) => {
                    code.push(Opcode::push(bytes.len()) as u8);
                    code.extend_from_slice(bytes);
                }
                Item::LabelRef(name) => {
                    let &target = offsets
                        .get(name.as_str())
                        .ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?;
                    if target > 0xffff {
                        return Err(AsmError::LabelOutOfRange(name.clone()));
                    }
                    code.push(Opcode::push(LABEL_PUSH_WIDTH) as u8);
                    code.extend_from_slice(&(target as u16).to_be_bytes());
                }
                Item::LabelDef(_) => {}
            }
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::CodeAnalysis;

    #[test]
    fn push_auto_width() {
        let code = Assembler::new()
            .push(0u64)
            .push(0xffu64)
            .push(0x1234u64)
            .assemble()
            .unwrap();
        assert_eq!(code, vec![0x60, 0x00, 0x60, 0xff, 0x61, 0x12, 0x34]);
    }

    #[test]
    fn push_bytes_preserves_leading_zeros() {
        let code = Assembler::new()
            .push_bytes(&[0x00, 0x01])
            .assemble()
            .unwrap();
        assert_eq!(code, vec![0x61, 0x00, 0x01]);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Assembler::new();
        a.jump("end")
            .label("loop")
            .jump("end")
            .label("end")
            .op(Opcode::Stop);
        let code = a.assemble().unwrap();
        // jump("end") = PUSH2 xx xx JUMP (4 bytes); "loop" at 4.
        let analysis = CodeAnalysis::analyze(&code);
        assert!(analysis.is_jumpdest(4), "loop label emits JUMPDEST");
        // The PUSH2 target of the first jump is the "end" JUMPDEST.
        let target = u16::from_be_bytes([code[1], code[2]]) as usize;
        assert!(analysis.is_jumpdest(target));
        assert_eq!(code[target], Opcode::Jumpdest as u8);
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new();
        a.jump("nowhere");
        assert_eq!(
            a.assemble(),
            Err(AsmError::UndefinedLabel("nowhere".into()))
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Assembler::new();
        a.label("x").label("x");
        assert_eq!(a.assemble(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn dispatcher_shape() {
        let mut a = Assembler::new();
        a.dispatcher(&[([0xaa, 0xbb, 0xcc, 0xdd], "f")], "fb");
        a.label("f").op(Opcode::Stop);
        a.label("fb").revert_zero();
        let code = a.assemble().unwrap();
        // Starts with PUSH1 0 CALLDATALOAD PUSH1 E0 SHR.
        assert_eq!(&code[..6], &[0x60, 0x00, 0x35, 0x60, 0xe0, 0x1c]);
        // Contains DUP1 PUSH4 selector EQ.
        let needle = [0x80, 0x63, 0xaa, 0xbb, 0xcc, 0xdd, 0x14];
        assert!(code.windows(needle.len()).any(|w| w == needle));
    }
}
