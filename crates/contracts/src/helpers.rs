//! ABI helpers and assembler extensions shared by the synthetic contracts.

use mtpu_asm::Assembler;
use mtpu_evm::opcode::Opcode;
use mtpu_primitives::{keccak256, U256};

/// First memory offset used for function-local variables (mirrors the
/// Solidity convention of reserving low memory for hashing scratch).
pub const LOCALS_BASE: u64 = 0x80;

/// 4-byte function selector of a signature, e.g.
/// `selector("transfer(address,uint256)")`.
pub fn selector(signature: &str) -> [u8; 4] {
    let h = keccak256(signature.as_bytes());
    [h[0], h[1], h[2], h[3]]
}

/// 32-byte event topic of a signature, e.g.
/// `event_topic("Transfer(address,address,uint256)")`.
pub fn event_topic(signature: &str) -> [u8; 32] {
    keccak256(signature.as_bytes())
}

/// The storage slot of `mapping_slot[key]` for a Solidity mapping at
/// `slot`: `keccak256(key ++ slot)`. Must match
/// [`mtpu_asm::Assembler::mapping_slot`].
pub fn mapping_slot(key: U256, slot: u64) -> U256 {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&key.to_be_bytes());
    buf[32..].copy_from_slice(&U256::from(slot).to_be_bytes());
    U256::from_be_bytes(keccak256(&buf))
}

/// Nested mapping slot `m[key1][key2]` at `slot`:
/// `keccak256(key2 ++ keccak256(key1 ++ slot))`.
pub fn nested_mapping_slot(key1: U256, key2: U256, slot: u64) -> U256 {
    let inner = mapping_slot(key1, slot);
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&key2.to_be_bytes());
    buf[32..].copy_from_slice(&inner.to_be_bytes());
    U256::from_be_bytes(keccak256(&buf))
}

/// ABI-encodes a call: selector followed by 32-byte words.
pub fn call_data(signature: &str, args: &[U256]) -> Vec<u8> {
    let mut data = selector(signature).to_vec();
    for a in args {
        data.extend_from_slice(&a.to_be_bytes());
    }
    data
}

/// Contract-authoring extensions over the base [`Assembler`].
pub trait ContractAsm {
    /// `MLOAD` a local variable at `offset`.
    fn local(&mut self, offset: u64) -> &mut Self;
    /// `MSTORE` the stack top into the local at `offset`.
    fn set_local(&mut self, offset: u64) -> &mut Self;
    /// Stores calldata argument `i` into the local at `offset`.
    fn arg_to_local(&mut self, i: usize, offset: u64) -> &mut Self;
    /// Emits `LOGn` with the given event signature topic; expects the
    /// additional topics pushed (last topic first) and the data already in
    /// memory at `[data_off, data_off+data_len)`.
    fn log_event(
        &mut self,
        sig: &str,
        extra_topics: usize,
        data_off: u64,
        data_len: u64,
    ) -> &mut Self;
    /// `balances[<key on stack>]`-style read: mapping slot + `SLOAD`.
    fn sload_mapping(&mut self, slot: u64) -> &mut Self;
    /// Function prologue with ABI validation: pops the dispatcher's
    /// selector copy and requires `CALLDATASIZE >= 4 + 32 * n_args`
    /// (the Solidity calldata-length check).
    fn fn_enter_args(&mut self, n_args: usize) -> &mut Self;
    /// Loads calldata argument `i`, masks it to 160 bits and requires the
    /// masked value to round-trip (Solidity address-argument cleaning),
    /// storing it in the local at `offset`.
    fn addr_arg_to_local(&mut self, i: usize, offset: u64) -> &mut Self;
    /// Calls an internal subroutine: pushes a fresh return label, jumps
    /// to `fn_label`, and places the return `JUMPDEST`. The callee sees
    /// its arguments below the return address and must end with
    /// `SWAP1; JUMP` (result on top).
    fn call_internal(&mut self, fn_label: &str) -> &mut Self;
    /// Emits the four SafeMath subroutines (`safe_add`, `safe_sub`,
    /// `safe_mul`, `safe_div`), each taking `[a, b, ret]` and returning
    /// `[result]` — the overflow-checked arithmetic every pre-0.8
    /// Solidity token links in.
    fn emit_safemath(&mut self) -> &mut Self;
    /// Replaces the two top stack values `[.., a, b]` with `min(a, b)`.
    fn min(&mut self) -> &mut Self;
    /// Function prologue: `POP` the dispatcher's selector copy.
    fn fn_enter(&mut self) -> &mut Self;
}

impl ContractAsm for Assembler {
    fn local(&mut self, offset: u64) -> &mut Self {
        self.push(offset).op(Opcode::Mload)
    }

    fn set_local(&mut self, offset: u64) -> &mut Self {
        self.push(offset).op(Opcode::Mstore)
    }

    fn arg_to_local(&mut self, i: usize, offset: u64) -> &mut Self {
        self.calldata_arg(i).set_local(offset)
    }

    fn log_event(
        &mut self,
        sig: &str,
        extra_topics: usize,
        data_off: u64,
        data_len: u64,
    ) -> &mut Self {
        self.push_bytes(&event_topic(sig))
            .push(data_len)
            .push(data_off)
            .op(Opcode::log(1 + extra_topics))
    }

    fn sload_mapping(&mut self, slot: u64) -> &mut Self {
        self.mapping_slot(slot).op(Opcode::Sload)
    }

    fn min(&mut self) -> &mut Self {
        // stack [a, b] (b on top). If a < b keep a else keep b.
        // DUP2 DUP2 GT -> a > b ? then b is min.
        let keep_b = self.fresh("min_b");
        let done = self.fresh("min_done");
        self.op(Opcode::Dup2) // [a, b, a]
            .op(Opcode::Dup2) // [a, b, a, b]
            .op(Opcode::Gt) // pops b(top? no: a=pop=b, b=pop=a -> b > a)
            .jumpi(&keep_b) // b > a: keep a (which is NOT top) ...
            // not taken: b <= a -> min is b (top). Drop a underneath.
            .op(Opcode::Swap1)
            .op(Opcode::Pop)
            .jump(&done);
        self.label(&keep_b).op(Opcode::Pop); // [a]
        self.label(&done)
    }

    fn fn_enter(&mut self) -> &mut Self {
        self.op(Opcode::Pop)
    }

    fn fn_enter_args(&mut self, n_args: usize) -> &mut Self {
        self.fn_enter();
        // CALLDATASIZE; PUSH expected; GT; ISZERO; require
        // (expected > size fails).
        self.op(Opcode::Calldatasize)
            .push((4 + 32 * n_args) as u64)
            .op(Opcode::Gt)
            .op(Opcode::Iszero)
            .require()
    }

    fn addr_arg_to_local(&mut self, i: usize, offset: u64) -> &mut Self {
        let mask = (U256::ONE << 160) - U256::ONE;
        self.calldata_arg(i)
            .op(Opcode::Dup1)
            .push(mask)
            .op(Opcode::And) // masked
            .op(Opcode::Dup1)
            .set_local(offset) // keep the cleaned value
            .op(Opcode::Eq) // masked == raw ?
            .require()
    }

    fn call_internal(&mut self, fn_label: &str) -> &mut Self {
        let ret = self.fresh("iret");
        self.push_label(&ret).jump(fn_label).label(&ret)
    }

    fn emit_safemath(&mut self) -> &mut Self {
        use Opcode::*;
        self.revert_anchor();
        // safe_add: [a, b, ret] -> [a + b], require no overflow.
        self.label("safe_add")
            .op(Swap2) // [ret, b, a]
            .op(Dup2) // [ret, b, a, b]
            .op(Add) // [ret, b, c]
            .op(Dup1) // [ret, b, c, c]
            .op(Swap2) // [ret, c, c, b]
            .op(Gt) // b > c -> overflow    [ret, c, flag]
            .op(Iszero)
            .require() // [ret, c]
            .op(Swap1)
            .op(Jump);
        // safe_sub: [a, b, ret] -> [a - b], require b <= a.
        self.label("safe_sub")
            .op(Swap2) // [ret, b, a]
            .op(Dup1) // [ret, b, a, a]
            .op(Dup3) // [ret, b, a, a, b]
            .op(Gt) // b > a ?
            .op(Iszero)
            .require() // [ret, b, a]
            .op(Sub) // a - b           [ret, c]
            .op(Swap1)
            .op(Jump);
        // safe_mul: [a, b, ret] -> [a * b], require a == 0 || c / a == b.
        self.label("safe_mul")
            .op(Swap2) // [ret, b, a]
            .op(Dup2) // [ret, b, a, b]
            .op(Dup2) // [ret, b, a, b, a]
            .op(Mul) // [ret, b, a, c]
            .op(Dup1) // [ret, b, a, c, c]
            .op(Dup3) // [ret, b, a, c, c, a]
            .op(Swap1) // [ret, b, a, c, a, c]
            .op(Div) // c / a (0 when a == 0)  [ret, b, a, c, q]
            .op(Dup4) // [ret, b, a, c, q, b]
            .op(Eq) // [ret, b, a, c, q==b]
            .op(Dup3) // [ret, b, a, c, eq, a]
            .op(Iszero) // [ret, b, a, c, eq, a==0]
            .op(Or)
            .require() // [ret, b, a, c]
            .op(Swap2) // [ret, c, a, b]
            .op(Pop)
            .op(Pop) // [ret, c]
            .op(Swap1)
            .op(Jump);
        // safe_div: [a, b, ret] -> [a / b], require b != 0.
        self.label("safe_div")
            .op(Swap2) // [ret, b, a]
            .op(Dup2) // [ret, b, a, b]
            .op(Iszero)
            .op(Iszero)
            .require() // [ret, b, a]
            .op(Div) // a / b   (a on top)  [ret, c]
            .op(Swap1)
            .op(Jump)
    }
}

/// Internal: unique label helper (mirrors `Assembler::fresh_label`, which
/// is private).
trait Fresh {
    fn fresh(&self, prefix: &str) -> String;
}

impl Fresh for Assembler {
    fn fresh(&self, prefix: &str) -> String {
        // Uniqueness via a thread-local counter: labels only need to be
        // unique within one assembly.
        use std::cell::Cell;
        thread_local! {
            static N: Cell<u64> = const { Cell::new(0) };
        }
        let n = N.with(|c| {
            let v = c.get();
            c.set(v + 1);
            v
        });
        format!("__{prefix}_{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_match_known_values() {
        assert_eq!(
            selector("transfer(address,uint256)"),
            [0xa9, 0x05, 0x9c, 0xbb]
        );
        assert_eq!(selector("balanceOf(address)"), [0x70, 0xa0, 0x82, 0x31]);
        assert_eq!(
            selector("approve(address,uint256)"),
            [0x09, 0x5e, 0xa7, 0xb3]
        );
    }

    #[test]
    fn transfer_event_topic() {
        assert_eq!(
            mtpu_primitives::hex::encode(&event_topic("Transfer(address,address,uint256)")),
            "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
        );
    }

    #[test]
    fn call_data_layout() {
        let d = call_data("f(uint256)", &[U256::from(7u64)]);
        assert_eq!(d.len(), 36);
        assert_eq!(&d[..4], &selector("f(uint256)"));
        assert_eq!(d[35], 7);
    }

    #[test]
    fn mapping_slots_differ_by_key_and_slot() {
        let a = mapping_slot(U256::ONE, 0);
        let b = mapping_slot(U256::ONE, 1);
        let c = mapping_slot(U256::from(2u64), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let n = nested_mapping_slot(U256::ONE, U256::from(2u64), 0);
        let m = nested_mapping_slot(U256::from(2u64), U256::ONE, 0);
        assert_ne!(n, m);
    }
}
