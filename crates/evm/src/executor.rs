//! Transaction-level execution: nonce/balance validation, intrinsic gas,
//! the top-level call or create, refunds and fee payment.
//!
//! [`execute_block`] is the *sequential* reference executor — the paper's
//! Fig. 1 baseline that all parallel schedules must agree with.

use crate::gas;
use crate::interpreter::{CallParams, Evm, FrameResult, Halt};
use crate::overlay::{StateOverlay, StateRead};
use crate::state::{State, StateOps};
use crate::trace::{CallKind, NoopTracer, TraceRecorder, Tracer, TxTrace};
use crate::tx::{Block, BlockHeader, Log, Receipt, Transaction};
use mtpu_primitives::{Address, U256};

/// Why a transaction was rejected before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// Transaction nonce does not match the sender's account nonce.
    NonceMismatch {
        /// Nonce expected by the account.
        expected: u64,
        /// Nonce carried by the transaction.
        got: u64,
    },
    /// Sender cannot pay `gas_limit * gas_price + value`.
    InsufficientFunds,
    /// `gas_limit` does not cover even the intrinsic gas.
    IntrinsicGasTooLow,
}

impl core::fmt::Display for TxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TxError::NonceMismatch { expected, got } => {
                write!(f, "nonce mismatch: expected {expected}, got {got}")
            }
            TxError::InsufficientFunds => f.write_str("insufficient funds for gas and value"),
            TxError::IntrinsicGasTooLow => f.write_str("gas limit below intrinsic gas"),
        }
    }
}

impl std::error::Error for TxError {}

/// The most wei `tx` can cost its sender: the full gas prepayment plus
/// the transferred value — what a mempool must see covered by the
/// sender's committed balance before admitting the transaction.
pub fn max_tx_cost(tx: &Transaction) -> U256 {
    U256::from(tx.gas_limit) * tx.gas_price + tx.value
}

/// Admission-time preflight a mempool runs against *committed* state:
/// intrinsic gas, balance cover for [`max_tx_cost`], and nonce
/// freshness. Unlike [`execute_transaction`]'s check, a nonce *above*
/// the account's is accepted — the pool parks such transactions until
/// the gap fills — and is reported via `Ok(true)`.
///
/// # Errors
///
/// Returns [`TxError::NonceMismatch`] only for *stale* nonces (below the
/// account nonce), plus the same funds/intrinsic-gas errors execution
/// would raise.
pub fn admission_preflight<S: crate::overlay::StateRead>(
    state: &S,
    tx: &Transaction,
) -> Result<bool, TxError> {
    let expected = state.read_nonce(tx.from);
    if tx.nonce < expected {
        return Err(TxError::NonceMismatch {
            expected,
            got: tx.nonce,
        });
    }
    if tx.gas_limit < gas::intrinsic_gas(&tx.data, tx.to.is_none()) {
        return Err(TxError::IntrinsicGasTooLow);
    }
    if state.read_balance(tx.from) < max_tx_cost(tx) {
        return Err(TxError::InsufficientFunds);
    }
    Ok(tx.nonce > expected)
}

/// Executes one transaction against `state`, observing with `tracer`.
///
/// On success the state is committed (journal cleared); validation errors
/// leave the state untouched.
///
/// # Errors
///
/// Returns [`TxError`] when the transaction is invalid (such transactions
/// would never be packed into a block).
pub fn execute_transaction<S: StateOps, T: Tracer>(
    state: &mut S,
    header: &BlockHeader,
    tx: &Transaction,
    tracer: &mut T,
) -> Result<Receipt, TxError> {
    let expected = state.nonce(tx.from);
    if expected != tx.nonce {
        return Err(TxError::NonceMismatch {
            expected,
            got: tx.nonce,
        });
    }
    let gas_fee = U256::from(tx.gas_limit) * tx.gas_price;
    if state.balance(tx.from) < gas_fee + tx.value {
        return Err(TxError::InsufficientFunds);
    }
    let intrinsic = gas::intrinsic_gas(&tx.data, tx.to.is_none());
    if tx.gas_limit < intrinsic {
        return Err(TxError::IntrinsicGasTooLow);
    }

    // Buy gas and bump the nonce.
    state.debit(tx.from, gas_fee);
    state.bump_nonce(tx.from);

    let mut evm = Evm::new(state, header, tx.from, tx.gas_price, tracer);
    let exec_gas = tx.gas_limit - intrinsic;

    let (result, created): (FrameResult, Option<Address>) = match tx.to {
        Some(to) => {
            let res = evm.call(CallParams {
                kind: CallKind::Call,
                caller: tx.from,
                code_address: to,
                storage_address: to,
                value: tx.value,
                transfers_value: true,
                input: tx.data.clone(),
                gas: exec_gas,
                is_static: false,
                depth: 0,
            });
            (res, None)
        }
        None => {
            let new_address = Address::create(tx.from, tx.nonce);
            let (res, created) =
                evm.create(tx.from, tx.value, tx.data.clone(), exec_gas, new_address, 0);
            (res, created)
        }
    };

    let success = result.success();
    let logs = if success {
        std::mem::take(&mut evm.logs)
    } else {
        Vec::new()
    };
    let refund_counter = evm.refund;

    let mut gas_used = tx.gas_limit - result.gas_left;
    if success {
        // EIP-ish refund cap: half of used gas.
        let refund = refund_counter.min(gas_used / 2);
        gas_used -= refund;
    }
    let gas_left = tx.gas_limit - gas_used;

    // Return unused gas, then pay the miner *commutatively*: the coinbase
    // fee must not enter the read set of an overlay, or every transaction
    // in a block would appear to conflict on the miner's balance
    // (Block-STM's commutative-deposit rule).
    state.credit(tx.from, U256::from(gas_left) * tx.gas_price);
    state.accrue(header.coinbase, U256::from(gas_used) * tx.gas_price);
    state.finalize_tx();

    if mtpu_telemetry::enabled() {
        let m = crate::obs::metrics();
        m.tx_executed.inc();
        m.gas_used.add(gas_used);
        if !success {
            m.tx_failed.inc();
        }
    }

    Ok(Receipt {
        success,
        gas_used,
        logs,
        output: match result.halt {
            Halt::Return | Halt::Revert => result.output,
            _ => Vec::new(),
        },
        created,
    })
}

/// Executes a transaction and records its full [`TxTrace`].
///
/// # Errors
///
/// Propagates [`TxError`] from [`execute_transaction`].
pub fn trace_transaction<S: StateOps>(
    state: &mut S,
    header: &BlockHeader,
    tx: &Transaction,
) -> Result<(Receipt, TxTrace), TxError> {
    let mut recorder = TraceRecorder::new();
    let receipt = execute_transaction(state, header, tx, &mut recorder)?;
    recorder.set_outcome(receipt.gas_used, receipt.success);
    Ok((receipt, recorder.into_trace()))
}

/// An `eth_call`-style read-only simulation request: a message call with
/// no transaction envelope — no nonce check, no fee payment, no receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadCall {
    /// Simulated caller (any address; no signature required).
    pub from: Address,
    /// Contract to call.
    pub to: Address,
    /// Value transferred by the simulated call.
    pub value: U256,
    /// ABI-encoded calldata.
    pub data: Vec<u8>,
    /// Gas budget of the simulation.
    pub gas: u64,
}

impl ReadCall {
    /// A zero-value call of `data` against `to` with a 10M-gas budget.
    pub fn view(from: Address, to: Address, data: Vec<u8>) -> Self {
        ReadCall {
            from,
            to,
            value: U256::ZERO,
            data,
            gas: 10_000_000,
        }
    }
}

/// What a [`call_readonly`] simulation produced. Deterministic given the
/// snapshot and header it ran against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadCallOutcome {
    /// `true` when the call did not revert or run out of gas.
    pub success: bool,
    /// Gas consumed by the call body (no intrinsic gas is charged).
    pub gas_used: u64,
    /// Return (or revert) data of the top-level call.
    pub output: Vec<u8>,
    /// Logs the simulation would have emitted (discarded on failure).
    pub logs: Vec<Log>,
}

/// Runs a read-only `eth_call` simulation against an immutable base view.
///
/// The call executes on a throwaway unrecorded [`StateOverlay`] over
/// `base` — full interpreter semantics, including nested calls and
/// (simulated) writes — and the overlay's delta is dropped afterwards, so
/// the base is never mutated and any number of simulations can run
/// concurrently against the same snapshot.
pub fn call_readonly<B: StateRead>(
    base: &B,
    header: &BlockHeader,
    call: &ReadCall,
) -> ReadCallOutcome {
    let mut overlay = StateOverlay::unrecorded(base);
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(&mut overlay, header, call.from, U256::ZERO, &mut tracer);
    let result = evm.call(CallParams {
        kind: CallKind::Call,
        caller: call.from,
        code_address: call.to,
        storage_address: call.to,
        value: call.value,
        transfers_value: true,
        input: call.data.clone(),
        gas: call.gas,
        is_static: false,
        depth: 0,
    });
    let success = result.success();
    let logs = if success {
        std::mem::take(&mut evm.logs)
    } else {
        Vec::new()
    };
    ReadCallOutcome {
        success,
        gas_used: call.gas - result.gas_left,
        output: match result.halt {
            Halt::Return | Halt::Revert => result.output,
            _ => Vec::new(),
        },
        logs,
    }
}

/// Sequentially executes a whole block (the consistency baseline).
///
/// Invalid transactions are skipped with a failed pseudo-receipt — a real
/// node would never include them, but the workload generator can produce
/// them under fault injection.
pub fn execute_block(state: &mut State, block: &Block) -> Vec<Receipt> {
    let mut receipts = Vec::with_capacity(block.transactions.len());
    for tx in &block.transactions {
        let mut tracer = NoopTracer;
        match execute_transaction(state, &block.header, tx, &mut tracer) {
            Ok(r) => receipts.push(r),
            Err(_) => receipts.push(Receipt {
                success: false,
                gas_used: 0,
                logs: Vec::new(),
                output: Vec::new(),
                created: None,
            }),
        }
    }
    receipts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn funded_state(addrs: &[Address]) -> State {
        let mut st = State::new();
        for &a in addrs {
            st.credit(a, U256::from(10_000_000_000u64));
        }
        st.finalize_tx();
        st
    }

    #[test]
    fn plain_transfer() {
        let from = Address::from_low_u64(1);
        let to = Address::from_low_u64(2);
        let mut st = funded_state(&[from]);
        let header = BlockHeader::default();
        let tx = Transaction::transfer(from, to, U256::from(1234u64), 0);
        let r = execute_transaction(&mut st, &header, &tx, &mut NoopTracer).unwrap();
        assert!(r.success);
        assert_eq!(r.gas_used, 21_000);
        assert_eq!(st.balance(to), U256::from(1234u64));
        assert_eq!(st.nonce(from), 1);
        // Miner got the fee.
        assert_eq!(st.balance(header.coinbase), U256::from(21_000u64));
    }

    #[test]
    fn admission_preflight_accepts_future_nonces() {
        let from = Address::from_low_u64(1);
        let to = Address::from_low_u64(2);
        let st = funded_state(&[from]);
        let now = Transaction::transfer(from, to, U256::ONE, 0);
        assert_eq!(admission_preflight(&st, &now), Ok(false));
        let future = Transaction::transfer(from, to, U256::ONE, 3);
        assert_eq!(admission_preflight(&st, &future), Ok(true));
        // Stale nonces, unaffordable cost and too-low gas are rejected.
        let mut bumped = st.clone();
        bumped.bump_nonce(from);
        bumped.finalize_tx();
        assert_eq!(
            admission_preflight(&bumped, &now),
            Err(TxError::NonceMismatch {
                expected: 1,
                got: 0
            })
        );
        let rich = Transaction::transfer(from, to, U256::from(u64::MAX), 0);
        assert_eq!(
            admission_preflight(&st, &rich),
            Err(TxError::InsufficientFunds)
        );
        let mut starved = now.clone();
        starved.gas_limit = 100;
        assert_eq!(
            admission_preflight(&st, &starved),
            Err(TxError::IntrinsicGasTooLow)
        );
        assert_eq!(max_tx_cost(&now), U256::from(21_001u64));
    }

    #[test]
    fn nonce_must_match() {
        let from = Address::from_low_u64(1);
        let to = Address::from_low_u64(2);
        let mut st = funded_state(&[from]);
        let header = BlockHeader::default();
        let tx = Transaction::transfer(from, to, U256::ONE, 5);
        assert_eq!(
            execute_transaction(&mut st, &header, &tx, &mut NoopTracer),
            Err(TxError::NonceMismatch {
                expected: 0,
                got: 5
            })
        );
    }

    #[test]
    fn insufficient_funds_rejected() {
        let from = Address::from_low_u64(1);
        let mut st = State::new();
        st.credit(from, U256::from(100u64));
        st.finalize_tx();
        let header = BlockHeader::default();
        let tx = Transaction::transfer(from, Address::from_low_u64(2), U256::ONE, 0);
        assert_eq!(
            execute_transaction(&mut st, &header, &tx, &mut NoopTracer),
            Err(TxError::InsufficientFunds)
        );
    }

    #[test]
    fn create_deploys_code() {
        let from = Address::from_low_u64(1);
        let mut st = funded_state(&[from]);
        let header = BlockHeader::default();
        // Init code returning 2 bytes of runtime code [0x60, 0x00]:
        // PUSH2 0x6000, PUSH1 0, MSTORE  (word ends at offset 32)
        // PUSH1 2, PUSH1 30, RETURN
        let init = vec![
            0x61, 0x60, 0x00, 0x60, 0x00, 0x52, 0x60, 0x02, 0x60, 0x1e, 0xf3,
        ];
        let tx = Transaction {
            nonce: 0,
            gas_price: U256::ONE,
            gas_limit: 200_000,
            from,
            to: None,
            value: U256::ZERO,
            data: init,
        };
        let r = execute_transaction(&mut st, &header, &tx, &mut NoopTracer).unwrap();
        assert!(r.success);
        let created = r.created.expect("contract created");
        assert_eq!(st.code(created), &[0x60, 0x00]);
        assert_eq!(created, Address::create(from, 0));
    }

    #[test]
    fn reverted_tx_still_pays_gas() {
        let from = Address::from_low_u64(1);
        let contract = Address::from_low_u64(0xc0de);
        let mut st = funded_state(&[from]);
        // Always reverts.
        st.deploy_code(contract, vec![0x60, 0x00, 0x60, 0x00, 0xfd]);
        let header = BlockHeader::default();
        let before = st.balance(from);
        let tx = Transaction::call(from, contract, vec![0x01, 0x02, 0x03, 0x04], 0);
        let r = execute_transaction(&mut st, &header, &tx, &mut NoopTracer).unwrap();
        assert!(!r.success);
        assert!(r.gas_used >= 21_000);
        assert!(st.balance(from) < before);
        assert_eq!(st.nonce(from), 1, "nonce advances even on revert");
    }

    #[test]
    fn trace_records_instruction_stream() {
        let from = Address::from_low_u64(1);
        let contract = Address::from_low_u64(0xc0de);
        let mut st = funded_state(&[from]);
        st.deploy_code(contract, vec![0x60, 0x02, 0x60, 0x03, 0x01, 0x00]);
        let header = BlockHeader::default();
        let tx = Transaction::call(from, contract, vec![0xaa, 0xbb, 0xcc, 0xdd], 0);
        let (r, trace) = trace_transaction(&mut st, &header, &tx).unwrap();
        assert!(r.success);
        assert_eq!(trace.steps.len(), 4); // PUSH, PUSH, ADD, STOP
        assert_eq!(trace.frames.len(), 1);
        assert_eq!(trace.frames[0].selector, Some([0xaa, 0xbb, 0xcc, 0xdd]));
        assert_eq!(trace.gas_used, r.gas_used);
    }

    #[test]
    fn readonly_call_reads_without_mutating_the_base() {
        let caller = Address::from_low_u64(1);
        let contract = Address::from_low_u64(0xc0de);
        let mut st = funded_state(&[caller]);
        // PUSH1 0, SLOAD, PUSH1 0, MSTORE, PUSH1 32, PUSH1 0, RETURN —
        // returns storage slot 0 as a 32-byte word.
        st.deploy_code(
            contract,
            vec![
                0x60, 0x00, 0x54, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
            ],
        );
        st.set_storage(contract, U256::ZERO, U256::from(42u64));
        st.finalize_tx();
        let before = st.state_root();

        let call = ReadCall::view(caller, contract, Vec::new());
        let out = call_readonly(&st, &BlockHeader::default(), &call);
        assert!(out.success);
        assert!(out.gas_used > 0);
        assert_eq!(
            U256::from_be_bytes(out.output.try_into().unwrap()),
            U256::from(42u64)
        );
        // The simulation ran on a throwaway overlay: the base is intact,
        // and the caller paid nothing.
        assert_eq!(st.state_root(), before);
        assert_eq!(st.nonce(caller), 0);
    }

    #[test]
    fn sequential_block_execution_is_deterministic() {
        let users: Vec<Address> = (1..=4).map(Address::from_low_u64).collect();
        let mut st1 = funded_state(&users);
        let mut st2 = st1.clone();
        let block = Block {
            header: BlockHeader::default(),
            transactions: vec![
                Transaction::transfer(users[0], users[1], U256::from(5u64), 0),
                Transaction::transfer(users[1], users[2], U256::from(3u64), 0),
                Transaction::transfer(users[0], users[3], U256::from(2u64), 1),
            ],
        };
        let r1 = execute_block(&mut st1, &block);
        let r2 = execute_block(&mut st2, &block);
        assert!(r1.iter().all(|r| r.success));
        assert_eq!(r1, r2);
        assert_eq!(st1.state_root(), st2.state_root());
    }
}
