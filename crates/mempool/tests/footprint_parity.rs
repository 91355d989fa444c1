//! Admission extracts a transaction's conflict footprint from one untraced
//! execution (`speculative_rw_set`). It must be the footprint the recorded
//! trace of the same execution yields (`tx_rw_set(trace_transaction(..))`,
//! what the simulator's DAG is built from) for every transaction shape the
//! repository builds, with superinstruction fusion on and off — and the
//! receipts and final Merkle root of those executions must not depend on
//! the fusion mode either.

use mtpu::sched::{speculative_rw_set, static_rw_set, tx_rw_set, RwSet, SlotKey};
use mtpu_asm::{parse_asm, Assembler};
use mtpu_contracts::{call_data, selector, Fixture};
use mtpu_evm::opcode::Opcode;
use mtpu_evm::overlay::StateOverlay;
use mtpu_evm::state::State;
use mtpu_evm::trace::NoopTracer;
use mtpu_evm::tx::{BlockHeader, Receipt, Transaction};
use mtpu_evm::{execute_transaction, set_fusion_enabled, trace_transaction};
use mtpu_mempool::{Admitted, Mempool, PoolConfig};
use mtpu_primitives::{Address, U256};
use mtpu_workloads::{ZipfConfig, ZipfGen};

/// The mempool's extraction before this test existed: a full step trace,
/// read for its storage list.
fn traced(state: &State, tx: &Transaction) -> RwSet {
    let mut overlay = StateOverlay::new(state);
    match trace_transaction(&mut overlay, &BlockHeader::default(), tx) {
        Ok((_, trace)) => tx_rw_set(tx, &trace),
        Err(_) => static_rw_set(tx),
    }
}

fn untraced(state: &State, tx: &Transaction) -> RwSet {
    let mut overlay = StateOverlay::new(state);
    speculative_rw_set(&mut overlay, &BlockHeader::default(), tx)
        .unwrap_or_else(|_| static_rw_set(tx))
}

/// Checks parity for `tx` on `state`, then applies it so the next
/// transaction of the stream finds its nonce. Returns the footprint and
/// the receipt of the applied execution.
fn check(state: &mut State, tx: &Transaction, what: &str) -> (RwSet, Receipt) {
    let got = untraced(state, tx);
    assert_eq!(got, traced(state, tx), "{what}: untraced != traced");
    let receipt = execute_transaction(state, &BlockHeader::default(), tx, &mut NoopTracer)
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    (got, receipt)
}

/// The `interp_hot` factory: `deploy(uint256 salt)` runs CREATE2 on a
/// five-byte init code, `churn(uint256 n)` is a keccak loop.
fn factory_runtime() -> Vec<u8> {
    use Opcode::*;
    const CHILD_INIT: [u8; 5] = [0x60, 0x00, 0x60, 0x00, 0xf3];
    let mut a = Assembler::new();
    a.dispatcher(
        &[
            (selector("deploy(uint256)"), "deploy"),
            (selector("churn(uint256)"), "churn"),
        ],
        "fallback",
    );
    a.label("deploy")
        .calldata_arg(0)
        .push_bytes(&CHILD_INIT)
        .push(0u64)
        .op(Mstore)
        .push(CHILD_INIT.len() as u64)
        .push(32u64 - CHILD_INIT.len() as u64)
        .push(0u64)
        .op(Create2)
        .op(Dup1)
        .require()
        .return_word();
    a.label("churn")
        .calldata_arg(0)
        .label("churn_loop")
        .op(Dup1)
        .op(Iszero)
        .jumpi("churn_done")
        .op(Dup1)
        .push(0u64)
        .op(Mstore)
        .push(64u64)
        .push(0u64)
        .op(Sha3)
        .push(32u64)
        .op(Mstore)
        .push(1u64)
        .op(Swap1)
        .op(Sub)
        .jump("churn_loop");
    a.label("churn_done").op(Pop).return_true();
    a.label("fallback").revert_zero();
    a.revert_anchor();
    a.assemble().expect("factory assembles")
}

/// The six `interp_hot` shapes, `rounds` of each.
fn interp_hot_shapes(
    fx: &mut Fixture,
    factory: Address,
    rounds: u64,
) -> Vec<(String, Transaction)> {
    let mut out = Vec::new();
    for i in 0..rounds {
        let user = 1 + i;
        let to = Fixture::user_address(user + 3).to_u256();
        let amount = U256::from(10 + i);
        let mut push = |name: &str, tx: Transaction| out.push((format!("{name}#{i}"), tx));
        push(
            "usdt-transfer",
            fx.call_tx(user, "Tether USD", "transfer", &[to, amount]),
        );
        push(
            "proxy-dispatch",
            fx.call_tx(user, "FiatTokenProxy", "transfer", &[to, amount]),
        );
        let mut deposit = fx.call_tx(user, "WETH9", "deposit", &[]);
        deposit.value = U256::from(50 + i);
        push("weth9-deposit", deposit);
        push(
            "weth9-transfer",
            fx.call_tx(user, "WETH9", "transfer", &[to, amount]),
        );
        let (tin, tout) = Fixture::user_pair(user);
        push(
            "router-swap",
            fx.call_tx(
                user,
                "UniswapV2Router02",
                "swapExactTokens",
                &[
                    tin.to_u256(),
                    tout.to_u256(),
                    U256::from(1_000 + i),
                    U256::ZERO,
                ],
            ),
        );
        for (name, data) in [
            (
                "create2-factory",
                call_data("deploy(uint256)", &[U256::from(0xdead_0000 + i)]),
            ),
            (
                "churn-loop",
                call_data("churn(uint256)", &[U256::from(8u64)]),
            ),
        ] {
            let from = Fixture::user_address(user);
            let nonce = fx.next_nonce(user);
            push(name, Transaction::call(from, factory, data, nonce));
        }
    }
    out
}

/// `outer` reads its slot 0 and CALLs `middle`; `middle` DELEGATECALLs
/// `inner`, whose code bumps slot 1 — of `middle`, the storage owner —
/// and then `middle` writes its slot 2.
fn nested_contracts(state: &mut State) -> (Address, Address) {
    let outer = Address::from_low_u64(0xCA11_0001);
    let middle = Address::from_low_u64(0xCA11_0002);
    let inner = Address::from_low_u64(0xCA11_0003);
    let asm = |src: String| parse_asm(&src).expect("test contract assembles");
    state.set_code(
        outer,
        asm(format!(
            "PUSH 0\nSLOAD\nPOP\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH {middle}\nGAS\nCALL\nPOP\nSTOP"
        )),
    );
    state.set_code(
        middle,
        asm(format!(
            "PUSH 0\nPUSH 0\nPUSH 0\nPUSH 0\nPUSH {inner}\nGAS\nDELEGATECALL\nPOP\nPUSH 7\nPUSH 2\nSSTORE\nSTOP"
        )),
    );
    state.set_code(
        inner,
        asm("PUSH 1\nSLOAD\nPUSH 1\nADD\nPUSH 1\nSSTORE\nSTOP".to_string()),
    );
    state.finalize_tx();
    (outer, middle)
}

/// One test, because the fusion flag is process-global.
#[test]
fn untraced_footprint_equals_the_traced_one_for_every_shape() {
    // Per fusion mode: every receipt of the fixture stream, and the root
    // it leaves behind.
    let mut outcomes = Vec::new();
    for fusion in [true, false] {
        set_fusion_enabled(fusion);
        let mut fx = Fixture::new();
        let factory = Address::from_low_u64(0xFAC7_0001);
        fx.state.set_code(factory, factory_runtime());
        let (outer, middle) = nested_contracts(&mut fx.state);

        let shapes = interp_hot_shapes(&mut fx, factory, 3);
        let mut state = fx.state.clone();
        let mut with_storage = 0;
        let mut receipts = Vec::new();
        for (name, tx) in &shapes {
            let (rw, receipt) = check(&mut state, tx, name);
            assert!(receipt.success, "{name} must succeed (fusion {fusion})");
            with_storage += usize::from(!rw.reads.is_empty());
            receipts.push((name.clone(), receipt));
        }
        assert!(with_storage >= 15, "token shapes must touch storage");

        // A Tether transfer beyond the sender's balance: the balance is
        // read, the require fails, and the read stays in the footprint.
        let broke = fx.call_tx(
            900,
            "Tether USD",
            "transfer",
            &[Fixture::user_address(901).to_u256(), U256::MAX >> 8],
        );
        let (rw, receipt) = check(&mut state, &broke, "reverting transfer");
        assert!(!receipt.success && !rw.reads.is_empty());
        receipts.push(("reverting transfer".to_string(), receipt));

        // Storage is attributed to the frame's storage owner, not to the
        // account whose code runs.
        let nested = Transaction::call(
            Fixture::user_address(902),
            outer,
            Vec::new(),
            fx.next_nonce(902),
        );
        let (rw, receipt) = check(&mut state, &nested, "nested call + delegatecall");
        assert!(receipt.success);
        receipts.push(("nested call".to_string(), receipt));
        outcomes.push((receipts, state.merkle_root()));
        let slot = |addr, key: u64| SlotKey::Storage(addr, U256::from(key));
        assert_eq!(rw.reads, vec![slot(outer, 0), slot(middle, 1)]);
        assert_eq!(rw.writes, vec![slot(middle, 1), slot(middle, 2)]);

        // An execution the executor refuses (nonce from the future):
        // both sides fall back to the static value-transfer footprint.
        let mut early = Transaction::transfer(
            Fixture::user_address(903),
            Fixture::user_address(904),
            U256::from(5u64),
            7,
        );
        early.gas_price = U256::ONE;
        let mut overlay = StateOverlay::new(&state);
        assert!(speculative_rw_set(&mut overlay, &BlockHeader::default(), &early).is_err());
        assert_eq!(untraced(&state, &early), traced(&state, &early));
        assert_eq!(untraced(&state, &early), static_rw_set(&early));

        // The Zipf fixture's stream (Tether calls and plain transfers),
        // and what the pool files for it.
        let mut gen = ZipfGen::new(7, ZipfConfig::default());
        let mut state = gen.genesis_state().clone();
        let pool = Mempool::new(PoolConfig::default());
        for i in 0..300 {
            let tx = gen.next_tx();
            assert_eq!(pool.admit(tx.clone(), &state), Ok(Admitted::Ready));
            let (want, _) = check(&mut state, &tx, &format!("zipf#{i}"));
            let chains = pool.ready_chains();
            let filed = &chains[0].txs[0];
            assert!(!filed.approximate && filed.rw == want, "zipf#{i}");
            pool.observe_committed(&state);
            assert!(pool.is_empty(), "the committed transaction is purged");
        }
    }
    set_fusion_enabled(true);
    let (fused, plain) = (&outcomes[0], &outcomes[1]);
    for (f, p) in fused.0.iter().zip(&plain.0) {
        assert_eq!(f, p, "receipt diverged fused vs unfused");
    }
    assert_eq!(fused.1, plain.1, "merkle root diverged fused vs unfused");
}
