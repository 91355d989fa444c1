//! Differential fuzzing of superinstruction fusion: every program —
//! random byte soup, block-structured jump graphs, dispatcher-shaped
//! contracts, and the TOP8 fixtures — must produce bit-identical
//! receipts, logs, gas and state roots whether the interpreter
//! dispatches fused superinstructions or single opcodes.
//!
//! Driven by the in-repo deterministic [`SplitMix64`] generator so the
//! suite runs offline with no external crates. The fusion flag is
//! process-global, so the tests in this binary serialize around
//! [`FUSION_LOCK`] and always restore the enabled state.
//!
//! The same harness also differentially tests the storage *prefetch*
//! path: admission hints warm the flat store's cache ahead of execution,
//! and that must be observationally invisible — identical receipts and
//! roots with and without hints, across thread counts and against the
//! in-memory backend.

use mtpu_repro::accountsdb::AccountsDb;
use mtpu_repro::asm::Assembler;
use mtpu_repro::contracts::{call_data, selector, Fixture};
use mtpu_repro::evm::opcode::Opcode;
use mtpu_repro::evm::state::State;
use mtpu_repro::evm::trace::{NoopTracer, TraceRecorder, Tracer, TxTrace};
use mtpu_repro::evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_repro::evm::{
    delta_merkle_root, execute_block, execute_transaction, set_fusion_enabled, StateRead,
};
use mtpu_repro::mempool::{BlockPacker, Mempool, PackerConfig, PoolConfig};
use mtpu_repro::mtpu::sched::DepGraph;
use mtpu_repro::parexec::{ParExecutor, TxHints};
use mtpu_repro::primitives::{Address, SplitMix64, B256, U256};
use std::sync::{Arc, Mutex};

/// Serializes flips of the process-global fusion flag across the tests
/// in this binary.
static FUSION_LOCK: Mutex<()> = Mutex::new(());

fn fusion_guard() -> std::sync::MutexGuard<'static, ()> {
    FUSION_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const CONTRACT: u64 = 0xc0de;
const CALLER: u64 = 0xca11;

/// Executes `code` as a deployed contract called once with `input` and
/// `gas_limit`, returning the receipt and the post-state root.
fn run_one(code: &[u8], input: &[u8], gas_limit: u64, tracer: &mut impl Tracer) -> (Receipt, B256) {
    let contract = Address::from_low_u64(CONTRACT);
    let caller = Address::from_low_u64(CALLER);
    let mut state = State::new();
    state.deploy_code(contract, code.to_vec());
    state.credit(caller, U256::from(u64::MAX));
    state.finalize_tx();

    let tx = Transaction {
        nonce: 0,
        gas_price: U256::ONE,
        gas_limit,
        from: caller,
        to: Some(contract),
        value: U256::ZERO,
        data: input.to_vec(),
    };
    let receipt = execute_transaction(&mut state, &BlockHeader::default(), &tx, tracer)
        .expect("admission passes: funded caller, gas above intrinsic");
    (receipt, state.state_root())
}

/// Runs one program in both modes and asserts observational equality.
/// Returns the (shared) receipt so callers can follow up on successes.
fn assert_equivalent(label: &str, code: &[u8], input: &[u8], gas_limit: u64) -> Receipt {
    set_fusion_enabled(true);
    let (fused, fused_root) = run_one(code, input, gas_limit, &mut NoopTracer);
    set_fusion_enabled(false);
    let (plain, plain_root) = run_one(code, input, gas_limit, &mut NoopTracer);
    set_fusion_enabled(true);
    assert_eq!(
        fused, plain,
        "{label}: receipt diverged (code {code:02x?}, input {input:02x?}, gas {gas_limit})"
    );
    assert_eq!(
        fused_root, plain_root,
        "{label}: state root diverged (code {code:02x?}, input {input:02x?}, gas {gas_limit})"
    );
    fused
}

/// For successful programs the replayed trace must also be identical:
/// the fused dispatcher re-emits per-constituent steps. (Exceptional
/// paths may legally differ in step streams — lump-sum charging can stop
/// earlier or later within a fused site — while receipts stay equal.)
fn assert_trace_equivalent(label: &str, code: &[u8], input: &[u8], gas_limit: u64) {
    let traced = |on: bool| -> TxTrace {
        set_fusion_enabled(on);
        let mut rec = TraceRecorder::new();
        run_one(code, input, gas_limit, &mut rec);
        rec.into_trace()
    };
    let fused = traced(true);
    let plain = traced(false);
    set_fusion_enabled(true);
    assert_eq!(fused.steps, plain.steps, "{label}: step stream diverged");
    assert_eq!(
        fused.storage, plain.storage,
        "{label}: storage accesses diverged"
    );
}

fn random_input(rng: &mut SplitMix64) -> Vec<u8> {
    let len = rng.random_index(64);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_gas(rng: &mut SplitMix64) -> u64 {
    rng.random_range(30_000..300_000)
}

/// Pure byte soup: any byte string is a program; fused and unfused must
/// agree even on invalid opcodes, truncated pushes and stack chaos.
#[test]
fn random_byte_soup_is_observationally_identical() {
    let _guard = fusion_guard();
    let mut rng = SplitMix64::seed_from_u64(0x5009_f00d);
    for case in 0..300 {
        let len = 1 + rng.random_index(160);
        let code: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let input = random_input(&mut rng);
        assert_equivalent(&format!("soup#{case}"), &code, &input, random_gas(&mut rng));
    }
}

/// Emits one random straight-line body instruction. Push-heavy so a
/// useful fraction of programs run deep before halting, with fusible
/// idioms (PUSH+SLOAD, DUP+SLOAD, SWAP+POP, PUSH+PUSH+arith) injected
/// deliberately.
fn push_body_op(rng: &mut SplitMix64, out: &mut Vec<u8>) {
    match rng.random_index(16) {
        0..=4 => {
            // PUSH1/PUSH2 of a small constant.
            if rng.random_bool(0.5) {
                out.push(0x60);
                out.push(rng.next_u64() as u8);
            } else {
                out.push(0x61);
                out.push((rng.next_u64() & 1) as u8);
                out.push(rng.next_u64() as u8);
            }
        }
        5 => {
            // PUSH+PUSH+arith: the constant-folding shape.
            out.push(0x60);
            out.push(rng.next_u64() as u8);
            out.push(0x60);
            out.push(rng.next_u64() as u8);
            out.push([0x01, 0x02, 0x03, 0x16, 0x17, 0x18, 0x1b, 0x1c][rng.random_index(8)]);
        }
        6 => {
            // PUSH+SLOAD on a small slot.
            out.push(0x60);
            out.push(rng.random_index(8) as u8);
            out.push(0x54);
        }
        7 => out.extend_from_slice(&[0x80 + rng.random_index(4) as u8, 0x54]), // DUPn+SLOAD
        8 => out.extend_from_slice(&[0x90, 0x50]),                             // SWAP1+POP
        9 => {
            // PUSH small value, PUSH small slot, SSTORE.
            out.push(0x60);
            out.push(rng.next_u64() as u8);
            out.push(0x60);
            out.push(rng.random_index(8) as u8);
            out.push(0x55);
        }
        10 => out.push(0x80 + rng.random_index(4) as u8), // DUP1..4
        11 => out.push(0x90 + rng.random_index(2) as u8), // SWAP1..2
        12 => out.push([0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x10, 0x11, 0x14][rng.random_index(9)]),
        13 => out.push([0x15, 0x19, 0x16, 0x17, 0x18, 0x1a][rng.random_index(6)]),
        14 => out.push([0x30, 0x33, 0x36, 0x3a, 0x43, 0x5a][rng.random_index(6)]),
        _ => {
            // PUSH1 offset, CALLDATALOAD.
            out.push(0x60);
            out.push(rng.random_index(40) as u8);
            out.push(0x35);
        }
    }
}

/// Block-structured programs: every block starts at a JUMPDEST, bodies
/// are random straight-line code, terminators are PUSH2-resolved JUMP /
/// JUMPI / ISZERO+PUSH2+JUMPI edges to random blocks (the fused branch
/// shapes), or a halt. Two-pass assembly patches the targets.
#[test]
fn random_jump_graphs_are_observationally_identical() {
    let _guard = fusion_guard();
    let mut rng = SplitMix64::seed_from_u64(0x5009_beef);
    for case in 0..150 {
        let nblocks = 3 + rng.random_index(5);
        // Pass 1: bodies (without terminators).
        let bodies: Vec<Vec<u8>> = (0..nblocks)
            .map(|_| {
                let mut b = vec![0x5b]; // JUMPDEST
                for _ in 0..rng.random_index(10) {
                    push_body_op(&mut rng, &mut b);
                }
                b
            })
            .collect();
        // Terminator kinds per block; each occupies a fixed 9 bytes so
        // offsets are computable before targets are known.
        let kinds: Vec<usize> = (0..nblocks).map(|_| rng.random_index(5)).collect();
        let mut offsets = Vec::with_capacity(nblocks);
        let mut off = 0usize;
        for body in &bodies {
            offsets.push(off);
            off += body.len() + 9;
        }
        let mut code = Vec::with_capacity(off);
        for (i, body) in bodies.iter().enumerate() {
            code.extend_from_slice(body);
            let target = offsets[rng.random_index(nblocks)] as u16;
            let cond = rng.next_u64() as u8;
            let mut term = match kinds[i] {
                // PUSH2 target; JUMP; padding
                0 => vec![0x61, (target >> 8) as u8, target as u8, 0x56, 0, 0, 0, 0, 0],
                // PUSH1 cond; PUSH2 target; JUMPI; padding
                1 => vec![
                    0x60,
                    cond,
                    0x61,
                    (target >> 8) as u8,
                    target as u8,
                    0x57,
                    0,
                    0,
                    0,
                ],
                // PUSH1 cond; ISZERO; PUSH2 target; JUMPI: the fused
                // require() shape.
                2 => vec![
                    0x60,
                    cond,
                    0x15,
                    0x61,
                    (target >> 8) as u8,
                    target as u8,
                    0x57,
                    0,
                    0,
                ],
                // PUSH1 32; PUSH1 0; RETURN; padding
                3 => vec![0x60, 0x20, 0x60, 0x00, 0xf3, 0, 0, 0, 0],
                // STOP; padding
                _ => vec![0x00; 9],
            };
            debug_assert_eq!(term.len(), 9);
            code.append(&mut term);
        }
        let input = random_input(&mut rng);
        let gas = random_gas(&mut rng);
        let label = format!("graph#{case}");
        let receipt = assert_equivalent(&label, &code, &input, gas);
        if receipt.success {
            assert_trace_equivalent(&label, &code, &input, gas);
        }
    }
}

/// Dispatcher-shaped contracts: the Solidity selector prologue, a random
/// number of PUSH4-selector arms, a fallback, and per-selector handlers
/// doing storage work — the SelectorDispatch superinstruction's home
/// turf. Calldata alternates between matching selectors, near-misses and
/// garbage.
#[test]
fn random_dispatchers_are_observationally_identical() {
    let _guard = fusion_guard();
    let mut rng = SplitMix64::seed_from_u64(0x5009_d15b);
    for case in 0..100 {
        let narms = 1 + rng.random_index(6);
        let selectors: Vec<u32> = (0..narms).map(|_| rng.next_u64() as u32).collect();

        // Layout: prologue (6 bytes), arms (11 bytes each: DUP1 PUSH4
        // sel EQ PUSH2 dest JUMPI), fallback (PUSH2 fb JUMP = 4 bytes),
        // then handlers and the fallback block.
        let arms_end = 6 + 11 * narms;
        let handlers_start = arms_end + 4;
        // Each handler: JUMPDEST; PUSH1 v; PUSH1 slot; SSTORE; PUSH1
        // slot; SLOAD; PUSH1 0; MSTORE; PUSH1 32; PUSH1 0; RETURN = 16B.
        let handler_len = 16;
        let fb = handlers_start + handler_len * narms;

        let mut code = vec![0x60, 0x00, 0x35, 0x60, 0xe0, 0x1c];
        for (i, sel) in selectors.iter().enumerate() {
            let dest = (handlers_start + handler_len * i) as u16;
            code.push(0x80);
            code.push(0x63);
            code.extend_from_slice(&sel.to_be_bytes());
            code.push(0x14);
            code.push(0x61);
            code.push((dest >> 8) as u8);
            code.push(dest as u8);
            code.push(0x57);
        }
        code.extend_from_slice(&[0x61, (fb >> 8) as u8, fb as u8, 0x56]);
        for i in 0..narms {
            let slot = (i % 4) as u8;
            code.extend_from_slice(&[
                0x5b,
                0x60,
                (0x11 * (i as u8 + 1)),
                0x60,
                slot,
                0x55,
                0x60,
                slot,
                0x54,
                0x60,
                0x00,
                0x52,
                0x60,
                0x20,
                0x60,
                0x00,
                0xf3,
            ]);
        }
        code.extend_from_slice(&[0x5b, 0x60, 0x00, 0x60, 0x00, 0xfd]); // fallback: REVERT(0,0)

        // Probe with matching selectors, a bit-flipped near miss, short
        // calldata and garbage.
        let mut probes: Vec<Vec<u8>> = selectors.iter().map(|s| s.to_be_bytes().to_vec()).collect();
        probes.push((selectors[0] ^ 1).to_be_bytes().to_vec());
        probes.push(vec![0xff; 2]);
        probes.push(random_input(&mut rng));
        for (p, input) in probes.iter().enumerate() {
            let gas = random_gas(&mut rng);
            let label = format!("dispatcher#{case}/{p}");
            let receipt = assert_equivalent(&label, &code, input, gas);
            if receipt.success {
                assert_trace_equivalent(&label, &code, input, gas);
            }
        }
    }
}

/// The TOP8 fixtures end-to-end: a mixed block of real contract calls
/// (ERC20 transfers, proxy dispatch, WETH deposits) must produce
/// identical receipts and an identical Merkle root fused vs unfused.
#[test]
fn top8_fixture_block_is_observationally_identical() {
    let _guard = fusion_guard();
    let mut rng = SplitMix64::seed_from_u64(0x5009_70b8);
    let users = mtpu_repro::contracts::fixture::USER_COUNT;
    let mut fx = Fixture::new();
    let mut txs = Vec::new();
    for i in 0..48u64 {
        let user = 1 + i % (users - 1);
        let to = Fixture::user_address((user + 3) % users).to_u256();
        let amount = U256::from(rng.random_range(1..500));
        match i % 3 {
            0 => txs.push(fx.call_tx(user, "Tether USD", "transfer", &[to, amount])),
            1 => txs.push(fx.call_tx(user, "FiatTokenProxy", "transfer", &[to, amount])),
            _ => {
                let mut tx = fx.call_tx(user, "WETH9", "deposit", &[]);
                tx.value = amount;
                txs.push(tx);
            }
        }
    }
    let block = Block {
        header: BlockHeader::default(),
        transactions: txs,
    };

    let run = |on: bool| -> (Vec<Receipt>, B256) {
        set_fusion_enabled(on);
        let mut state = fx.state.clone();
        let receipts = execute_block(&mut state, &block);
        (receipts, state.merkle_root())
    };
    let (fused_receipts, fused_root) = run(true);
    let (plain_receipts, plain_root) = run(false);
    set_fusion_enabled(true);

    assert!(fused_receipts.iter().all(|r| r.success));
    assert_eq!(fused_receipts, plain_receipts, "TOP8 receipts diverged");
    assert_eq!(fused_root, plain_root, "TOP8 merkle root diverged");
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mtpu-prefetch-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A flat store holding exactly `base`, with everything already moved
/// into storage files so execution reads exercise the positional path.
fn flat_of(base: &State, tag: &str) -> (Arc<AccountsDb>, std::path::PathBuf) {
    let dir = scratch_dir(tag);
    let db = Arc::new(AccountsDb::open(&dir).expect("open flat store"));
    db.bootstrap_from_state(base, 0);
    db.flush_up_to(0).expect("flush bootstrap");
    (db, dir)
}

/// One input of the prefetch grid: a block over `base`, plus the DAG the
/// flat leg schedules by and the admission hints it warms from.
struct GridBlock {
    name: &'static str,
    base: State,
    block: Block,
    dag: DepGraph,
    hints: Vec<TxHints>,
}

/// The mixed TOP8 block (keccak-keyed ledgers), in submission order with
/// no hints.
fn top8_grid_block() -> GridBlock {
    let mut rng = SplitMix64::seed_from_u64(0x93e7_0b8f);
    let users = mtpu_repro::contracts::fixture::USER_COUNT;
    let mut fx = Fixture::new();
    let mut txs = Vec::new();
    for i in 0..48u64 {
        let user = 1 + i % (users - 1);
        let to = Fixture::user_address((user + 3) % users).to_u256();
        let amount = U256::from(rng.random_range(1..500));
        match i % 3 {
            0 => txs.push(fx.call_tx(user, "Tether USD", "transfer", &[to, amount])),
            1 => txs.push(fx.call_tx(user, "FiatTokenProxy", "transfer", &[to, amount])),
            _ => {
                let mut tx = fx.call_tx(user, "WETH9", "deposit", &[]);
                tx.value = amount;
                txs.push(tx);
            }
        }
    }
    GridBlock {
        name: "top8",
        dag: DepGraph::sender_order(&txs),
        block: Block {
            header: BlockHeader::default(),
            transactions: txs,
        },
        base: fx.state,
        hints: Vec::new(),
    }
}

/// `const-ledger`: `settle()` reads 48 constant slots, `settleWide()`
/// reads 96 from a disjoint range.
const LEDGER_SLOTS: u64 = 48;
const LEDGER_BASE: u64 = 0x100;
const LEDGER_WIDE_SLOTS: u64 = 96;
const LEDGER_WIDE_BASE: u64 = 0x1000;
/// `striped-scan`: 8 dispatch arms, 32 slots each, stripes spread apart
/// so their flat-store locations scatter.
const STRIPE_ARMS: u64 = 8;
const STRIPE_SLOTS: u64 = 32;
const STRIPE_BASE: u64 = 0x4000;
const STRIPE_GAP: u64 = 0x400;

fn ledger_address() -> Address {
    Address::from_low_u64(0xC01D_0001)
}

fn scan_address() -> Address {
    Address::from_low_u64(0xC01D_0002)
}

/// `settle()` / `settleWide()` sum constant storage slots and return the
/// sum. Every SLOAD key is a push immediate.
fn ledger_runtime() -> Vec<u8> {
    use Opcode::*;
    let mut a = Assembler::new();
    a.dispatcher(
        &[
            (selector("settle()"), "settle"),
            (selector("settleWide()"), "settle_wide"),
        ],
        "fallback",
    );
    for (label, base, slots) in [
        ("settle", LEDGER_BASE, LEDGER_SLOTS),
        ("settle_wide", LEDGER_WIDE_BASE, LEDGER_WIDE_SLOTS),
    ] {
        a.label(label).push(0u64);
        for k in 0..slots {
            a.push(base + k).op(Sload).op(Add);
        }
        a.return_word();
    }
    a.label("fallback").revert_zero();
    a.revert_anchor();
    a.assemble().expect("const-ledger assembles")
}

/// `scan0()..scan7()` each sum a disjoint [`STRIPE_SLOTS`]-slot stripe;
/// the calldata selector picks which stripe a call reads.
fn scan_runtime() -> Vec<u8> {
    use Opcode::*;
    let mut a = Assembler::new();
    let names: Vec<String> = (0..STRIPE_ARMS).map(|i| format!("scan{i}()")).collect();
    let labels: Vec<String> = (0..STRIPE_ARMS).map(|i| format!("arm{i}")).collect();
    let entries: Vec<([u8; 4], &str)> = names
        .iter()
        .zip(&labels)
        .map(|(n, l)| (selector(n), l.as_str()))
        .collect();
    a.dispatcher(&entries, "fallback");
    for (i, label) in labels.iter().enumerate() {
        a.label(label).push(0u64);
        for j in 0..STRIPE_SLOTS {
            a.push(STRIPE_BASE + i as u64 * STRIPE_GAP + j)
                .op(Sload)
                .op(Add);
        }
        a.return_word();
    }
    a.label("fallback").revert_zero();
    a.revert_anchor();
    a.assemble().expect("striped-scan assembles")
}

/// Installs both synthetic contracts with nonzero values in every slot
/// their code reads, so the reads resolve through the flat store instead
/// of short-circuiting on absent keys.
fn install_contracts(state: &mut State) {
    state.set_code(ledger_address(), ledger_runtime());
    for (base, slots) in [
        (LEDGER_BASE, LEDGER_SLOTS),
        (LEDGER_WIDE_BASE, LEDGER_WIDE_SLOTS),
    ] {
        for k in 0..slots {
            state.set_storage(ledger_address(), U256::from(base + k), U256::from(k + 7));
        }
    }
    state.set_code(scan_address(), scan_runtime());
    for i in 0..STRIPE_ARMS {
        for j in 0..STRIPE_SLOTS {
            state.set_storage(
                scan_address(),
                U256::from(STRIPE_BASE + i * STRIPE_GAP + j),
                U256::from(i * 100 + j + 3),
            );
        }
    }
}

/// 48 calls to `to`, the `i`-th carrying `signature_of(i)`'s selector,
/// admitted to a fresh pool and packed into one block the way the node
/// does it — so the hints are the admission footprints the driver would
/// fire, every key the call reads among them.
fn synthetic_grid_block(
    name: &'static str,
    to: Address,
    signature_of: impl Fn(u64) -> String,
) -> GridBlock {
    let mut fx = Fixture::new();
    install_contracts(&mut fx.state);
    let base = fx.state.clone();
    let pool = Mempool::new(PoolConfig::default());
    for i in 0..48u64 {
        let user = 1 + i;
        let tx = Transaction::call(
            Fixture::user_address(user),
            to,
            call_data(&signature_of(i), &[]),
            fx.next_nonce(user),
        );
        pool.admit(tx, &base).expect("grid tx admits");
    }
    // Gas budget sized for 48 transactions at the 2M default gas limit.
    let packer = BlockPacker::new(PackerConfig {
        gas_limit: 512_000_000,
        ..PackerConfig::default()
    });
    let packed = packer.pack(&pool, BlockHeader::default());
    assert_eq!(packed.block.transactions.len(), 48, "{name}: packed whole");
    let hints = packed.prefetch_hints();
    assert!(
        hints.iter().all(|h| h.storage.len() as u64 >= STRIPE_SLOTS),
        "{name}: admission saw every slot the call reads"
    );
    GridBlock {
        name,
        base,
        hints,
        block: packed.block,
        dag: packed.graph,
    }
}

/// Hints on vs off over the TOP8 fixture block and two blocks whose
/// whole read set is constant-keyed (`const-ledger`: 48/96 constant-slot
/// SLOADs; `striped-scan`: an 8-arm dispatcher over disjoint stripes):
/// receipts and merkle roots must be bit-identical across thread counts,
/// between the in-memory backend and the flat store, and between a flat
/// store warmed by admission hints and one that never sees a hint.
#[test]
fn prefetch_grid_is_observationally_identical() {
    let inputs = [
        top8_grid_block(),
        synthetic_grid_block("const-ledger", ledger_address(), |i| {
            (if i % 2 == 0 {
                "settle()"
            } else {
                "settleWide()"
            })
            .to_string()
        }),
        synthetic_grid_block("striped-scan", scan_address(), |i| {
            format!("scan{}()", i % STRIPE_ARMS)
        }),
    ];
    for GridBlock {
        name,
        base,
        block,
        dag,
        hints,
    } in &inputs
    {
        let mut seq_state = base.clone();
        let seq_receipts = execute_block(&mut seq_state, block);
        let want_root = seq_state.merkle_root();
        assert!(seq_receipts.iter().all(|r| r.success), "{name}: oracle");

        for threads in [1usize, 4, 8] {
            let exec = ParExecutor::new(threads);

            // In-memory State backend: hints have nothing to warm.
            let result = exec.execute_block(base, block);
            assert_eq!(
                result.receipts, seq_receipts,
                "{name} threads={threads} state: receipts"
            );
            assert_eq!(
                result.merkle_root(),
                want_root,
                "{name} threads={threads} state: root"
            );

            // Flat accounts-DB backend, warmed through the async hint
            // path or not at all.
            for prefetch in [true, false] {
                let tag = format!("{name} prefetch={prefetch} threads={threads}");
                let (db, dir) = flat_of(base, &format!("grid-{name}-{prefetch}-{threads}"));
                let hints: &[TxHints] = if prefetch {
                    db.enable_prefetch();
                    hints
                } else {
                    &[]
                };
                let r = exec.execute_block_delta_with_dag_hints(db.as_ref(), block, dag, hints);
                assert_eq!(r.receipts, seq_receipts, "{tag} flat: receipts");
                assert_eq!(
                    delta_merkle_root(base, &r.delta),
                    want_root,
                    "{tag} flat: root"
                );
                drop(db);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The stale-prefetch scenario end-to-end: a counter contract every
/// transaction of one block increments (PUSH1 0; SLOAD; ... SSTORE),
/// called by many independent senders. The warm cache holds the
/// pre-block value of slot 0 while earlier transactions are busy
/// overwriting it — the read path must never serve it past their writes,
/// and speculators that read it must be caught by the lane's validation,
/// landing on the exact sequential count.
#[test]
fn stale_prefetch_is_repaired_by_validation() {
    // PUSH1 0; SLOAD; PUSH1 1; ADD; PUSH1 0; SSTORE; STOP
    let code = vec![0x60, 0x00, 0x54, 0x60, 0x01, 0x01, 0x60, 0x00, 0x55, 0x00];
    let contract = Address::from_low_u64(CONTRACT);
    let senders: Vec<Address> = (1..=16).map(Address::from_low_u64).collect();

    let mut base = State::new();
    base.deploy_code(contract, code);
    for &s in &senders {
        base.credit(s, U256::from(u64::MAX));
    }
    base.finalize_tx();

    let block = Block {
        header: BlockHeader::default(),
        transactions: senders
            .iter()
            .map(|&s| Transaction {
                nonce: 0,
                gas_price: U256::ONE,
                gas_limit: 100_000,
                from: s,
                to: Some(contract),
                value: U256::ZERO,
                data: Vec::new(),
            })
            .collect(),
    };
    let want = U256::from(senders.len() as u64);

    for threads in [1usize, 4, 8] {
        let exec = ParExecutor::new(threads);

        let result = exec.execute_block(&base, &block);
        assert!(result.receipts.iter().all(|r| r.success));
        assert_eq!(
            result.state.storage(contract, U256::ZERO),
            want,
            "threads={threads} state backend lost increments to stale prefetches"
        );

        // Flat backend with async hints: every transaction hints slot 0,
        // so the warm cache definitely holds the (soon-stale) pre-block
        // value while later transactions execute.
        let (db, dir) = flat_of(&base, &format!("stale-{threads}"));
        db.enable_prefetch();
        let hints: Vec<TxHints> = block
            .transactions
            .iter()
            .map(|_| TxHints {
                storage: vec![(contract, U256::ZERO)],
                accounts: vec![contract],
            })
            .collect();
        let dag = DepGraph::sender_order(&block.transactions);
        let r = exec.execute_block_delta_with_dag_hints(db.as_ref(), &block, &dag, &hints);
        assert!(r.receipts.iter().all(|rc| rc.success));
        db.absorb(&r.delta, 1);
        assert_eq!(
            db.read_storage(contract, U256::ZERO),
            want,
            "threads={threads} flat backend lost increments to stale prefetches"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
