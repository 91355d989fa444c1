//! The serializability oracle for the parallel execution engine:
//! across the dependent-ratio × thread-count grid, `ParExecutor` must
//! produce receipts and a final state **bit-identical** to the sequential
//! reference executor — with both the weak sender-order DAG and the
//! precise consensus-stage conflict DAG.

use mtpu_repro::evm::execute_block as sequential;
use mtpu_repro::evm::{commit_block_delta, commit_full, AsyncCommitter};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::primitives::B256;
use mtpu_repro::statedb::{MemStore, StateCommitter};
use mtpu_repro::workloads::{BlockConfig, Generator};

const RATIOS: [f64; 4] = [0.0, 0.2, 0.5, 1.0];
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn config(tx_count: usize, dependent_ratio: f64) -> BlockConfig {
    BlockConfig {
        tx_count,
        dependent_ratio,
        erc20_ratio: None,
        sct_ratio: 0.9,
        chain_bias: 0.5,
        focus: None,
    }
}

/// The full grid with the sender-order DAG (no consensus traces): every
/// conflict the DAG misses must be repaired by validation + re-execution.
#[test]
fn parallel_equals_sequential_with_sender_order_dag() {
    for (r, &ratio) in RATIOS.iter().enumerate() {
        let mut generator = Generator::new(0x5EED + r as u64);
        let prepared = generator.prepared_block(&config(48, ratio));
        let base = &prepared.state_before;
        let mut seq_state = base.clone();
        let seq_receipts = sequential(&mut seq_state, &prepared.block);

        for &threads in &THREADS {
            let result = ParExecutor::new(threads).execute_block(base, &prepared.block);
            assert_eq!(
                result.receipts, seq_receipts,
                "receipts diverged at ratio {ratio} threads {threads}"
            );
            assert_eq!(
                result.state.state_root(),
                seq_state.state_root(),
                "state root diverged at ratio {ratio} threads {threads}"
            );
            assert_eq!(result.stats.txs, 48);
            assert_eq!(
                result.stats.executions,
                48 + result.stats.conflicts,
                "every tx executes once plus its conflict repairs"
            );
        }
    }
}

/// The full grid with the consensus-stage conflict DAG the generator
/// recorded (the paper's §2.2.2 flow).
#[test]
fn parallel_equals_sequential_with_conflict_dag() {
    for (r, &ratio) in RATIOS.iter().enumerate() {
        let mut generator = Generator::new(0xDA6 + r as u64);
        let prepared = generator.prepared_block(&config(48, ratio));
        let base = &prepared.state_before;

        for &threads in &THREADS {
            let result = ParExecutor::new(threads).execute_block_delta_with_dag_hints(
                base,
                &prepared.block,
                &prepared.graph,
                &[],
            );
            let mut state = base.clone();
            result.delta.apply_to(&mut state);
            // The generator already ran the block sequentially while
            // preparing it — its recorded receipts and post-state are the
            // oracle here.
            assert_eq!(
                result.receipts, prepared.receipts,
                "receipts diverged at ratio {ratio} threads {threads}"
            );
            assert_eq!(
                state.state_root(),
                prepared.state_after.state_root(),
                "state root diverged at ratio {ratio} threads {threads}"
            );
        }
    }
}

/// Applying the returned `BlockDelta` to a fresh copy of the base yields
/// the same state as the `state` field — the delta is a faithful,
/// standalone representation of the block's effects.
#[test]
fn block_delta_reproduces_final_state() {
    let mut generator = Generator::new(0xD317A);
    let prepared = generator.prepared_block(&config(32, 0.5));
    let base = &prepared.state_before;
    let result = ParExecutor::new(4).execute_block(base, &prepared.block);

    let mut replayed = base.clone();
    result.delta.apply_to(&mut replayed);
    assert_eq!(replayed.state_root(), result.state.state_root());
    assert_eq!(replayed.state_root(), prepared.state_after.state_root());
}

/// The authenticated-commitment oracle: across thread counts, the
/// parallel engine must land on the same 32-byte Merkle Patricia Trie
/// root as the sequential reference — both when rebuilt from the
/// post-state and when committed incrementally from the block's delta.
#[test]
fn merkle_root_matches_across_threads() {
    for (r, &ratio) in [0.0, 0.5, 1.0].iter().enumerate() {
        let mut generator = Generator::new(0x3007 + r as u64);
        let prepared = generator.prepared_block(&config(40, ratio));
        let base = &prepared.state_before;
        let mut seq_state = base.clone();
        sequential(&mut seq_state, &prepared.block);
        let oracle = seq_state.merkle_root();
        assert_ne!(oracle, base.merkle_root(), "block must change state");

        for &threads in &[1usize, 4, 8] {
            let result = ParExecutor::new(threads).execute_block(base, &prepared.block);
            assert_eq!(
                result.merkle_root(),
                oracle,
                "post-state merkle root diverged at threads {threads}"
            );
            assert_eq!(
                result.delta_merkle_root(base),
                oracle,
                "incremental merkle root diverged at threads {threads}"
            );
        }
    }
}

/// The execute/commit-overlap oracle: a multi-block chain is executed
/// at each thread count and committed two ways —
/// synchronously after each block, and pipelined through the background
/// commit thread (`AsyncCommitter::submit`) with
/// the handles only joined after every block was submitted. Every
/// configuration must produce the same per-block root sequence as the
/// sequential reference.
#[test]
fn async_commit_pipeline_matches_synchronous_roots() {
    const CHAIN: usize = 3;

    // Build the chain once; the sequential executor is the oracle.
    let mut generator = Generator::new(0xA57C);
    let genesis = generator.fx.state.clone();
    let mut blocks = Vec::new();
    let mut oracle_roots = Vec::new();
    let mut seq_state = genesis.clone();
    for _ in 0..CHAIN {
        let block = generator.block(&config(32, 0.4));
        sequential(&mut seq_state, &block);
        generator.fx.state = seq_state.clone();
        oracle_roots.push(seq_state.merkle_root());
        blocks.push(block);
    }

    let seeded = |threads: usize| {
        let mut c = StateCommitter::new(MemStore::new()).with_threads(threads);
        commit_full(&mut c, &genesis);
        c.commit();
        c
    };

    for &threads in &[1usize, 4, 8] {
        let exec = ParExecutor::new(threads);

        // Synchronous: commit each block's delta before executing
        // the next.
        let mut committer = seeded(threads);
        let mut state = genesis.clone();
        let mut sync_roots = Vec::new();
        for block in &blocks {
            let result = exec.execute_block(&state, block);
            sync_roots.push(commit_block_delta(&mut committer, &state, &result.delta));
            state = result.state;
        }
        assert_eq!(
            sync_roots, oracle_roots,
            "synchronous roots diverged at threads {threads}"
        );

        // Pipelined: submit every block's commit to the background
        // thread, joining the handles only at the end — block N+1
        // executes while block N hashes.
        let committer = AsyncCommitter::new(seeded(threads));
        let mut state = genesis.clone();
        let mut handles = Vec::new();
        for block in &blocks {
            let result = exec.execute_block(&state, block);
            handles.push(committer.submit(&state, &result.delta));
            state = result.state;
        }
        let pipe_roots: Vec<B256> = handles.into_iter().map(|h| h.wait()).collect();
        assert_eq!(
            pipe_roots, oracle_roots,
            "pipelined roots diverged at threads {threads}"
        );
    }
}

/// Superinstruction fusion must be invisible to the serializability
/// oracle: with fusion on and off, sequentially and in parallel at every
/// thread count, the engine lands on receipts and Merkle roots identical
/// to the sequential-unfused reference.
#[test]
fn fusion_is_invisible_to_the_serializability_oracle() {
    use mtpu_repro::evm::set_fusion_enabled;

    let mut generator = Generator::new(0xF05E);
    let prepared = generator.prepared_block(&config(48, 0.4));
    let base = &prepared.state_before;

    // Sequential-unfused is the reference for the whole grid.
    set_fusion_enabled(false);
    let mut oracle_state = base.clone();
    let oracle_receipts = sequential(&mut oracle_state, &prepared.block);
    let oracle_root = oracle_state.merkle_root();

    for fused in [false, true] {
        set_fusion_enabled(fused);
        let mut seq_state = base.clone();
        assert_eq!(
            sequential(&mut seq_state, &prepared.block),
            oracle_receipts,
            "sequential receipts diverged with fusion={fused}"
        );
        assert_eq!(
            seq_state.merkle_root(),
            oracle_root,
            "sequential merkle root diverged with fusion={fused}"
        );
        for &threads in &[1usize, 4, 8] {
            let result = ParExecutor::new(threads).execute_block(base, &prepared.block);
            assert_eq!(
                result.receipts, oracle_receipts,
                "parallel receipts diverged with fusion={fused} threads {threads}"
            );
            assert_eq!(
                result.merkle_root(),
                oracle_root,
                "parallel merkle root diverged with fusion={fused} threads {threads}"
            );
            assert_eq!(
                result.delta_merkle_root(base),
                oracle_root,
                "incremental merkle root diverged with fusion={fused} threads {threads}"
            );
        }
    }
    set_fusion_enabled(true);
}

/// Determinism across repeated parallel runs: same block, same threads,
/// same results — scheduling noise must never leak into outputs.
#[test]
fn repeated_runs_are_deterministic() {
    let mut generator = Generator::new(0x4E9EA7);
    let prepared = generator.prepared_block(&config(40, 0.3));
    let base = &prepared.state_before;
    let exec = ParExecutor::new(4);
    let first = exec.execute_block(base, &prepared.block);
    for _ in 0..3 {
        let again = exec.execute_block(base, &prepared.block);
        assert_eq!(again.receipts, first.receipts);
        assert_eq!(again.state.state_root(), first.state.state_root());
    }
}

/// Init code of the six shapes' CREATE2 child: returns empty code.
const EMPTY_CHILD_INIT: [u8; 5] = [0x60, 0x00, 0x60, 0x00, 0xf3];

/// The factory of the six interpreter shapes (the one
/// `crates/mempool/tests/footprint_parity.rs` builds): `deploy(uint256)`
/// runs CREATE2 on `child_init` (at most 32 bytes) salted with its
/// argument, `churn(uint256)` is a keccak loop.
fn factory_runtime(child_init: &[u8]) -> Vec<u8> {
    use mtpu_repro::asm::Assembler;
    use mtpu_repro::contracts::selector;
    use mtpu_repro::evm::Opcode::*;
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
        .push_bytes(child_init)
        .push(0u64)
        .op(Mstore)
        .push(child_init.len() as u64)
        .push(32u64 - child_init.len() as u64)
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

/// What the commit lane, admission and `call_readonly` rely on: an
/// unrecorded overlay is the recorded one minus the read set. Over the six
/// shapes of `footprint_parity.rs` both produce the same write set and
/// receipt, and only the recorded one comes apart into a read set.
#[test]
fn unrecorded_overlay_equals_the_recorded_one_minus_the_read_set() {
    use mtpu_repro::contracts::{call_data, Fixture};
    use mtpu_repro::evm::{
        execute_transaction, BlockHeader, NoopTracer, StateOverlay, Transaction, Unrecorded,
    };
    use mtpu_repro::primitives::{Address, U256};

    let mut fx = Fixture::new();
    let factory = Address::from_low_u64(0xFAC7_0001);
    fx.state
        .set_code(factory, factory_runtime(&EMPTY_CHILD_INIT));
    fx.state.finalize_tx();
    let mut state = fx.state.clone();
    let header = BlockHeader::default();

    for i in 0..3u64 {
        let user = 1 + i;
        let to = Fixture::user_address(user + 3).to_u256();
        let amount = U256::from(10 + i);
        let (tin, tout) = Fixture::user_pair(user);
        // Built in execution order: each call takes the user's next nonce.
        let mut shapes = vec![
            (
                "usdt-transfer",
                fx.call_tx(user, "Tether USD", "transfer", &[to, amount]),
            ),
            (
                "proxy-dispatch",
                fx.call_tx(user, "FiatTokenProxy", "transfer", &[to, amount]),
            ),
            ("weth9-deposit", fx.call_tx(user, "WETH9", "deposit", &[])),
            (
                "weth9-transfer",
                fx.call_tx(user, "WETH9", "transfer", &[to, amount]),
            ),
            (
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
            ),
        ];
        shapes[2].1.value = U256::from(50 + i);
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
            shapes.push((
                name,
                Transaction::call(from, factory, data, fx.next_nonce(user)),
            ));
        }

        for (name, tx) in &shapes {
            let mut recorded = StateOverlay::new(&state);
            let want = execute_transaction(&mut recorded, &header, tx, &mut NoopTracer)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert!(want.success, "{name}#{i} must succeed");
            let (want_delta, reads) = recorded.into_parts();

            let mut unrecorded = StateOverlay::unrecorded(&state);
            let got = execute_transaction(&mut unrecorded, &header, tx, &mut NoopTracer)
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
            let (got_delta, Unrecorded) = unrecorded.into_parts();

            assert_eq!(got, want, "{name}#{i}: receipt");
            assert_eq!(got_delta, want_delta, "{name}#{i}: write set");
            assert!(!reads.is_empty(), "{name}#{i}: the recorded one observed");
            got_delta.apply_to(&mut state);
        }
    }
}

/// Runtime of the re-creatable child: empty calldata self-destructs to
/// the caller, anything else copies slot 0 into slot 1.
const CHILD_RUNTIME: [u8; 15] = [
    0x36, 0x15, 0x60, 0x0c, 0x57, // CALLDATASIZE ISZERO PUSH1 kill JUMPI
    0x60, 0x00, 0x54, 0x60, 0x01, 0x55, 0x00, // SSTORE(1, SLOAD(0)) STOP
    0x5b, 0x33, 0xff, // kill: JUMPDEST CALLER SELFDESTRUCT
];

/// CODECOPY `CHILD_RUNTIME` (which follows these 12 bytes) and return it.
fn child_init() -> Vec<u8> {
    let mut init = vec![
        0x60, 15, 0x60, 12, 0x60, 0x00, 0x39, 0x60, 15, 0x60, 0x00, 0xf3,
    ];
    init.extend_from_slice(&CHILD_RUNTIME);
    init
}

/// A block that destroys a CREATE2 child and re-creates it at the same
/// address: the re-created account must read zero for every slot it has
/// not written, not the storage of its previous incarnation. Pins the
/// `shadows_base` half of the delta-read rule in every layered view — the
/// parallel executor's overlays, the read server's delta chain and the
/// accounts-DB's absorb.
#[test]
fn recreated_account_does_not_see_its_predecessors_storage() {
    use mtpu_repro::accountsdb::AccountsDb;
    use mtpu_repro::contracts::call_data;
    use mtpu_repro::evm::state::{State, StateOps};
    use mtpu_repro::evm::tx::{Block, BlockHeader, Transaction};
    use mtpu_repro::evm::StateRead;
    use mtpu_repro::mempool::{BlockSink, CommittedBlock};
    use mtpu_repro::primitives::{Address, U256};
    use mtpu_repro::readserve::{ReadServeConfig, ReadServer};
    use std::sync::Arc;

    let user = Address::from_low_u64(0xA11CE);
    let factory = Address::from_low_u64(0xFAC7_0002);
    let salt = U256::from(0x5A17u64);
    let init = child_init();
    let child = Address::create2(factory, B256::from_u256(salt), &init);
    let deploy = call_data("deploy(uint256)", &[salt]);
    let block_at = |height, transactions| Block {
        header: BlockHeader {
            height,
            ..Default::default()
        },
        transactions,
    };

    // Base: the child deployed through the factory, slot 0 = 7, and a
    // balance its self-destruct hands back to the caller.
    let mut base = State::new();
    base.credit(user, U256::from(1_000_000_000u64));
    base.set_code(factory, factory_runtime(&init));
    base.finalize_tx();
    let setup = sequential(
        &mut base,
        &block_at(0, vec![Transaction::call(user, factory, deploy.clone(), 0)]),
    );
    assert!(setup[0].success, "base deployment");
    assert_eq!(base.load_code(child), CHILD_RUNTIME);
    base.set_storage(child, U256::ZERO, U256::from(7u64));
    base.credit(child, U256::from(99u64));
    base.finalize_tx();

    let block = block_at(
        1,
        vec![
            Transaction::call(user, child, Vec::new(), 1),
            Transaction::call(user, factory, deploy, 2),
            Transaction::call(user, child, vec![1], 3),
        ],
    );
    let mut seq_state = base.clone();
    let seq_receipts = sequential(&mut seq_state, &block);
    assert!(seq_receipts.iter().all(|r| r.success));
    assert_eq!(seq_state.storage(child, U256::ONE), U256::ZERO);

    let mut delta = None;
    for threads in [1, 2, 4] {
        let result = ParExecutor::new(threads).execute_block(&base, &block);
        assert_eq!(
            result.receipts, seq_receipts,
            "receipts diverged at threads {threads}"
        );
        assert_eq!(
            result.state.state_root(),
            seq_state.state_root(),
            "state root diverged at threads {threads}"
        );
        delta = Some(result.delta);
    }
    let delta = Arc::new(delta.expect("ran at least once"));

    let server = ReadServer::new(base.clone(), ReadServeConfig::default());
    server.on_block(CommittedBlock {
        height: 1,
        block: Arc::new(block),
        receipts: Arc::new(seq_receipts),
        state: None,
        delta: delta.clone(),
    });
    let snap = server.snapshot(Some(1)).expect("height 1 is retained");

    let dir = std::env::temp_dir().join(format!("mtpu-parexec-recreate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&base, 0);
    db.absorb(&delta, 1);

    let views: [(&str, &dyn StateRead); 2] = [("read server", &*snap), ("accounts db", &db)];
    for (name, view) in views {
        assert_eq!(
            view.read_balance(child),
            seq_state.balance(child),
            "{name}: balance"
        );
        assert_eq!(
            view.read_code(child),
            seq_state.load_code(child),
            "{name}: code"
        );
        for slot in [U256::ZERO, U256::ONE] {
            assert_eq!(
                view.read_storage(child, slot),
                seq_state.storage(child, slot),
                "{name}: slot {slot:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
