//! `interp_seq`: six call-heavy contract shapes executed sequentially on
//! the in-memory state. `evm` and `primitives` do all the work; mempool,
//! parexec, statedb and accountsdb are not called in the end-to-end pass.

use crate::metrics::Values;
use crate::stats::{cumulative, median, session_timings};
use crate::{cores, Outcome};
use mtpu_contracts::fixture::USER_COUNT;
use mtpu_contracts::{addresses, call_data, selector, Fixture};
use mtpu_evm::opcode::Opcode;
use mtpu_evm::trace::NoopTracer;
use mtpu_evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_evm::{call_readonly, execute_block, execute_transaction, CodeAnalysis, ReadCall, State};
use mtpu_parexec::ParExecutor;
use mtpu_primitives::{keccak256, Address, SplitMix64, U256};
use std::hint::black_box;
use std::time::Instant;

const BLOCK_TXS: usize = 128;
/// Blocks per end-to-end session: p95 has ten samples beyond it.
const BLOCKS: usize = 240;
/// Blocks per shape in the traced pass.
const SHAPE_BLOCKS: usize = 24;
const SEGMENTS: usize = 5;

/// The metric each shape's cost is reported under, in the order
/// [`generate`] numbers the shapes.
const SHAPE_METRICS: [&str; 6] = [
    "evm.usdt_transfer_ns_per_tx",
    "evm.proxy_dispatch_ns_per_tx",
    "evm.weth9_storm_ns_per_tx",
    "evm.router_swap_ns_per_tx",
    "evm.create2_factory_ns_per_tx",
    "evm.churn_loop_ns_per_tx",
];

/// The CREATE2 factory's child init code: returns an empty runtime.
const CHILD_INIT: [u8; 5] = [0x60, 0x00, 0x60, 0x00, 0xf3];

/// `deploy(uint256 salt)` runs CREATE2 on [`CHILD_INIT`]; `churn(uint256
/// n)` is a jump-heavy keccak loop.
fn factory_runtime() -> Vec<u8> {
    use Opcode::*;
    let mut a = mtpu_asm::Assembler::new();
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

/// Deploys the factory from user 0 behind the canonical constructor
/// (copy the runtime to memory, return it).
fn deploy_factory(fx: &mut Fixture) -> Address {
    let runtime = factory_runtime();
    let len = runtime.len() as u16;
    // PUSH2 len; DUP1; PUSH2 offset; PUSH1 0; CODECOPY; PUSH1 0; RETURN
    let mut init = vec![
        0x61,
        (len >> 8) as u8,
        len as u8,
        0x80,
        0x61,
        0x00,
        0x0d,
        0x60,
        0x00,
        0x39,
        0x60,
        0x00,
        0xf3,
    ];
    init.extend_from_slice(&runtime);
    let tx = Transaction {
        nonce: fx.next_nonce(0),
        gas_price: U256::ONE,
        gas_limit: 2_000_000,
        from: Fixture::user_address(0),
        to: None,
        value: U256::ZERO,
        data: init,
    };
    let receipt = execute_transaction(&mut fx.state, &BlockHeader::default(), &tx, &mut NoopTracer)
        .expect("factory deploy validates");
    assert!(receipt.success, "factory deploy must succeed");
    receipt
        .created
        .expect("creation receipt carries the address")
}

/// Generated inputs: the world before the first block, and the blocks.
struct Inputs {
    base: State,
    blocks: Vec<Block>,
}

/// `blocks` blocks whose `i`-th transaction overall has shape
/// `shape_of(i)`, over one fixture so nonces stay contiguous per user.
fn generate(seed: u64, blocks: usize, shape_of: impl Fn(u64) -> usize) -> Inputs {
    let mut fx = Fixture::new();
    let factory = deploy_factory(&mut fx);
    let base = fx.state.clone();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut amount = |lo: u64, hi: u64| U256::from(rng.random_range(lo..hi));
    let peer = |user: u64, step: u64| Fixture::user_address((user + step) % USER_COUNT).to_u256();
    let mut txs = (0..(blocks * BLOCK_TXS) as u64).map(|i| {
        let user = 1 + i % (USER_COUNT - 1);
        match shape_of(i) {
            0 => fx.call_tx(
                user,
                "Tether USD",
                "transfer",
                &[peer(user, 3), amount(1, 900)],
            ),
            1 => fx.call_tx(
                user,
                "FiatTokenProxy",
                "transfer",
                &[peer(user, 5), amount(1, 900)],
            ),
            2 if i % 2 == 0 => {
                let mut tx = fx.call_tx(user, "WETH9", "deposit", &[]);
                tx.value = amount(1, 100);
                tx
            }
            2 => fx.call_tx(user, "WETH9", "transfer", &[peer(user, 9), amount(1, 50)]),
            3 => {
                let (tin, tout) = Fixture::user_pair(user);
                let args = [
                    tin.to_u256(),
                    tout.to_u256(),
                    amount(1_000, 50_000),
                    U256::ZERO,
                ];
                fx.call_tx(user, "UniswapV2Router02", "swapExactTokens", &args)
            }
            4 => {
                let data = call_data("deploy(uint256)", &[U256::from(0xdead_0000 + i)]);
                Transaction::call(
                    Fixture::user_address(user),
                    factory,
                    data,
                    fx.next_nonce(user),
                )
            }
            _ => {
                let data = call_data("churn(uint256)", &[U256::from(48u64)]);
                Transaction::call(
                    Fixture::user_address(user),
                    factory,
                    data,
                    fx.next_nonce(user),
                )
            }
        }
    });
    let blocks = (0..blocks)
        .map(|_| Block {
            header: BlockHeader::default(),
            transactions: txs.by_ref().take(BLOCK_TXS).collect(),
        })
        .collect();
    Inputs { base, blocks }
}

/// What one sequential pass over the blocks produced.
struct Run {
    receipts: Vec<Vec<Receipt>>,
    /// ns each `execute_block` call took.
    block_ns: Vec<u64>,
}

impl Run {
    fn total_ns(&self) -> u64 {
        self.block_ns.iter().sum()
    }
}

fn run_sequential(inputs: &Inputs) -> Run {
    let mut state = inputs.base.clone();
    let mut run = Run {
        receipts: Vec::with_capacity(inputs.blocks.len()),
        block_ns: Vec::with_capacity(inputs.blocks.len()),
    };
    for block in &inputs.blocks {
        let t = Instant::now();
        let receipts = execute_block(&mut state, block);
        run.block_ns.push(t.elapsed().as_nanos() as u64);
        run.receipts.push(receipts);
    }
    run
}

/// `(attempted, failed)` transactions of a run.
fn tally(run: &Run) -> (u64, u64) {
    let all = run.receipts.iter().flatten();
    (
        all.clone().count() as u64,
        all.filter(|r| !r.success).count() as u64,
    )
}

/// Sessions of generate → execute until `seconds` have passed (three at
/// least). Every transaction must succeed and every session must produce
/// the first one's receipts.
pub fn end_to_end(seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    let (mut setup_s, mut timings) = (Vec::new(), Vec::new());
    let mut first: Option<Run> = None;
    while setup_s.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let inputs = generate(seed, BLOCKS, |i| (i % 6) as usize);
        setup_s.push(t.elapsed().as_secs_f64());
        let run = run_sequential(&inputs);

        let stamps = cumulative(&run.block_ns);
        timings.push(session_timings(
            0,
            &stamps,
            &[BLOCK_TXS as u64; BLOCKS],
            SEGMENTS,
        ));

        let (attempted, failed) = tally(&run);
        out.attempted += attempted;
        out.failed += failed;
        match &first {
            Some(f) => out.check(
                f.receipts == run.receipts,
                "two sessions over one seed produced different receipts",
            ),
            None => first = Some(run),
        }
    }
    out.set_end_to_end(&setup_s, &timings);
    out.note(format!(
        "{} sessions x {BLOCKS} blocks x {BLOCK_TXS} txs, six shapes interleaved, one thread",
        setup_s.len()
    ));
    out
}

/// ns per call of `f` over `n` calls.
fn ns_per<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        black_box(f(i));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// The denominators under the interpreter: U256 arithmetic, keccak and
/// RLP on seeded operands.
fn micro(seed: u64, txs: &[Transaction]) -> Vec<(&'static str, f64)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut word = || {
        let mut b = [0u8; 32];
        rng.fill_bytes(&mut b);
        U256::from_be_bytes(b)
    };
    let ops: Vec<(U256, U256, U256)> = (0..1024)
        .map(|_| (word(), word() >> 64usize, word() | U256::ONE))
        .collect();
    let at = |i: usize| black_box(ops[i % ops.len()]);
    let mut buf = vec![0u8; 1024];
    rng.fill_bytes(&mut buf);
    let encoded: usize = txs.iter().map(|tx| tx.rlp_encode().len()).sum();
    vec![
        (
            "primitives.u256_mul_ns",
            ns_per(1 << 18, |i| at(i).0.wrapping_mul(at(i).1)),
        ),
        (
            "primitives.u256_div_ns",
            ns_per(1 << 17, |i| at(i).0.evm_div(at(i).1)),
        ),
        (
            "primitives.u256_mulmod_ns",
            ns_per(1 << 16, |i| at(i).0.mulmod(at(i).1, at(i).2)),
        ),
        (
            "primitives.u256_exp_ns",
            ns_per(1 << 13, |i| at(i).0.wrapping_pow(at(i).1 >> 128usize)),
        ),
        (
            "primitives.keccak_ns_per_byte",
            ns_per(1 << 12, |_| keccak256(black_box(&buf))) / buf.len() as f64,
        ),
        (
            "primitives.rlp_encode_ns_per_byte",
            ns_per(4, |_| {
                txs.iter().map(|tx| tx.rlp_encode().len()).sum::<usize>()
            }) / encoded as f64,
        ),
    ]
}

/// One round of the traced pass: each shape on its own blocks, sequential
/// and through `parexec`, then the micro loops.
fn traced_round(seed: u64, out: &mut Outcome) -> Vec<(&'static str, f64)> {
    let exec = ParExecutor::new(cores().min(2));
    let mut values = Vec::new();
    let (mut seq_ns, mut par_ns, mut gas, mut txs) = (0u64, 0u64, 0u64, 0u64);
    let mut sample_txs = Vec::new();
    let mut base = None;
    for (shape, metric) in SHAPE_METRICS.iter().enumerate() {
        let inputs = generate(seed, SHAPE_BLOCKS, |_| shape);
        let seq = run_sequential(&inputs);
        let (attempted, failed) = tally(&seq);
        out.attempted += attempted;
        out.failed += failed;
        values.push((*metric, seq.total_ns() as f64 / attempted as f64));
        seq_ns += seq.total_ns();
        txs += attempted;
        gas += seq
            .receipts
            .iter()
            .flatten()
            .map(|r| r.gas_used)
            .sum::<u64>();

        let mut state = inputs.base.clone();
        let mut par_receipts = Vec::with_capacity(inputs.blocks.len());
        for block in &inputs.blocks {
            let t = Instant::now();
            let result = exec.execute_block(&state, block);
            par_ns += t.elapsed().as_nanos() as u64;
            par_receipts.push(result.receipts);
            state = result.state;
        }
        out.check(
            par_receipts == seq.receipts,
            "parexec receipts differ from sequential execution",
        );
        sample_txs.extend(inputs.blocks[0].transactions.iter().cloned());
        base.get_or_insert(inputs.base);
    }
    values.push(("evm.gas_per_tx", gas as f64 / txs as f64));
    values.push(("parexec.par_over_seq", par_ns as f64 / seq_ns as f64));

    // Cold analysis of every deployed contract: the cost side of fusion
    // and prefetch plans, paid once per bytecode.
    let base = base.expect("six shapes ran");
    let fx = Fixture::new();
    let codes: Vec<Vec<u8>> = fx
        .contracts
        .iter()
        .chain(&fx.extras)
        .map(|c| c.code.clone())
        .collect();
    let bytes: usize = codes.iter().map(Vec::len).sum();
    let t = Instant::now();
    for _ in 0..8 {
        for code in &codes {
            black_box(CodeAnalysis::analyze(black_box(code)));
        }
    }
    values.push((
        "evm.analyze_us_per_kb",
        t.elapsed().as_secs_f64() * 1e6 / 8.0 / (bytes as f64 / 1024.0),
    ));

    let header = BlockHeader::default();
    let who = Fixture::user_address(7);
    let call = ReadCall::view(
        who,
        addresses::tether(),
        call_data("balanceOf(address)", &[who.to_u256()]),
    );
    let outcome = call_readonly(&base, &header, &call);
    out.check(outcome.success, "balanceOf simulation failed");
    values.push((
        "evm.call_readonly_us",
        ns_per(1 << 12, |_| call_readonly(&base, &header, &call)) / 1e3,
    ));

    values.extend(micro(seed, &sample_txs));
    values
}

/// Rounds of the traced pass until `seconds` have passed (two at least);
/// each metric is the median over rounds.
pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut rounds: Vec<Vec<(&'static str, f64)>> = Vec::new();
    while rounds.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let round = traced_round(seed, &mut out);
        rounds.push(round);
    }
    let mut v = Values::default();
    for (i, (name, _)) in rounds[0].iter().enumerate() {
        v.set(
            name,
            median(&rounds.iter().map(|r| r[i].1).collect::<Vec<_>>()),
        );
    }
    out.values = v;
    out.note(format!(
        "{} rounds x {} shapes x {SHAPE_BLOCKS} blocks x {BLOCK_TXS} txs, sequential then parexec",
        rounds.len(),
        SHAPE_METRICS.len()
    ));
    out
}
