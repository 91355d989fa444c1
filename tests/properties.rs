//! Randomized tests spanning crates: differential interpreter checking
//! (random expression programs vs direct U256 evaluation), fill-unit
//! invariants, and scheduler correctness on random DAGs. Driven by the
//! in-repo deterministic [`SplitMix64`] generator so the suite runs
//! offline with no external crates.

use mtpu_repro::asm::Assembler;
use mtpu_repro::evm::interpreter::{CallParams, Evm};
use mtpu_repro::evm::opcode::Opcode;
use mtpu_repro::evm::state::State;
use mtpu_repro::evm::trace::{CallKind, NoopTracer, TraceRecorder, Tracer};
use mtpu_repro::evm::tx::BlockHeader;
use mtpu_repro::mtpu::dbcache::LineBuilder;
use mtpu_repro::mtpu::sched::{simulate_st, simulate_sync, DepGraph};
use mtpu_repro::mtpu::stream::{build_stream, MicroOp, StreamTransforms};
use mtpu_repro::mtpu::MtpuConfig;
use mtpu_repro::primitives::{Address, SplitMix64, B256, U256};

/// A random expression tree over the pure opcodes with U256 leaves.
#[derive(Debug, Clone)]
enum Expr {
    Lit(U256),
    /// An opcode and its operand subtrees, top of stack first.
    Op(Opcode, Vec<Expr>),
}

fn arb_u256(rng: &mut SplitMix64) -> U256 {
    match rng.random_range(0..6) {
        0 => U256::from(rng.next_u64()),
        1 => U256::from(rng.next_u64() as u128 | ((rng.next_u64() as u128) << 64)),
        2 => U256::ZERO,
        3 => U256::MAX,
        // Shift amounts, byte indexes and exponents around the word size.
        4 => U256::from(rng.random_range(0..300)),
        _ => U256::from_limbs([
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ]),
    }
}

/// Every pure opcode: unary, binary and ternary.
const OPS: &[Opcode] = &[
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Div,
    Opcode::Mod,
    Opcode::Sdiv,
    Opcode::Smod,
    Opcode::Addmod,
    Opcode::Mulmod,
    Opcode::Exp,
    Opcode::Signextend,
    Opcode::Lt,
    Opcode::Gt,
    Opcode::Slt,
    Opcode::Sgt,
    Opcode::Eq,
    Opcode::Iszero,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Not,
    Opcode::Byte,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::Sar,
];

fn arb_op(rng: &mut SplitMix64) -> Opcode {
    OPS[rng.random_index(OPS.len())]
}

/// A random expression tree of bounded depth.
fn arb_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.random_bool(0.3) {
        Expr::Lit(arb_u256(rng))
    } else {
        let op = arb_op(rng);
        let args = (0..op.stack_pops())
            .map(|_| arb_expr(rng, depth - 1))
            .collect();
        Expr::Op(op, args)
    }
}

/// Reference semantics of the expression, written out independently of
/// the interpreter's.
fn eval_expr(e: &Expr) -> U256 {
    match e {
        Expr::Lit(v) => *v,
        Expr::Op(op, args) => {
            // An EVM op on stack [.., c, b, a] (a on top) computes op(a, b, c).
            let v: Vec<U256> = args.iter().map(eval_expr).collect();
            let a = v[0];
            let b = v.get(1).copied().unwrap_or(U256::ZERO);
            let c = v.get(2).copied().unwrap_or(U256::ZERO);
            match op {
                Opcode::Add => a.wrapping_add(b),
                Opcode::Sub => a.wrapping_sub(b),
                Opcode::Mul => a.wrapping_mul(b),
                Opcode::Div => a.evm_div(b),
                Opcode::Mod => a.evm_rem(b),
                Opcode::Sdiv => a.evm_sdiv(b),
                Opcode::Smod => a.evm_smod(b),
                Opcode::Addmod => a.addmod(b, c),
                Opcode::Mulmod => a.mulmod(b, c),
                Opcode::Exp => a.wrapping_pow(b),
                Opcode::Signextend => b.signextend(a),
                Opcode::Lt => U256::from(a < b),
                Opcode::Gt => U256::from(a > b),
                Opcode::Slt => U256::from(a.signed_cmp(&b).is_lt()),
                Opcode::Sgt => U256::from(a.signed_cmp(&b).is_gt()),
                Opcode::Eq => U256::from(a == b),
                Opcode::Iszero => U256::from(a.is_zero()),
                Opcode::And => a & b,
                Opcode::Or => a | b,
                Opcode::Xor => a ^ b,
                Opcode::Not => !a,
                Opcode::Byte => b.byte_be(a),
                Opcode::Shl => b.evm_shl(a),
                Opcode::Shr => b.evm_shr(a),
                Opcode::Sar => b.evm_sar(a),
                _ => unreachable!("not a generated opcode"),
            }
        }
    }
}

/// Compiles the expression to stack code leaving the value on top. With
/// `calldata`, each leaf is appended to it and read back by
/// `CALLDATALOAD` instead of pushed, so no operator can be folded at
/// analysis time and the interpreter computes every one.
fn compile_expr(e: &Expr, asm: &mut Assembler, mut calldata: Option<&mut Vec<u8>>) {
    match e {
        Expr::Lit(v) => match calldata {
            Some(data) => {
                asm.push(data.len() as u64).op(Opcode::Calldataload);
                data.extend_from_slice(&v.to_be_bytes());
            }
            None => {
                asm.push(*v);
            }
        },
        Expr::Op(op, args) => {
            // Push the deepest operand first, so args[0] ends on top.
            for arg in args.iter().rev() {
                compile_expr(arg, asm, calldata.as_deref_mut());
            }
            asm.op(*op);
        }
    }
}

fn run_code(code: Vec<u8>, input: Vec<u8>) -> (bool, Vec<u8>, mtpu_repro::evm::TxTrace) {
    let mut state = State::new();
    let contract = Address::from_low_u64(0xc0de);
    state.deploy_code(contract, code);
    let header = BlockHeader::default();
    let mut recorder = TraceRecorder::new();
    let mut evm = Evm::new(
        &mut state,
        &header,
        Address::from_low_u64(1),
        U256::ONE,
        &mut recorder,
    );
    let res = evm.call(CallParams {
        kind: CallKind::Call,
        caller: Address::from_low_u64(1),
        code_address: contract,
        storage_address: contract,
        value: U256::ZERO,
        transfers_value: false,
        input,
        gas: 50_000_000,
        is_static: false,
        depth: 0,
    });
    (res.success(), res.output, recorder.into_trace())
}

/// The interpreter agrees with direct U256 evaluation on random
/// expression programs, both with pushed leaves (which analysis partly
/// constant-folds) and with calldata leaves (which it cannot).
#[test]
fn interpreter_matches_reference() {
    let mut rng = SplitMix64::new(0xE44);
    for _ in 0..64 {
        let expr = arb_expr(&mut rng, 4);
        let want = eval_expr(&expr);
        for loaded in [false, true] {
            let mut calldata = Vec::new();
            let mut asm = Assembler::new();
            compile_expr(&expr, &mut asm, loaded.then_some(&mut calldata));
            asm.push(0u64)
                .op(Opcode::Mstore)
                .push(32u64)
                .push(0u64)
                .op(Opcode::Return);
            let code = asm.assemble().expect("assembles");
            let (ok, output, _) = run_code(code, calldata);
            assert!(ok);
            assert_eq!(
                U256::from_be_slice(&output),
                want,
                "calldata leaves: {loaded}"
            );
        }
    }
}

/// Folding never changes the retired-instruction count and always
/// shortens (or preserves) the stream.
#[test]
fn folding_preserves_instruction_accounting() {
    let mut rng = SplitMix64::new(0xF01D);
    for _ in 0..64 {
        let expr = arb_expr(&mut rng, 4);
        let mut asm = Assembler::new();
        compile_expr(&expr, &mut asm, None);
        asm.op(Opcode::Stop);
        let code = asm.assemble().expect("assembles");
        let (_, _, trace) = run_code(code, Vec::new());
        let (plain, _) = build_stream(&trace, false, &StreamTransforms::none());
        let (folded, stats) = build_stream(&trace, true, &StreamTransforms::none());
        let retired: u32 = folded.iter().map(|u| u.insn_count).sum();
        assert_eq!(retired as usize, trace.steps.len());
        assert_eq!(plain.len(), trace.steps.len());
        assert!(folded.len() <= plain.len());
        assert_eq!(plain.len() - folded.len(), stats.folded as usize);
    }
}

/// Fill-unit invariants on arbitrary op sequences: lines never exceed
/// the slot budget, never contain two non-stack ops of one category,
/// and close at control transfers.
#[test]
fn fill_unit_invariants() {
    let mut rng = SplitMix64::new(0xF111);
    for _ in 0..64 {
        let ops: Vec<Opcode> = (0..rng.random_range(1..40))
            .map(|_| arb_op(&mut rng))
            .collect();
        let mut builder = LineBuilder::new(B256::ZERO, true);
        let mut lines: Vec<Vec<Opcode>> = Vec::new();
        let mut current: Vec<Opcode> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let uop = MicroOp {
                step: i as u32,
                frame: 0,
                pc: (i * 2) as u32,
                op: *op,
                const_operand: false,
                insn_count: 1,
                prefetched: false,
            };
            if builder.try_add(&uop).is_err() {
                if !current.is_empty() {
                    lines.push(std::mem::take(&mut current));
                }
                builder = LineBuilder::new(B256::ZERO, true);
                builder.try_add(&uop).expect("fresh line accepts one op");
            }
            current.push(*op);
        }
        if !current.is_empty() {
            lines.push(current);
        }
        for line in &lines {
            assert!(line.len() <= mtpu_repro::mtpu::dbcache::MAX_LINE_OPS);
            let mut unit_seen = [false; 11];
            for op in line {
                let cat = op.category();
                if cat != mtpu_repro::evm::OpCategory::Stack {
                    let idx = cat.index();
                    assert!(!unit_seen[idx], "unit conflict within a line: {line:?}");
                    unit_seen[idx] = true;
                }
            }
            // Control transfers only at line end.
            for op in &line[..line.len() - 1] {
                assert!(!op.is_block_end(), "block end inside a line: {line:?}");
            }
        }
    }
}

/// On random DAGs with random durations, both schedulers complete
/// every transaction exactly once and respect every edge.
#[test]
fn schedules_respect_random_dags() {
    let mut rng = SplitMix64::new(0xDA6);
    for _ in 0..64 {
        let n = rng.random_range(2..24) as usize;
        let mut graph = DepGraph::new(n);
        for _ in 0..rng.random_range(0..40) {
            let a = rng.random_index(n);
            let b = rng.random_index(n);
            if a < b {
                graph.add_edge(a, b);
            }
        }
        let seed = rng.next_u64();
        // Synthetic jobs with varying instruction counts.
        let cfg = MtpuConfig {
            pu_count: 3,
            redundancy_opt: false,
            enable_db_cache: false,
            ..MtpuConfig::default()
        };
        let jobs: Vec<_> = (0..n)
            .map(|i| {
                let len = 20 + ((seed.wrapping_mul(i as u64 + 1)) % 200) as usize;
                synthetic_job(i as u64 % 4, len, &cfg)
            })
            .collect();
        for result in [
            simulate_st(&jobs, &graph, &cfg),
            simulate_sync(&jobs, &graph, &cfg),
        ] {
            assert!(graph.schedule_respects_dag(&result.start, &result.end));
            for i in 0..n {
                assert!(result.end[i] > result.start[i]);
                assert!(result.pu_of[i] < cfg.pu_count);
            }
            assert_eq!(result.makespan, *result.end.iter().max().unwrap());
            assert!(result.utilization() <= 1.0 + 1e-9);
        }
    }
}

/// A synthetic job on contract `c` with `len` alternating instructions.
fn synthetic_job(c: u64, len: usize, cfg: &MtpuConfig) -> mtpu_repro::mtpu::TxJob {
    use mtpu_repro::evm::trace::{FrameInfo, TraceStep, TxTrace};
    let trace = TxTrace {
        frames: vec![FrameInfo {
            depth: 0,
            kind: CallKind::Call,
            code_address: Address::from_low_u64(c),
            storage_address: Address::from_low_u64(c),
            code_hash: B256::keccak(&c.to_be_bytes()),
            code_len: 500,
            input_len: 36,
            selector: None,
        }],
        steps: (0..len)
            .map(|i| TraceStep {
                frame: 0,
                pc: (i * 2) as u32,
                op: if i % 2 == 0 {
                    Opcode::Push1
                } else {
                    Opcode::Pop
                } as u8,
            })
            .collect(),
        storage: Vec::new(),
        gas_used: 21_000,
        success: true,
    };
    mtpu_repro::mtpu::TxJob::build(&trace, cfg, &StreamTransforms::none())
}

/// Regression: tracing and non-tracing execution agree.
#[test]
fn tracing_does_not_change_semantics() {
    let mut asm = Assembler::new();
    asm.push(0x1234u64)
        .push(0x10u64)
        .op(Opcode::Add)
        .push(0u64)
        .op(Opcode::Mstore)
        .push(32u64)
        .push(0u64)
        .op(Opcode::Return);
    let code = asm.assemble().unwrap();

    fn run<T: Tracer>(code: &[u8], tracer: &mut T) -> mtpu_repro::evm::FrameResult {
        let mut state = State::new();
        let contract = Address::from_low_u64(2);
        state.deploy_code(contract, code.to_vec());
        let header = BlockHeader::default();
        let mut evm = Evm::new(
            &mut state,
            &header,
            Address::from_low_u64(1),
            U256::ONE,
            tracer,
        );
        evm.call(CallParams {
            kind: CallKind::Call,
            caller: Address::from_low_u64(1),
            code_address: contract,
            storage_address: contract,
            value: U256::ZERO,
            transfers_value: false,
            input: vec![],
            gas: 100_000,
            is_static: false,
            depth: 0,
        })
    }
    let mut noop = NoopTracer;
    let a = run(&code, &mut noop);
    let mut rec = TraceRecorder::new();
    let b = run(&code, &mut rec);
    assert_eq!(a.output, b.output);
    assert_eq!(a.gas_left, b.gas_left);
    assert_eq!(rec.into_trace().steps.len(), 8);
}
