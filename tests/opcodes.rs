//! Exhaustive opcode-level tests of the EVM interpreter, written against
//! the text assembler. Each program returns one 32-byte word; the helper
//! runs it in a throwaway contract and checks the result.

use mtpu_repro::asm::parse_asm;
use mtpu_repro::evm::interpreter::{CallParams, Evm, FrameResult};
use mtpu_repro::evm::state::State;
use mtpu_repro::evm::trace::{CallKind, NoopTracer};
use mtpu_repro::evm::tx::BlockHeader;
use mtpu_repro::evm::{CodeAnalysis, FusedKind, FusedSpec, Halt};
use mtpu_repro::primitives::{Address, B256, U256};

/// Assembles and runs `src` (which must RETURN a word), returning it.
fn eval(src: &str) -> U256 {
    let res = run(src, Vec::new());
    assert!(res.success(), "program failed: {:?}\n{src}", res.halt);
    U256::from_be_slice(&res.output)
}

fn run(src: &str, input: Vec<u8>) -> FrameResult {
    let code = parse_asm(src).expect("assembles");
    let mut state = State::new();
    let contract = Address::from_low_u64(0xc0de);
    state.deploy_code(contract, code);
    state.credit(Address::from_low_u64(1), U256::from(1_000_000u64));
    let header = BlockHeader::default();
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(
        &mut state,
        &header,
        Address::from_low_u64(1),
        U256::ONE,
        &mut tracer,
    );
    evm.call(CallParams {
        kind: CallKind::Call,
        caller: Address::from_low_u64(1),
        code_address: contract,
        storage_address: contract,
        value: U256::ZERO,
        transfers_value: false,
        input,
        gas: 10_000_000,
        is_static: false,
        depth: 0,
    })
}

/// `RET` suffix: store the stack top at 0 and return it.
const RET: &str = "PUSH1 0\nMSTORE\nPUSH1 32\nPUSH1 0\nRETURN";

fn u(v: u64) -> U256 {
    U256::from(v)
}

#[test]
fn arithmetic_opcodes() {
    assert_eq!(eval(&format!("PUSH1 3\nPUSH1 2\nADD\n{RET}")), u(5));
    assert_eq!(eval(&format!("PUSH1 3\nPUSH1 7\nSUB\n{RET}")), u(4));
    assert_eq!(eval(&format!("PUSH1 6\nPUSH1 7\nMUL\n{RET}")), u(42));
    assert_eq!(eval(&format!("PUSH1 3\nPUSH1 13\nDIV\n{RET}")), u(4));
    assert_eq!(eval(&format!("PUSH1 0\nPUSH1 13\nDIV\n{RET}")), u(0));
    assert_eq!(eval(&format!("PUSH1 5\nPUSH1 13\nMOD\n{RET}")), u(3));
    assert_eq!(eval(&format!("PUSH1 0\nPUSH1 13\nMOD\n{RET}")), u(0));
    // SDIV: -10 / 3 == -3 (two's complement).
    let minus_10 = U256::from(10u64).twos_neg();
    assert_eq!(
        eval(&format!("PUSH1 3\nPUSH32 0x{:064x}\nSDIV\n{RET}", minus_10)),
        u(3).twos_neg()
    );
    // SMOD takes the dividend's sign: -10 % 3 == -1.
    assert_eq!(
        eval(&format!("PUSH1 3\nPUSH32 0x{:064x}\nSMOD\n{RET}", minus_10)),
        U256::ONE.twos_neg()
    );
    // ADDMOD over 2^256: (MAX + 2) % 2 == 1.
    assert_eq!(
        eval(&format!(
            "PUSH1 2\nPUSH1 2\nPUSH32 0x{:064x}\nADDMOD\n{RET}",
            U256::MAX
        )),
        u(1)
    );
    assert_eq!(
        eval(&format!("PUSH1 8\nPUSH1 10\nPUSH1 10\nMULMOD\n{RET}")),
        u(4)
    );
    assert_eq!(eval(&format!("PUSH1 10\nPUSH1 2\nEXP\n{RET}")), u(1024));
    assert_eq!(eval(&format!("PUSH1 0\nPUSH1 0\nEXP\n{RET}")), u(1));
    // SIGNEXTEND byte 0 of 0xff.
    assert_eq!(
        eval(&format!("PUSH1 0xff\nPUSH1 0\nSIGNEXTEND\n{RET}")),
        U256::MAX
    );
}

/// Checks one operand vector (`args[0]` on top of the stack) twice: with
/// `PUSH32` operands, which code analysis folds into one constant through
/// `fusion::eval_pure`, and with operands read by `CALLDATALOAD`, which the
/// interpreter's own opcode code computes.
fn check_vector(op: &str, args: &[U256], want: U256) {
    let pushes: String = args
        .iter()
        .rev()
        .map(|a| format!("PUSH32 0x{a:064x}\n"))
        .collect();
    let folded = format!("{pushes}{op}\n{RET}");
    let code = parse_asm(&folded).expect("assembles");
    assert!(
        matches!(
            CodeAnalysis::analyze(&code).fusion().spec_at(0),
            Some(FusedSpec {
                kind: FusedKind::PushConst { .. },
                ..
            })
        ),
        "{op} {args:?}: PUSH32 operands must fold"
    );
    assert_eq!(eval(&folded), want, "{op} {args:?}: folded");

    let loads: String = (0..args.len())
        .rev()
        .map(|i| format!("PUSH1 {}\nCALLDATALOAD\n", 32 * i))
        .collect();
    let input = args.iter().flat_map(|a| a.to_be_bytes()).collect();
    let res = run(&format!("{loads}{op}\n{RET}"), input);
    assert!(res.success(), "{op} {args:?}: {:?}", res.halt);
    assert_eq!(
        U256::from_be_slice(&res.output),
        want,
        "{op} {args:?}: interpreted"
    );
}

#[test]
fn arithmetic_edge_vectors() {
    let max = U256::MAX;
    let min = U256::ONE << 255;
    let neg = |v: u64| u(v).twos_neg();

    // Division by zero is zero, signed or not.
    check_vector("DIV", &[max, u(0)], u(0));
    check_vector("SDIV", &[neg(7), u(0)], u(0));
    check_vector("MOD", &[max, u(0)], u(0));
    check_vector("SMOD", &[neg(7), u(0)], u(0));
    // The one signed overflow: MIN / -1 wraps back to MIN.
    check_vector("SDIV", &[min, max], min);
    check_vector("SMOD", &[min, max], u(0));

    // SIGNEXTEND(b, x), yellow-paper form: byte index b >= 31 leaves x
    // alone; b = 30 extends bit 247.
    let bit247 = U256::ONE << 247;
    check_vector("SIGNEXTEND", &[u(30), bit247], !(bit247 - U256::ONE));
    for index in [u(31), u(32), min] {
        check_vector("SIGNEXTEND", &[index, bit247], bit247);
        check_vector("SIGNEXTEND", &[index, u(0x80)], u(0x80));
    }

    // Shifts by the word size or more: zero, or all sign bits for SAR.
    for shift in [u(256), min] {
        check_vector("SHL", &[shift, u(1)], u(0));
        check_vector("SHR", &[shift, max], u(0));
        check_vector("SAR", &[shift, neg(1)], max);
        check_vector("SAR", &[shift, min], max);
        check_vector("SAR", &[shift, u(5)], u(0));
    }
    check_vector("SHL", &[u(255), u(1)], min);
    check_vector("SAR", &[u(255), min], max);

    // Modulus zero is zero; intermediates are exact (257 / 512 bits).
    check_vector("ADDMOD", &[u(5), u(6), u(0)], u(0));
    check_vector("MULMOD", &[u(5), u(6), u(0)], u(0));
    check_vector("ADDMOD", &[max, max, u(7)], u(2));
    check_vector("MULMOD", &[max, max, u(7)], u(1));
    check_vector("MULMOD", &[max, max, u(10)], u(5));
}

#[test]
fn comparison_and_bitwise_opcodes() {
    assert_eq!(eval(&format!("PUSH1 2\nPUSH1 1\nLT\n{RET}")), u(1));
    assert_eq!(eval(&format!("PUSH1 1\nPUSH1 2\nGT\n{RET}")), u(1));
    let minus_1 = U256::MAX;
    assert_eq!(
        eval(&format!("PUSH1 1\nPUSH32 0x{minus_1:064x}\nSLT\n{RET}")),
        u(1),
        "-1 < 1 signed"
    );
    assert_eq!(
        eval(&format!("PUSH32 0x{minus_1:064x}\nPUSH1 1\nSGT\n{RET}")),
        u(1),
        "1 > -1 signed"
    );
    assert_eq!(eval(&format!("PUSH1 5\nPUSH1 5\nEQ\n{RET}")), u(1));
    assert_eq!(eval(&format!("PUSH1 0\nISZERO\n{RET}")), u(1));
    assert_eq!(eval(&format!("PUSH1 9\nISZERO\n{RET}")), u(0));
    assert_eq!(eval(&format!("PUSH1 0x0c\nPUSH1 0x0a\nAND\n{RET}")), u(8));
    assert_eq!(eval(&format!("PUSH1 0x0c\nPUSH1 0x0a\nOR\n{RET}")), u(0x0e));
    assert_eq!(eval(&format!("PUSH1 0x0c\nPUSH1 0x0a\nXOR\n{RET}")), u(6));
    assert_eq!(eval(&format!("PUSH1 0\nNOT\n{RET}")), U256::MAX);
    // BYTE 31 is the least significant byte.
    assert_eq!(
        eval(&format!("PUSH2 0xabcd\nPUSH1 31\nBYTE\n{RET}")),
        u(0xcd)
    );
    assert_eq!(eval(&format!("PUSH1 1\nPUSH1 4\nSHL\n{RET}")), u(16));
    assert_eq!(eval(&format!("PUSH1 16\nPUSH1 4\nSHR\n{RET}")), u(1));
    // SAR of a negative value keeps the sign.
    assert_eq!(
        eval(&format!("PUSH32 0x{minus_1:064x}\nPUSH1 8\nSAR\n{RET}")),
        U256::MAX
    );
}

#[test]
fn sha3_matches_keccak() {
    // keccak of one zero word.
    let expect = U256::from_be_bytes(mtpu_repro::primitives::keccak256(&[0u8; 32]));
    assert_eq!(eval(&format!("PUSH1 32\nPUSH1 0\nSHA3\n{RET}")), expect);
}

#[test]
fn environment_opcodes() {
    assert_eq!(
        eval(&format!("ADDRESS\n{RET}")),
        Address::from_low_u64(0xc0de).to_u256()
    );
    assert_eq!(
        eval(&format!("CALLER\n{RET}")),
        Address::from_low_u64(1).to_u256()
    );
    assert_eq!(
        eval(&format!("ORIGIN\n{RET}")),
        Address::from_low_u64(1).to_u256()
    );
    assert_eq!(eval(&format!("CALLVALUE\n{RET}")), u(0));
    assert_eq!(eval(&format!("GASPRICE\n{RET}")), u(1));
    assert_eq!(
        eval(&format!("CODESIZE\n{RET}"))
            .try_to_u64()
            .map(|v| v > 0),
        Some(true)
    );
    let h = BlockHeader::default();
    assert_eq!(eval(&format!("NUMBER\n{RET}")), u(h.height));
    assert_eq!(eval(&format!("TIMESTAMP\n{RET}")), u(h.timestamp));
    assert_eq!(eval(&format!("GASLIMIT\n{RET}")), u(h.gas_limit));
    assert_eq!(eval(&format!("COINBASE\n{RET}")), h.coinbase.to_u256());
    assert_eq!(eval(&format!("DIFFICULTY\n{RET}")), h.difficulty);
    // Out-of-window BLOCKHASH is zero.
    assert_eq!(eval(&format!("PUSH1 99\nBLOCKHASH\n{RET}")), u(0));
}

#[test]
fn calldata_opcodes() {
    let input = vec![0x11, 0x22, 0x33, 0x44];
    let res = run(&format!("CALLDATASIZE\n{RET}"), input.clone());
    assert_eq!(U256::from_be_slice(&res.output), u(4));
    // CALLDATALOAD zero-pads past the end.
    let res = run(&format!("PUSH1 0\nCALLDATALOAD\n{RET}"), input.clone());
    let mut expect = [0u8; 32];
    expect[..4].copy_from_slice(&input);
    assert_eq!(res.output, expect.to_vec());
    // CALLDATACOPY into memory.
    let res = run(
        &format!("PUSH1 4\nPUSH1 0\nPUSH1 0\nCALLDATACOPY\nPUSH1 0\nMLOAD\n{RET}"),
        input,
    );
    assert_eq!(
        U256::from_be_slice(&res.output),
        U256::from_be_slice(&expect)
    );
}

#[test]
fn memory_opcodes() {
    assert_eq!(
        eval(&format!(
            "PUSH1 0xAB\nPUSH1 64\nMSTORE\nPUSH1 64\nMLOAD\n{RET}"
        )),
        u(0xab)
    );
    // MSTORE8 writes one byte.
    assert_eq!(
        eval(&format!(
            "PUSH2 0x1234\nPUSH1 31\nMSTORE8\nPUSH1 0\nMLOAD\n{RET}"
        )),
        u(0x34)
    );
    // MSIZE grows in words.
    assert_eq!(
        eval(&format!("PUSH1 1\nPUSH1 33\nMSTORE\nMSIZE\n{RET}")),
        u(96)
    );
}

#[test]
fn storage_opcodes() {
    assert_eq!(
        eval(&format!("PUSH1 7\nPUSH1 9\nSSTORE\nPUSH1 9\nSLOAD\n{RET}")),
        u(7)
    );
    // Uninitialized slots read zero.
    assert_eq!(eval(&format!("PUSH1 42\nSLOAD\n{RET}")), u(0));
}

#[test]
fn stack_opcodes() {
    assert_eq!(eval(&format!("PUSH1 1\nPUSH1 2\nPOP\n{RET}")), u(1));
    // DUP16 reaches 16 deep.
    let pushes: String = (1..=16).map(|i| format!("PUSH1 {i}\n")).collect();
    assert_eq!(eval(&format!("{pushes}DUP16\n{RET}")), u(1));
    // SWAP16.
    assert_eq!(eval(&format!("PUSH1 99\n{pushes}SWAP16\n{RET}")), u(99));
    // PUSH32 round-trips.
    let v = U256::MAX - u(1);
    assert_eq!(eval(&format!("PUSH32 0x{v:064x}\n{RET}")), v);
}

#[test]
fn jump_opcodes() {
    // Conditional not taken falls through.
    assert_eq!(
        eval(&format!(
            "PUSH1 0\nPUSH @skip\nJUMPI\nPUSH1 7\nPUSH @end\nJUMP\nskip:\nPUSH1 9\nend:\n{RET}"
        )),
        u(7)
    );
    // Conditional taken.
    assert_eq!(
        eval(&format!(
            "PUSH1 1\nPUSH @skip\nJUMPI\nPUSH1 7\nPUSH @end\nJUMP\nskip:\nPUSH1 9\nend:\n{RET}"
        )),
        u(9)
    );
    // PC pushes the program counter of the PC instruction itself.
    assert_eq!(eval(&format!("PC\n{RET}")), u(0));
    assert_eq!(eval(&format!("PUSH1 0\nPOP\nPC\n{RET}")), u(3));
}

#[test]
fn log_opcodes_capture_topics_and_data() {
    let code = parse_asm(
        "PUSH1 0xEE\nPUSH1 0\nMSTORE\nPUSH1 3\nPUSH1 2\nPUSH1 1\nPUSH1 32\nPUSH1 0\nLOG3\nPUSH1 1\nPUSH1 0\nMSTORE\nPUSH1 32\nPUSH1 0\nRETURN",
    )
    .unwrap();
    let mut state = State::new();
    let contract = Address::from_low_u64(0xc0de);
    state.deploy_code(contract, code);
    let header = BlockHeader::default();
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(
        &mut state,
        &header,
        Address::from_low_u64(1),
        U256::ONE,
        &mut tracer,
    );
    let res = evm.call(CallParams {
        kind: CallKind::Call,
        caller: Address::from_low_u64(1),
        code_address: contract,
        storage_address: contract,
        value: U256::ZERO,
        transfers_value: false,
        input: vec![],
        gas: 1_000_000,
        is_static: false,
        depth: 0,
    });
    assert!(res.success());
    assert_eq!(evm.logs.len(), 1);
    let log = &evm.logs[0];
    assert_eq!(log.address, contract);
    assert_eq!(
        log.topics,
        vec![
            B256::from_u256(u(1)),
            B256::from_u256(u(2)),
            B256::from_u256(u(3))
        ]
    );
    assert_eq!(log.data, U256::from(0xeeu64).to_be_bytes().to_vec());
}

#[test]
fn revert_returns_payload() {
    let res = run(
        "PUSH1 0xAA\nPUSH1 0\nMSTORE\nPUSH1 32\nPUSH1 0\nREVERT",
        vec![],
    );
    assert_eq!(res.halt, Halt::Revert);
    assert_eq!(U256::from_be_slice(&res.output), u(0xaa));
    assert!(res.gas_left > 0);
}

#[test]
fn invalid_opcode_consumes_all_gas() {
    let res = run("INVALID", vec![]);
    assert!(!res.success());
    assert_eq!(res.gas_left, 0);
}

#[test]
fn gas_decreases_monotonically() {
    // Two GAS reads: the second sees less gas.
    let res = run(
        "GAS\nGAS\nPUSH1 0\nMSTORE\nPUSH1 0x20\nMSTORE\nPUSH1 64\nPUSH1 0\nRETURN",
        vec![],
    );
    assert!(res.success());
    // Memory: [second_read, first_read] (stack order).
    let second = U256::from_be_slice(&res.output[..32]);
    let first = U256::from_be_slice(&res.output[32..]);
    assert!(second < first, "{second} < {first}");
}

#[test]
fn returndata_opcodes() {
    // Call a child that returns 0x42; check RETURNDATASIZE/COPY.
    let mut state = State::new();
    let child = Address::from_low_u64(0xbeef);
    state.deploy_code(
        child,
        parse_asm("PUSH1 0x42\nPUSH1 0\nMSTORE\nPUSH1 32\nPUSH1 0\nRETURN").unwrap(),
    );
    let caller_code = parse_asm(
        "PUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH2 0xbeef\nGAS\nCALL\nPOP\nRETURNDATASIZE\nPUSH1 0\nPUSH1 0\nRETURNDATACOPY\nRETURNDATASIZE\nPUSH1 0\nRETURN",
    )
    .unwrap();
    let contract = Address::from_low_u64(0xc0de);
    state.deploy_code(contract, caller_code);
    let header = BlockHeader::default();
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(
        &mut state,
        &header,
        Address::from_low_u64(1),
        U256::ONE,
        &mut tracer,
    );
    let res = evm.call(CallParams {
        kind: CallKind::Call,
        caller: Address::from_low_u64(1),
        code_address: contract,
        storage_address: contract,
        value: U256::ZERO,
        transfers_value: false,
        input: vec![],
        gas: 1_000_000,
        is_static: false,
        depth: 0,
    });
    assert!(res.success());
    assert_eq!(U256::from_be_slice(&res.output), u(0x42));
}

#[test]
fn ext_opcodes_see_other_accounts() {
    let mut state = State::new();
    let other = Address::from_low_u64(0x777);
    state.deploy_code(other, vec![0x60, 0x00, 0x00]);
    state.credit(other, u(12345));
    let contract = Address::from_low_u64(0xc0de);
    state.deploy_code(
        contract,
        parse_asm(&format!("PUSH2 0x0777\nBALANCE\n{RET}")).unwrap(),
    );
    let header = BlockHeader::default();
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(
        &mut state,
        &header,
        Address::from_low_u64(1),
        U256::ONE,
        &mut tracer,
    );
    let mk = |code_addr| CallParams {
        kind: CallKind::Call,
        caller: Address::from_low_u64(1),
        code_address: code_addr,
        storage_address: code_addr,
        value: U256::ZERO,
        transfers_value: false,
        input: vec![],
        gas: 1_000_000,
        is_static: false,
        depth: 0,
    };
    let res = evm.call(mk(contract));
    assert!(res.success());
    assert_eq!(U256::from_be_slice(&res.output), u(12345));

    // EXTCODESIZE of the other account.
    evm.state.deploy_code(
        contract,
        parse_asm(&format!("PUSH2 0x0777\nEXTCODESIZE\n{RET}")).unwrap(),
    );
    let res = evm.call(mk(contract));
    assert_eq!(U256::from_be_slice(&res.output), u(3));

    // EXTCODEHASH matches keccak of the code.
    evm.state.deploy_code(
        contract,
        parse_asm(&format!("PUSH2 0x0777\nEXTCODEHASH\n{RET}")).unwrap(),
    );
    let res = evm.call(mk(contract));
    assert_eq!(
        U256::from_be_slice(&res.output),
        B256::keccak(&[0x60, 0x00, 0x00]).to_u256()
    );
}

#[test]
fn selfdestruct_moves_balance() {
    let mut state = State::new();
    let contract = Address::from_low_u64(0xc0de);
    state.deploy_code(contract, parse_asm("PUSH2 0x0999\nSELFDESTRUCT").unwrap());
    state.credit(contract, u(500));
    let header = BlockHeader::default();
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(
        &mut state,
        &header,
        Address::from_low_u64(1),
        U256::ONE,
        &mut tracer,
    );
    let res = evm.call(CallParams {
        kind: CallKind::Call,
        caller: Address::from_low_u64(1),
        code_address: contract,
        storage_address: contract,
        value: U256::ZERO,
        transfers_value: false,
        input: vec![],
        gas: 1_000_000,
        is_static: false,
        depth: 0,
    });
    assert!(res.success());
    assert_eq!(evm.state.balance(Address::from_low_u64(0x999)), u(500));
    evm.state.finalize_tx();
    assert!(
        !state.exists(contract),
        "destructed account removed at commit"
    );
}

#[test]
fn create_opcode_deploys_child() {
    // Init code returning one STOP byte, written via MSTORE8.
    let src = "
        PUSH1 0x60      ; init: PUSH1
        PUSH1 0
        MSTORE8
        PUSH1 0x00      ; init: 0 (PUSH1 0x00 STOP => code '00' at offset 2)
        PUSH1 1
        MSTORE8
        PUSH1 2
        PUSH1 0
        PUSH1 0
        CREATE
        PUSH1 0
        MSTORE
        PUSH1 32
        PUSH1 0
        RETURN
    ";
    let res = run(src, vec![]);
    assert!(res.success());
    let created = Address::from_u256(U256::from_be_slice(&res.output));
    assert_ne!(created, Address::ZERO);
    // Address derivation: creator nonce was 0 before CREATE... the
    // contract account's own nonce starts at 0 and bumps on CREATE.
    assert_eq!(created, Address::create(Address::from_low_u64(0xc0de), 0));
}

#[test]
fn call_depth_limit_enforced() {
    // A contract that calls itself forever; the flag of the deepest CALL
    // is 0 but everything unwinds successfully.
    let src = "
        PUSH1 0
        PUSH1 0
        PUSH1 0
        PUSH1 0
        PUSH1 0
        PUSH2 0xc0de
        GAS
        CALL
        PUSH1 0
        MSTORE
        PUSH1 32
        PUSH1 0
        RETURN
    ";
    let res = run(src, vec![]);
    assert!(res.success(), "recursion bottoms out via depth/gas limits");
}

#[test]
fn create2_address_is_salted() {
    // Deploy two children from the same init code with different salts;
    // addresses must match the CREATE2 derivation and differ.
    let src = |salt: u8| {
        format!(
            "PUSH1 0x00\nPUSH1 0\nMSTORE8\nPUSH1 {salt}\nPUSH1 1\nPUSH1 0\nPUSH1 0\nCREATE2\n{RET}"
        )
    };
    let a = Address::from_u256(eval(&src(1)));
    let b = Address::from_u256(eval(&src(2)));
    assert_ne!(a, b);
    // Matches the derivation for init code [0x00].
    let creator = Address::from_low_u64(0xc0de);
    let expect = Address::create2(creator, B256::from_u256(u(1)), &[0x00]);
    assert_eq!(a, expect);
}

#[test]
fn delegatecall_preserves_caller_and_storage() {
    // Library writes CALLER into slot 0 of *the caller's* storage.
    let mut state = State::new();
    let lib = Address::from_low_u64(0x111);
    state.deploy_code(lib, parse_asm("CALLER\nPUSH1 0\nSSTORE\nSTOP").unwrap());
    let proxy = Address::from_low_u64(0xc0de);
    state.deploy_code(
        proxy,
        parse_asm("PUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH2 0x0111\nGAS\nDELEGATECALL\nSTOP")
            .unwrap(),
    );
    let header = BlockHeader::default();
    let origin = Address::from_low_u64(0xabc);
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(&mut state, &header, origin, U256::ONE, &mut tracer);
    let res = evm.call(CallParams {
        kind: CallKind::Call,
        caller: origin,
        code_address: proxy,
        storage_address: proxy,
        value: U256::ZERO,
        transfers_value: false,
        input: vec![],
        gas: 1_000_000,
        is_static: false,
        depth: 0,
    });
    assert!(res.success());
    // The delegated frame saw the ORIGINAL caller and wrote the PROXY's
    // storage; the library's storage is untouched.
    assert_eq!(evm.state.storage(proxy, U256::ZERO), origin.to_u256());
    assert_eq!(evm.state.storage(lib, U256::ZERO), U256::ZERO);
}

#[test]
fn callcode_uses_caller_storage_with_own_sender() {
    let mut state = State::new();
    let lib = Address::from_low_u64(0x222);
    state.deploy_code(lib, parse_asm("CALLER\nPUSH1 0\nSSTORE\nSTOP").unwrap());
    let host = Address::from_low_u64(0xc0de);
    state.deploy_code(
        host,
        parse_asm("PUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH1 0\nPUSH2 0x0222\nGAS\nCALLCODE\nSTOP")
            .unwrap(),
    );
    let header = BlockHeader::default();
    let origin = Address::from_low_u64(0xabc);
    let mut tracer = NoopTracer;
    let mut evm = Evm::new(&mut state, &header, origin, U256::ONE, &mut tracer);
    let res = evm.call(CallParams {
        kind: CallKind::Call,
        caller: origin,
        code_address: host,
        storage_address: host,
        value: U256::ZERO,
        transfers_value: false,
        input: vec![],
        gas: 1_000_000,
        is_static: false,
        depth: 0,
    });
    assert!(res.success());
    // CALLCODE: storage = host's, but msg.sender = the host itself.
    assert_eq!(evm.state.storage(host, U256::ZERO), host.to_u256());
}
