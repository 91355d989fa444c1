//! Round-trip properties of the assembler and disassembler, exercised on
//! randomized programs from the in-repo deterministic [`SplitMix64`]
//! generator (offline, no external crates).

use mtpu_asm::{decode, parse_asm, Assembler};
use mtpu_evm::opcode::Opcode;
use mtpu_primitives::{SplitMix64, U256};

fn simple_ops() -> Vec<Opcode> {
    (0u16..=255)
        .filter_map(|b| Opcode::from_u8(b as u8))
        .filter(|o| !o.is_push())
        .collect()
}

/// decode(assemble(program)) reproduces the instruction sequence.
#[test]
fn assemble_decode_round_trip() {
    let pool = simple_ops();
    let mut rng = SplitMix64::new(0xA5B1);
    for _ in 0..256 {
        let ops: Vec<Opcode> = (0..rng.random_range(0..64))
            .map(|_| pool[rng.random_index(pool.len())])
            .collect();
        let imms: Vec<u64> = (0..rng.random_range(0..32))
            .map(|_| rng.next_u64())
            .collect();

        let mut asm = Assembler::new();
        // Interleave pushes and plain ops deterministically.
        let mut expect: Vec<(Opcode, Option<U256>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if let Some(v) = imms.get(i) {
                asm.push(*v);
                let v = U256::from(*v);
                let width = v.to_be_bytes_trimmed().len().max(1);
                expect.push((Opcode::push(width), Some(v)));
            }
            asm.op(*op);
            expect.push((*op, None));
        }
        let code = asm.assemble().expect("no labels, always assembles");
        let insns = decode(&code);
        assert_eq!(insns.len(), expect.len());
        for (insn, (op, imm)) in insns.iter().zip(&expect) {
            assert_eq!(insn.op, Some(*op));
            if let Some(v) = imm {
                assert_eq!(insn.imm_value(), *v);
            }
        }
    }
}

/// The text assembler agrees with the builder for PUSH programs.
#[test]
fn text_matches_builder() {
    let mut rng = SplitMix64::new(0xA5B2);
    for _ in 0..128 {
        let vals: Vec<u32> = (0..rng.random_range(1..16))
            .map(|_| rng.next_u64() as u32)
            .collect();
        let mut asm = Assembler::new();
        let mut src = String::new();
        for v in &vals {
            asm.push(*v as u64);
            src.push_str(&format!("PUSH {v}\n"));
        }
        asm.op(Opcode::Stop);
        src.push_str("STOP\n");
        assert_eq!(parse_asm(&src).unwrap(), asm.assemble().unwrap());
    }
}

/// Labels always land on JUMPDEST bytes.
#[test]
fn labels_resolve_to_jumpdests() {
    for n_blocks in 1usize..12 {
        let mut asm = Assembler::new();
        for i in 0..n_blocks {
            asm.jump(&format!("l{}", (i + 1) % n_blocks));
            asm.label(&format!("l{i}"));
            asm.op(Opcode::Pop);
        }
        let code = asm.assemble().unwrap();
        let analysis = mtpu_evm::CodeAnalysis::analyze(&code);
        // Every PUSH2 target of a jump is a valid JUMPDEST.
        for insn in decode(&code) {
            if insn.op == Some(Opcode::Push2) {
                let target = insn.imm_value().low_u64() as usize;
                assert!(target < code.len());
                assert!(
                    analysis.is_jumpdest(target),
                    "label target must be a JUMPDEST"
                );
            }
        }
    }
}
