//! End-to-end pipeline tests across all crates: workload → trace → DAG →
//! timing model → schedules, plus hotspot-analysis soundness on real
//! contract paths.

use mtpu_repro::contracts::Fixture;
use mtpu_repro::evm::opcode::Opcode;
use mtpu_repro::evm::{trace_transaction, BlockHeader};
use mtpu_repro::mtpu::hotspot::{analyze_path, ContractTable};
use mtpu_repro::mtpu::pu::{Pu, StateBuffer, TxJob};
use mtpu_repro::mtpu::sched::{simulate_sequential, simulate_st};
use mtpu_repro::mtpu::stream::StreamTransforms;
use mtpu_repro::mtpu::MtpuConfig;
use mtpu_repro::primitives::map::FastSet;
use mtpu_repro::primitives::U256;
use mtpu_repro::workloads::{BlockConfig, Generator};

#[test]
fn full_pipeline_speedup_hierarchy() {
    // baseline >= ILP-only >= ILP+redundancy >= full hotspot config, on a
    // realistic block.
    let mut g = Generator::new(77);
    let warm = g.prepared_block(&BlockConfig::default());
    let mut table = ContractTable::new();
    warm.learn_hotspots(&mut table, &warm.state_before);
    let p = g.prepared_block(&BlockConfig {
        tx_count: 96,
        dependent_ratio: 0.2,
        erc20_ratio: None,
        sct_ratio: 1.0,
        chain_bias: 0.8,
        focus: None,
    });

    let base_cfg = MtpuConfig::baseline();
    let base = simulate_sequential(&p.jobs(&base_cfg, None), &base_cfg).makespan;

    let ilp_cfg = MtpuConfig {
        pu_count: 1,
        redundancy_opt: false,
        ..MtpuConfig::default()
    };
    let ilp = simulate_sequential(&p.jobs(&ilp_cfg, None), &ilp_cfg).makespan;

    let red_cfg = MtpuConfig {
        pu_count: 1,
        redundancy_opt: true,
        ..MtpuConfig::default()
    };
    let red = simulate_sequential(&p.jobs(&red_cfg, None), &red_cfg).makespan;

    let full_cfg = MtpuConfig {
        pu_count: 1,
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let full = simulate_sequential(&p.jobs(&full_cfg, Some(&table)), &full_cfg).makespan;

    assert!(ilp < base, "ILP speeds up execution: {ilp} vs {base}");
    assert!(red < ilp, "redundancy reuse adds on top: {red} vs {ilp}");
    assert!(
        full < red,
        "hotspot optimization adds on top: {full} vs {red}"
    );

    // Four PUs with everything on reach the paper's speedup band.
    let quad_cfg = MtpuConfig {
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let quad = simulate_st(&p.jobs(&quad_cfg, Some(&table)), &p.graph, &quad_cfg);
    let speedup = base as f64 / quad.makespan as f64;
    assert!(
        speedup > 3.5,
        "full co-design beats the scalar baseline by well over 3.5x: {speedup:.2}"
    );
}

#[test]
fn block_interval_learning_warms_the_table() {
    // Fig. 4 across blocks (the chain_sim loop): accelerate with last
    // interval's table, then learn from this block for the next one.
    let mut g = Generator::new(31);
    let block_cfg = BlockConfig {
        tx_count: 96,
        dependent_ratio: 0.25,
        erc20_ratio: None,
        sct_ratio: 0.92,
        chain_bias: 0.8,
        focus: None,
    };
    let cfg = MtpuConfig {
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let base_cfg = MtpuConfig::baseline();
    let mut table = ContractTable::new();
    let mut parent_root = g.fx.state.merkle_root();
    let mut coverage = Vec::new();
    let mut speedup = Vec::new();
    for _ in 0..3 {
        let p = g.prepared_block(&block_cfg);
        assert_eq!(p.state_before.merkle_root(), parent_root, "root chain");
        parent_root = p.state_after.merkle_root();

        coverage.push(p.hotspot_coverage(&table));
        let st = simulate_st(&p.jobs(&cfg, Some(&table)), &p.graph, &cfg).makespan;
        let base = simulate_sequential(&p.jobs(&base_cfg, None), &base_cfg).makespan;
        speedup.push(base as f64 / st as f64);
        p.learn_hotspots(&mut table, &p.state_after);
        table.retain_top(32);
    }
    assert_eq!(coverage[0], 0.0, "block 1 runs with a cold table");
    assert!(
        coverage[1..].iter().all(|&c| c >= 0.9),
        "the learned table covers later blocks: {coverage:?}"
    );
    assert!(
        speedup[1] > speedup[0],
        "a warm table speeds block 2 past block 1: {speedup:?}"
    );
}

#[test]
fn hotspot_analysis_is_sound_on_all_top8_paths() {
    let mut fx = Fixture::new();
    let header = BlockHeader::default();
    let to = Fixture::user_address(17).to_u256();
    let calls: Vec<(&str, &str, Vec<U256>)> = vec![
        ("Tether USD", "transfer", vec![to, U256::from(10u64)]),
        ("Dai", "transfer", vec![to, U256::from(10u64)]),
        ("LinkToken", "transfer", vec![to, U256::from(10u64)]),
        ("WETH9", "transfer", vec![to, U256::from(10u64)]),
        (
            "MainchainGatewayProxy",
            "deposit",
            vec![
                mtpu_repro::contracts::addresses::token(0).to_u256(),
                U256::from(10u64),
            ],
        ),
        ("Ballot", "vote", vec![U256::from(5u64)]),
    ];
    for (i, (contract, function, args)) in calls.into_iter().enumerate() {
        let mut st = fx.state.clone();
        let tx = fx.call_tx(1 + i as u64, contract, function, &args);
        let (r, trace) = trace_transaction(&mut st, &header, &tx).expect("valid");
        assert!(r.success, "{contract}::{function}");
        let code = st.code(fx.spec(contract).address).to_vec();
        let a = analyze_path(&trace, &code);

        // Soundness: the pre-executable prefix never contains an
        // instruction whose effect depends on mutable chain state —
        // storage, state queries, logs, calls, or termination. (The
        // dataflow analysis may legitimately include arithmetic, memory
        // and hashing over transaction attributes.)
        for s in &trace.steps {
            if s.frame != 0 {
                break;
            }
            if !a.preexec_pcs.contains(&s.pc) {
                break;
            }
            let op = s.opcode();
            assert!(
                !matches!(
                    op.category(),
                    mtpu_repro::evm::OpCategory::Storage
                        | mtpu_repro::evm::OpCategory::StateQuery
                        | mtpu_repro::evm::OpCategory::ContextSwitching
                        | mtpu_repro::evm::OpCategory::Control
                ),
                "{contract}: pre-executed {op} touches mutable chain state"
            );
            assert!(
                !matches!(
                    op,
                    Opcode::Log0 | Opcode::Log1 | Opcode::Log2 | Opcode::Log3 | Opcode::Log4
                ),
                "{contract}: pre-executed LOG"
            );
        }
        // Prefetch pcs must be SLOAD sites on the path.
        let sload_pcs: FastSet<u32> = trace
            .steps
            .iter()
            .filter(|s| s.frame == 0 && s.opcode() == Opcode::Sload)
            .map(|s| s.pc)
            .collect();
        for pc in a.prefetch_pcs.iter() {
            assert!(
                sload_pcs.contains(&pc),
                "{contract}: prefetch pc {pc} is not an SLOAD"
            );
        }
        // Eliminated pushes must be PUSH sites on the path.
        let push_pcs: FastSet<u32> = trace
            .steps
            .iter()
            .filter(|s| s.frame == 0 && s.opcode().is_push())
            .map(|s| s.pc)
            .collect();
        for pc in a.eliminated_push_pcs.iter() {
            assert!(
                push_pcs.contains(&pc),
                "{contract}: eliminated pc {pc} is not a PUSH"
            );
        }
        // Chunked loading never exceeds the code size.
        assert!(a.loaded_bytes <= a.full_bytes);
    }
}

#[test]
fn hotspot_transforms_preserve_timing_model_invariants() {
    // gas per line (G field) and retired-instruction accounting must stay
    // consistent under all stream transformations.
    let mut g = Generator::new(99);
    let warm = g.prepared_block(&BlockConfig::default());
    let mut table = ContractTable::new();
    warm.learn_hotspots(&mut table, &warm.state_before);

    let p = g.prepared_block(&BlockConfig {
        tx_count: 48,
        dependent_ratio: 0.1,
        erc20_ratio: None,
        sct_ratio: 1.0,
        chain_bias: 0.8,
        focus: None,
    });
    let cfg = MtpuConfig {
        pu_count: 1,
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let mut pu = Pu::new(0, &cfg);
    let mut buffer = StateBuffer::default();
    for trace in &p.traces {
        let (tr, loaded) = table.transforms_for(trace);
        let job = TxJob::build_with_override(trace, &cfg, &tr, loaded);
        let t = pu.execute(&job, &mut buffer, &cfg);
        // Retired original instructions = full trace length.
        assert_eq!(t.instructions as usize, trace.steps.len());
        // Skipped + eliminated never exceed the trace.
        assert!(t.skipped_preexec + t.eliminated <= t.instructions);
        // Issue events cover the stream that remains.
        let remaining = t.instructions - t.skipped_preexec - t.eliminated;
        assert!(t.issue_events <= remaining.max(1));
        assert!(t.cycles >= t.ctx_load_cycles);
    }
}

#[test]
fn db_cache_determinism() {
    // Same job sequence => identical cycle counts (resume/replay safety).
    let mut g = Generator::new(13);
    let p = g.prepared_block(&BlockConfig::default());
    let cfg = MtpuConfig {
        pu_count: 1,
        redundancy_opt: true,
        ..MtpuConfig::default()
    };
    let run = || {
        let mut pu = Pu::new(0, &cfg);
        let mut buffer = StateBuffer::default();
        p.traces
            .iter()
            .map(|t| {
                let job = TxJob::build(t, &cfg, &StreamTransforms::none());
                pu.execute(&job, &mut buffer, &cfg).cycles
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn failing_transactions_still_schedule() {
    // Fault injection: a block containing reverting SCT calls must still
    // trace, build a DAG, schedule, and replay to the same state root.
    use mtpu_repro::evm::{execute_transaction, NoopTracer};
    use mtpu_repro::workloads::prepare_block;

    let mut fx = mtpu_repro::contracts::Fixture::new();
    let header = BlockHeader::default();
    let to = Fixture::user_address(9).to_u256();
    let txs = vec![
        // Valid transfer.
        fx.call_tx(1, "Tether USD", "transfer", &[to, U256::from(5u64)]),
        // Reverts: over-balance transfer.
        fx.call_tx(2, "Tether USD", "transfer", &[to, U256::from(u64::MAX)]),
        // Reverts: unknown selector.
        mtpu_repro::evm::Transaction::call(
            Fixture::user_address(3),
            mtpu_repro::contracts::addresses::tether(),
            vec![0xde, 0xad, 0xbe, 0xef],
            fx.next_nonce(3),
        ),
        // Valid again.
        fx.call_tx(4, "Dai", "transfer", &[to, U256::from(5u64)]),
    ];

    let block = mtpu_repro::evm::Block {
        header,
        transactions: txs,
    };
    let p = prepare_block(&fx.state, block);
    assert_eq!(p.receipts.len(), 4);
    assert!(p.receipts[0].success);
    assert!(!p.receipts[1].success, "over-balance must revert");
    assert!(!p.receipts[2].success, "unknown selector must revert");
    assert!(p.receipts[3].success);
    // Reverted txs still consumed gas and still produce traces/jobs.
    assert!(p.receipts[1].gas_used > 21_000);
    assert!(!p.traces[1].steps.is_empty());

    let cfg = MtpuConfig::default();
    let st = simulate_st(&p.jobs(&cfg, None), &p.graph, &cfg);
    assert!(p.graph.schedule_respects_dag(&st.start, &st.end));

    // Serializable replay reproduces the reference state root.
    let mut order: Vec<usize> = (0..4).collect();
    order.sort_by_key(|&i| (st.end[i], i));
    let mut state = p.state_before.clone();
    for &i in &order {
        execute_transaction(
            &mut state,
            &p.block.header,
            &p.block.transactions[i],
            &mut NoopTracer,
        )
        .expect("validates even when execution reverts");
    }
    assert_eq!(state.state_root(), p.state_after.state_root());
}
