//! `sim_block`: the paper's own axis. Blocks at six dependent ratios go
//! through trace recording, DAG construction and the timing model — one
//! PU with no parallelism against the full four-PU design. Simulated
//! values are what the modelled hardware would take and repeat exactly;
//! host time is what the simulator takes. Caches start empty per block;
//! the model is unvalidated against hardware (the repository holds no
//! reference results), so no error figure is given.

use crate::metrics::Values;
use crate::stats::{cumulative, geomean, median, session_timings};
use crate::Outcome;
use mtpu::hotspot::ContractTable;
use mtpu::sched::{simulate_sequential, simulate_st};
use mtpu::MtpuConfig;
use mtpu_evm::tx::Block;
use mtpu_evm::State;
use mtpu_workloads::{prepare_block, BlockConfig, Generator};
use std::time::Instant;

const RATIOS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
const BLOCK_TXS: usize = 128;
/// Blocks per ratio: 204 blocks a session, so p95 has ten samples beyond it.
const BLOCKS_PER_POINT: usize = 34;
const SEGMENTS: usize = 6;

fn block_cfg(dependent_ratio: f64, tx_count: usize) -> BlockConfig {
    BlockConfig {
        tx_count,
        dependent_ratio,
        erc20_ratio: None,
        sct_ratio: 0.95,
        chain_bias: 0.8,
        focus: None,
    }
}

/// The full design: four PUs, redundancy and hotspot optimisation on.
fn full_cfg() -> MtpuConfig {
    MtpuConfig {
        pu_count: 4,
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    }
}

/// Generated inputs: the sweep's blocks in order, the state they start
/// from, and the hotspot table learned offline from a separate warm-up
/// block (the block interval of the three-stage model).
struct Inputs {
    state: State,
    blocks: Vec<Block>,
    table: ContractTable,
    learn_ms: f64,
}

fn generate(seed: u64) -> Inputs {
    let mut warm_gen = Generator::new(seed ^ 0x1616);
    let warm = warm_gen.prepared_block(&BlockConfig {
        sct_ratio: 1.0,
        ..block_cfg(0.2, 192)
    });
    let mut table = ContractTable::new();
    let t = Instant::now();
    warm.learn_hotspots(&mut table, &warm.state_before);
    let learn_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut g = Generator::new(seed);
    let blocks = RATIOS
        .iter()
        .flat_map(|&r| (0..BLOCKS_PER_POINT).map(move |_| r))
        .map(|r| g.block(&block_cfg(r, BLOCK_TXS)))
        .collect();
    Inputs {
        state: g.fx.state,
        blocks,
        table,
        learn_ms,
    }
}

/// Per-ratio and whole-sweep simulated totals, and host time per stage.
#[derive(Default, Clone, PartialEq)]
struct Simulated {
    seq_cycles: [u64; 6],
    st_cycles: [u64; 6],
    instructions: u64,
    issue_events: u64,
    db_hits: u64,
    db_lookups: u64,
    ctx_load_cycles: u64,
    pu_cycles: u64,
    prefetch_hits: u64,
    skipped_preexec: u64,
    /// Sum of per-block utilisation, in parts per million (kept integral
    /// so equality is exact).
    utilization_ppm: u64,
}

struct Sweep {
    sim: Simulated,
    /// Host ns per block through trace + jobs + both schedules.
    block_ns: Vec<u64>,
    trace_ns: u64,
    sim_ns: u64,
    /// Instructions the timing model stepped through (both schedules).
    sim_instructions: u64,
    dag_ok: bool,
}

fn sweep(inputs: &Inputs) -> Sweep {
    let (base_cfg, cfg) = (MtpuConfig::baseline(), full_cfg());
    let mut state = inputs.state.clone();
    let mut out = Sweep {
        sim: Simulated::default(),
        block_ns: Vec::with_capacity(inputs.blocks.len()),
        trace_ns: 0,
        sim_ns: 0,
        sim_instructions: 0,
        dag_ok: true,
    };
    for (i, block) in inputs.blocks.iter().enumerate() {
        let point = i / BLOCKS_PER_POINT;
        let t0 = Instant::now();
        let p = prepare_block(&state, block.clone());
        let t1 = Instant::now();
        let seq = simulate_sequential(&p.jobs(&base_cfg, None), &base_cfg);
        let st = simulate_st(&p.jobs(&cfg, Some(&inputs.table)), &p.graph, &cfg);
        let t2 = Instant::now();
        out.trace_ns += (t1 - t0).as_nanos() as u64;
        out.sim_ns += (t2 - t1).as_nanos() as u64;
        out.block_ns.push((t2 - t0).as_nanos() as u64);
        out.dag_ok &= p.graph.schedule_respects_dag(&st.start, &st.end);
        out.sim_instructions += seq.timing.instructions + st.timing.instructions;

        let s = &mut out.sim;
        s.seq_cycles[point] += seq.makespan;
        s.st_cycles[point] += st.makespan;
        s.instructions += st.timing.instructions;
        s.issue_events += st.timing.issue_events;
        s.db_hits += st.timing.db_hits;
        s.db_lookups += st.timing.db_lookups;
        s.ctx_load_cycles += st.timing.ctx_load_cycles;
        s.pu_cycles += st.timing.cycles;
        s.prefetch_hits += st.timing.prefetch_hits;
        s.skipped_preexec += st.timing.skipped_preexec;
        s.utilization_ppm += (st.utilization() * 1e6) as u64;
        state = p.state_after;
    }
    out
}

const TXS: u64 = (RATIOS.len() * BLOCKS_PER_POINT * BLOCK_TXS) as u64;

/// Sessions of generate → sweep until `seconds` have passed (three at
/// least).
fn sessions(seed: u64, seconds: f64, out: &mut Outcome) -> (Vec<f64>, Vec<Sweep>, f64) {
    let started = Instant::now();
    let (mut setup_s, mut sweeps, mut learn_ms) = (Vec::new(), Vec::<Sweep>::new(), Vec::new());
    while sweeps.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let inputs = generate(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        learn_ms.push(inputs.learn_ms);
        let s = sweep(&inputs);
        out.attempted += TXS;
        out.check(
            s.dag_ok,
            "a spatial-temporal schedule broke its dependency DAG",
        );
        if let Some(first) = sweeps.first() {
            out.check(
                first.sim == s.sim,
                "simulated values changed between two sweeps of one seed",
            );
        }
        sweeps.push(s);
    }
    (setup_s, sweeps, median(&learn_ms))
}

pub fn end_to_end(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, sweeps, _) = sessions(seed, seconds, &mut out);
    let timings: Vec<_> = sweeps
        .iter()
        .map(|s| {
            let stamps = cumulative(&s.block_ns);
            session_timings(0, &stamps, &vec![BLOCK_TXS as u64; stamps.len()], SEGMENTS)
        })
        .collect();
    out.set_end_to_end(&setup_s, &timings);
    out.note(format!(
        "{} sessions x {} ratios x {BLOCKS_PER_POINT} blocks x {BLOCK_TXS} txs; tx_per_s and block_ms are host time through trace + DAG + both schedules",
        sweeps.len(),
        RATIOS.len()
    ));
    out
}

pub fn traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (_, sweeps, learn_ms) = sessions(seed, seconds, &mut out);
    let over = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    let s = &sweeps[0].sim;
    let speedups: Vec<f64> = (0..RATIOS.len())
        .map(|i| s.seq_cycles[i] as f64 / s.st_cycles[i] as f64)
        .collect();
    let (seq, st): (u64, u64) = (s.seq_cycles.iter().sum(), s.st_cycles.iter().sum());
    let blocks = (RATIOS.len() * BLOCKS_PER_POINT) as f64;
    let mut v = Values::default();
    v.set("mtpu.sim_speedup", geomean(&speedups));
    v.set("mtpu.speedup_dep0", speedups[0]);
    v.set("mtpu.speedup_dep100", speedups[RATIOS.len() - 1]);
    v.set("mtpu.sim_cycles_per_tx", st as f64 / TXS as f64);
    v.set("mtpu.seq_cycles_per_tx", seq as f64 / TXS as f64);
    v.set(
        "mtpu.ipc",
        s.instructions as f64 / s.issue_events.max(1) as f64,
    );
    v.set(
        "mtpu.dbcache_hit_ratio",
        s.db_hits as f64 / s.db_lookups.max(1) as f64,
    );
    v.set(
        "mtpu.pu_utilization",
        s.utilization_ppm as f64 / 1e6 / blocks,
    );
    v.set(
        "mtpu.ctx_load_cycle_share",
        s.ctx_load_cycles as f64 / s.pu_cycles.max(1) as f64,
    );
    v.set(
        "mtpu.prefetch_hits_per_tx",
        s.prefetch_hits as f64 / TXS as f64,
    );
    v.set(
        "mtpu.skipped_preexec_share",
        s.skipped_preexec as f64 / (s.instructions + s.skipped_preexec).max(1) as f64,
    );
    v.set(
        "mtpu.trace_ns_per_tx",
        over(&|s| s.trace_ns as f64 / TXS as f64),
    );
    v.set(
        "mtpu.sim_ns_per_instr",
        over(&|s| s.sim_ns as f64 / s.sim_instructions as f64),
    );
    v.set(
        "mtpu.sim_minstr_per_s",
        over(&|s| s.sim_instructions as f64 / 1e6 / ((s.trace_ns + s.sim_ns) as f64 / 1e9)),
    );
    v.set("mtpu.hotspot_learn_ms", learn_ms);
    out.values = v;
    out.note(format!(
        "{} sweeps; speedup per dependent ratio {:?}: {}",
        sweeps.len(),
        RATIOS,
        speedups
            .iter()
            .map(|s| format!("{s:.2}x"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}
