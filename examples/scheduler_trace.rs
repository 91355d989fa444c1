//! Scheduler visualization: prints the spatial-temporal schedule of a
//! small block as a per-PU timeline, showing redundancy affinity (same
//! contract sticking to one PU) and dependency stalls — and dumps the
//! whole thing as a Chrome `trace_event` file.
//!
//! ```sh
//! cargo run --example scheduler_trace
//! ```
//!
//! The run writes `scheduler_trace.json`: open it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Process 2 ("sim")
//! holds one lane per PU with the simulated per-tx slices (timestamps
//! are cycle numbers); process 1 ("wall") holds the real worker threads
//! of `mtpu-parexec` executing the very same block, with exec/commit/
//! fallback spans in nanoseconds.

use mtpu_repro::mtpu::sched::simulate_st;
use mtpu_repro::mtpu::MtpuConfig;
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::telemetry::{TraceEvent, SIM_PID};
use mtpu_repro::workloads::{BlockConfig, Generator};

fn main() {
    mtpu_repro::telemetry::set_enabled(true);
    mtpu_repro::telemetry::name_thread("main");

    let mut generator = Generator::new(3);
    let block = generator.prepared_block(&BlockConfig {
        tx_count: 24,
        dependent_ratio: 0.35,
        erc20_ratio: None,
        sct_ratio: 1.0,
        chain_bias: 0.8,
        focus: None,
    });
    let cfg = MtpuConfig {
        redundancy_opt: true,
        ..MtpuConfig::default()
    };
    let jobs = block.jobs(&cfg, None);
    let result = simulate_st(&jobs, &block.graph, &cfg);

    println!(
        "24-tx block, dependent ratio {:.0}%, makespan {} cycles, utilization {:.0}%\n",
        100.0 * block.dependent_ratio(),
        result.makespan,
        100.0 * result.utilization()
    );
    println!("tx  pu  start     end       parents        contract");
    println!("----------------------------------------------------------");
    for i in 0..jobs.len() {
        let parents: Vec<String> = block
            .graph
            .parents(i)
            .iter()
            .map(|p| p.to_string())
            .collect();
        let contract = block.block.transactions[i]
            .to
            .map(|a| format!("{}", a))
            .unwrap_or_else(|| "create".into());
        println!(
            "{i:>2}  {:>2}  {:>8}  {:>8}  {:<13} ..{}",
            result.pu_of[i],
            result.start[i],
            result.end[i],
            if parents.is_empty() {
                "-".to_string()
            } else {
                parents.join(",")
            },
            &contract[contract.len() - 6..],
        );
    }

    // A compact per-PU lane view (each cell = one scheduled tx in start
    // order).
    println!("\nper-PU lanes (tx ids in dispatch order):");
    for pu in 0..cfg.pu_count {
        let mut lane: Vec<usize> = (0..jobs.len()).filter(|&i| result.pu_of[i] == pu).collect();
        lane.sort_by_key(|&i| result.start[i]);
        let ids: Vec<String> = lane.iter().map(|i| format!("{i:>2}")).collect();
        println!("  PU{pu}: {}", ids.join(" -> "));
    }
    assert!(block
        .graph
        .schedule_respects_dag(&result.start, &result.end));

    // Mirror the simulated schedule into the trace-event log: one SIM_PID
    // thread lane per PU, one slice per transaction, timestamps in cycle
    // numbers (Chrome renders them as microseconds; only the shape
    // matters).
    // Thread names are global per tid, so the simulated PU lanes take a
    // disjoint tid range to keep the wall-clock worker labels intact.
    const PU_TID_BASE: u32 = 100;
    let reg = mtpu_repro::telemetry::global();
    for pu in 0..cfg.pu_count {
        reg.set_thread_name(PU_TID_BASE + pu as u32, &format!("PU{pu}"));
    }
    for i in 0..jobs.len() {
        reg.add_event(TraceEvent {
            name: format!("tx{i}"),
            cat: "sim",
            pid: SIM_PID,
            tid: PU_TID_BASE + result.pu_of[i] as u32,
            ts_ns: result.start[i],
            dur_ns: result.end[i].saturating_sub(result.start[i]),
            args: vec![("pu".into(), result.pu_of[i].into())],
        });
    }

    // Execute the same block on the real host-thread engine: its workers
    // emit wall-clock exec/commit/fallback spans into WALL_PID lanes.
    let exec = ParExecutor::new(4);
    let par = exec.execute_block_delta_with_dag_hints(
        &block.state_before,
        &block.block,
        &block.graph,
        &[],
    );
    let mut par_state = block.state_before.clone();
    par.delta.apply_to(&mut par_state);
    assert_eq!(
        par_state.state_root(),
        block.state_after.state_root(),
        "parallel result must match"
    );
    println!(
        "\nhost parexec (4 workers): {} commits, {} conflicts, wall {:.2?}",
        par.stats.txs, par.stats.conflicts, par.stats.wall
    );

    let trace = reg.chrome_trace_json();
    std::fs::write("scheduler_trace.json", &trace).expect("write scheduler_trace.json");
    let (events, dropped) = reg.event_counts();
    println!(
        "wrote scheduler_trace.json ({} events, {} dropped) — open in https://ui.perfetto.dev",
        events, dropped
    );
}
