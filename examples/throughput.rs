//! Throughput projection: converts simulated cycles into transactions
//! per second at the paper's 300 MHz clock — the system-level metric the
//! paper's introduction motivates (throughput = transactions per block /
//! block interval, Fig. 2).
//!
//! ```sh
//! cargo run --release --example throughput
//! ```

use mtpu_repro::evm::execute_block;
use mtpu_repro::mtpu::hotspot::ContractTable;
use mtpu_repro::mtpu::sched::{simulate_sequential, simulate_st};
use mtpu_repro::mtpu::MtpuConfig;
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::workloads::{BlockConfig, Generator};
use std::time::Instant;

/// The paper's synthesized clock.
const CLOCK_HZ: f64 = 300.0e6;

fn main() {
    let mut generator = Generator::new(1);
    let mut table = ContractTable::new();
    let warm = generator.prepared_block(&BlockConfig::default());
    warm.learn_hotspots(&mut table, &warm.state_before);

    // A representative mainnet-like block: mostly SCTs, fifth of them
    // dependent.
    let block = generator.prepared_block(&BlockConfig {
        tx_count: 256,
        dependent_ratio: 0.2,
        erc20_ratio: None,
        sct_ratio: 0.9,
        chain_bias: 0.8,
        focus: None,
    });
    let n = block.block.transactions.len() as f64;
    println!(
        "block: {} txs ({}% SCT), dependent ratio {:.0}%\n",
        n,
        90,
        100.0 * block.dependent_ratio()
    );
    println!(
        "{:<42} {:>12} {:>12} {:>9}",
        "execution engine", "cycles/block", "blocks/s", "tx/s"
    );
    println!("{}", "-".repeat(80));

    let show = |name: &str, makespan: u64| {
        let blocks_per_s = CLOCK_HZ / makespan as f64;
        println!(
            "{name:<42} {makespan:>12} {blocks_per_s:>12.1} {:>9.0}",
            blocks_per_s * n
        );
    };

    let base_cfg = MtpuConfig::baseline();
    let seq = simulate_sequential(&block.jobs(&base_cfg, None), &base_cfg);
    show("sequential PU (today's EVM discipline)", seq.makespan);

    let ilp_cfg = MtpuConfig {
        pu_count: 1,
        redundancy_opt: false,
        ..MtpuConfig::default()
    };
    let ilp = simulate_sequential(&block.jobs(&ilp_cfg, None), &ilp_cfg);
    show("single MTPU PU (ILP)", ilp.makespan);

    let full_cfg = MtpuConfig {
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let full = simulate_st(
        &block.jobs(&full_cfg, Some(&table)),
        &block.graph,
        &full_cfg,
    );
    show("4-PU MTPU, full co-design", full.makespan);

    println!(
        "\nAt a 12 s block interval the full design sustains ~{:.0} such blocks'\n\
         worth of execution per interval — execution stops being the\n\
         throughput bottleneck (the paper's motivating claim, §1).",
        CLOCK_HZ * 12.0 / full.makespan as f64
    );

    // The rows above are *simulated-cycle projections* of the accelerator.
    // Below: the same block executed for real on host threads by the
    // parexec engine, measured in wall-clock time. The absolute numbers
    // are incomparable (host ISA vs. 300 MHz MTPU), but the *scaling
    // shape* across threads is the same DAG-limited curve as Fig. 14.
    println!(
        "\n{:<42} {:>12} {:>9} {:>8} {:>7}",
        "host parexec (measured wall-clock)", "wall", "tx/s", "re-exec", "util"
    );
    println!("{}", "-".repeat(82));
    let threads_available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    for threads in [1usize, 2, 4, 8] {
        let exec = ParExecutor::new(threads);
        // Warm up once, then measure the better of three runs.
        let measure = || {
            exec.execute_block_delta_with_dag_hints(
                &block.state_before,
                &block.block,
                &block.graph,
                &[],
            )
        };
        let mut best = measure();
        for _ in 0..2 {
            let run = measure();
            if run.stats.wall < best.stats.wall {
                best = run;
            }
        }
        let s = &best.stats;
        let label = format!(
            "  {threads} thread{}{}",
            if threads == 1 { "" } else { "s" },
            if threads > threads_available {
                " (oversubscribed)"
            } else {
                ""
            }
        );
        println!(
            "{label:<42} {:>12} {:>9.0} {:>8} {:>6.0}%",
            format!("{:.2?}", s.wall),
            s.tx_per_sec(),
            s.conflicts,
            100.0 * s.utilization()
        );
    }
    let t0 = Instant::now();
    let mut seq_state = block.state_before.clone();
    execute_block(&mut seq_state, &block.block);
    let seq_wall = t0.elapsed();
    println!(
        "  sequential reference                     {:>12} {:>9.0}",
        format!("{seq_wall:.2?}"),
        n / seq_wall.as_secs_f64()
    );
    println!(
        "\n(host has {threads_available} core{}; speedup over the sequential reference needs\n\
         as many physical cores as worker threads)",
        if threads_available == 1 { "" } else { "s" }
    );
}
