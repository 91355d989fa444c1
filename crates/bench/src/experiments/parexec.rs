//! Host-thread parallel execution sweep: the Fig. 14 axes (dependent
//! ratio × parallelism) measured in *wall-clock time* on the real
//! `mtpu-parexec` engine instead of simulated accelerator cycles.
//!
//! The absolute numbers depend on the host; the shape is the point: with
//! enough physical cores, speedup approaches the thread count on
//! independent blocks and collapses toward 1× as the dependent ratio —
//! and with it the DAG's critical path — grows, exactly like the
//! simulated spatial-temporal curves.

use crate::harness::render_table;
use mtpu_evm::execute_block;
use mtpu_parexec::ParExecutor;
use mtpu_workloads::{BlockConfig, Generator, PreparedBlock};
use std::time::{Duration, Instant};

/// Dependent-transaction ratios swept (matches Fig. 14's x-axis).
pub const RATIOS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
/// Worker-thread counts swept.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Transactions per block.
const BLOCK_TXS: usize = 256;
/// Measured runs per cell; the best run is reported to suppress
/// scheduling noise.
const RUNS: usize = 3;

fn sweep_block(seed: u64, ratio: f64) -> PreparedBlock {
    let mut g = Generator::new(seed);
    g.prepared_block(&BlockConfig {
        tx_count: BLOCK_TXS,
        dependent_ratio: ratio,
        erc20_ratio: None,
        sct_ratio: 0.95,
        chain_bias: 0.8,
        focus: None,
    })
}

fn best_wall(mut run: impl FnMut() -> Duration) -> Duration {
    (0..RUNS).map(|_| run()).min().expect("RUNS > 0")
}

/// The ratio × threads wall-clock sweep. Each cell reports speedup over
/// the measured sequential execution of the same block, plus the
/// re-execution count at the highest thread count.
pub fn sweep() -> String {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for (i, &ratio) in RATIOS.iter().enumerate() {
        let block = sweep_block(0x14 + i as u64, ratio);
        let base = &block.state_before;

        let seq_wall = best_wall(|| {
            let mut st = base.clone();
            let t0 = Instant::now();
            execute_block(&mut st, &block.block);
            t0.elapsed()
        });

        let mut row = vec![
            format!("{:.0}%", 100.0 * ratio),
            format!("{:.0}%", 100.0 * block.dependent_ratio()),
            format!("{seq_wall:.2?}"),
        ];
        let mut last_reexec = 0;
        for &threads in &THREADS {
            let exec = ParExecutor::new(threads);
            let mut reexec = 0;
            let wall = best_wall(|| {
                let result =
                    exec.execute_block_delta_with_dag_hints(base, &block.block, &block.graph, &[]);
                reexec = result.stats.conflicts;
                result.stats.wall
            });
            last_reexec = reexec;
            row.push(format!(
                "{:.2}",
                seq_wall.as_secs_f64() / wall.as_secs_f64()
            ));
        }
        row.push(format!("{last_reexec}"));
        rows.push(row);
    }
    render_table(
        &format!(
            "Host parexec sweep — wall-clock speedup vs sequential ({BLOCK_TXS} txs, {cores} core host)"
        ),
        &[
            "target", "realized", "seq wall", "x1", "x2", "x4", "x8", "re-exec@8",
        ],
        &rows,
    ) + &format!(
        "\nFig. 14 shape on host threads: speedup at 0% dependence is bounded by\n\
         physical cores ({cores} here) and decays toward 1x as the critical path\n\
         grows; >1 means the DAG exposed real concurrency. Thread counts above\n\
         the core count only add coordination overhead.\n"
    )
}

/// A digest of the global telemetry registry after a run: the headline
/// ratios the acceptance checks look for (DB-cache hit ratio, parexec
/// commit/abort counts, worker idle %) followed by the full registry
/// table.
pub fn metrics_summary() -> String {
    let reg = mtpu_telemetry::global();
    let ratio = |hit: u64, miss: u64| -> String {
        let total = hit + miss;
        if total == 0 {
            "n/a".into()
        } else {
            format!("{:.1}%", 100.0 * hit as f64 / total as f64)
        }
    };
    let c = |name: &str| reg.counter(name).get();

    let db_hit = c("mtpu.db.hit");
    let db_miss = c("mtpu.db.miss");
    let sb_hit = c("mtpu.sb.hit");
    let sb_miss = c("mtpu.sb.miss");
    let commits = c("parexec.commit");
    let aborts = c("parexec.abort");
    let spec = c("parexec.reexec.speculative");
    let fallback = c("parexec.reexec.fallback");
    let idle = c("parexec.worker.idle_ns");
    let busy = c("parexec.worker.busy_ns");
    let q = reg.histogram("parexec.queue_depth").snapshot();

    let mut rows = vec![
        vec![
            "DB-cache hit ratio".into(),
            ratio(db_hit, db_miss),
            format!("{} hits / {} misses", db_hit, db_miss),
        ],
        vec![
            "State-Buffer hit ratio".into(),
            ratio(sb_hit, sb_miss),
            format!("{} hits / {} misses", sb_hit, sb_miss),
        ],
        vec![
            "parexec commits".into(),
            format!("{commits}"),
            format!(
                "{} in place, {} speculated",
                c("parexec.commit.in_place"),
                c("parexec.commit.speculated")
            ),
        ],
        vec![
            "parexec aborts".into(),
            format!("{aborts}"),
            format!("{spec} speculative retries, {fallback} fallbacks"),
        ],
        vec![
            "worker idle".into(),
            ratio(idle, busy),
            format!("{idle} ns idle / {busy} ns busy"),
        ],
    ];
    if q.count > 0 {
        rows.push(vec![
            "ready-queue depth".into(),
            format!("p50 {}", q.percentile(50.0)),
            format!("p95 {} / max {}", q.percentile(95.0), q.max),
        ]);
    }
    let mut out = render_table("Telemetry summary", &["metric", "value", "detail"], &rows);
    out.push('\n');
    out.push_str(&reg.render_table());
    out
}
