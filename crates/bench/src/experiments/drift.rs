//! Extension experiment: hotspot drift (paper §2.2.3).
//!
//! The paper motivates its *general* hotspot mechanism with CryptoCat:
//! once 14% of all Ethereum transactions, now inactive. A fixed-function
//! accelerator (BPU's App engine) strands silicon when hotspots move; the
//! MTPU's Contract Table just relearns. This experiment quantifies that:
//! a capacity-bound Contract Table is trained in a CryptoCat-dominated
//! era, then evaluated in a Tether-dominated era before and after
//! relearning.

use crate::harness::render_table;
use mtpu::hotspot::ContractTable;
use mtpu::sched::simulate_st;
use mtpu::MtpuConfig;
use mtpu_workloads::{BlockConfig, Generator, PreparedBlock};

/// Contract Table capacity in (contract, entry-function) entries — kept
/// tight so era-1 entries crowd out everything else.
const TABLE_CAPACITY: usize = 3;

fn era_block(g: &mut Generator, focus: &'static str) -> PreparedBlock {
    g.prepared_block(&BlockConfig {
        tx_count: 128,
        dependent_ratio: 0.1,
        erc20_ratio: None,
        sct_ratio: 1.0,
        chain_bias: 0.8,
        focus: Some((focus, 0.75)),
    })
}

fn speedup_with(p: &PreparedBlock, table: &ContractTable) -> f64 {
    let base_cfg = MtpuConfig::baseline();
    let base = mtpu::sched::simulate_sequential(&p.jobs(&base_cfg, None), &base_cfg);
    let cfg = MtpuConfig {
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let st = simulate_st(&p.jobs(&cfg, Some(table)), &p.graph, &cfg);
    base.makespan as f64 / st.makespan as f64
}

/// Runs the two-era drift scenario.
pub fn hotspot_drift() -> String {
    let mut g = Generator::new(2023);

    // Era 1: CryptoCat mania. Learn the table from a warmup block.
    let warm1 = era_block(&mut g, "CryptoCat");
    let mut table = ContractTable::new();
    warm1.learn_hotspots(&mut table, &warm1.state_before);
    table.retain_top(TABLE_CAPACITY);
    let era1 = era_block(&mut g, "CryptoCat");

    let mut rows = vec![vec![
        "era 1 (CryptoCat), era-1 table".to_string(),
        format!("{:.0}%", 100.0 * era1.hotspot_coverage(&table)),
        format!("{:.2}x", speedup_with(&era1, &table)),
    ]];

    // Era 2: the fad dies; Dai dominates. First with the stale table…
    let era2 = era_block(&mut g, "Dai");
    rows.push(vec![
        "era 2 (Dai), stale era-1 table".to_string(),
        format!("{:.0}%", 100.0 * era2.hotspot_coverage(&table)),
        format!("{:.2}x", speedup_with(&era2, &table)),
    ]);

    // …then after the block-interval relearn pass.
    table.reset_invocations();
    let warm2 = era_block(&mut g, "Dai");
    let mut table2 = ContractTable::new();
    warm2.learn_hotspots(&mut table2, &warm2.state_before);
    table2.retain_top(TABLE_CAPACITY);
    rows.push(vec![
        "era 2 (Dai), relearned table".to_string(),
        format!("{:.0}%", 100.0 * era2.hotspot_coverage(&table2)),
        format!("{:.2}x", speedup_with(&era2, &table2)),
    ]);

    render_table(
        "Extension — hotspot drift (§2.2.3): capacity-3 Contract Table across eras",
        &["scenario", "hotspot coverage", "speedup vs scalar PU"],
        &rows,
    ) + "\nThe general mechanism recovers by relearning in the block interval; a fixed-function\n\
       ERC20/CryptoCat engine cannot (the paper's argument against BPU-style specialization).\n"
}
