//! Multi-block chain simulation: consecutive blocks run the paper's
//! Fig. 4 loop — verify (sequential tracing), accelerate (the simulated
//! MTPU against the scalar baseline), block interval (Contract Table
//! learning) — with the Contract Table warming up across blocks.
//!
//! Each block is additionally executed in parallel (`parexec`) and its
//! delta committed *incrementally* into an in-memory Merkle Patricia
//! Trie, whose root must match a from-scratch commitment of the
//! post-block state bit for bit. Everything here is synchronous, one
//! block at a time; the overlapped pipeline (commit joined one block
//! behind) is `NodeDriver`'s, see `examples/node_pipeline.rs`.
//!
//! The flat accounts store rides along: every committed delta is also
//! absorbed into an [`AccountsDb`] whose background flush trails the
//! chain. Its MANIFEST is the one durable checkpoint: at the end the
//! store is snapshotted, reopened, and the trie root derived from it
//! must equal the chain head.
//!
//! ```sh
//! cargo run --release --example chain_sim [blocks]
//! ```

use mtpu_repro::accountsdb::{AccountsDb, FlushService};
use mtpu_repro::evm::{apply_updates, delta_updates};
use mtpu_repro::mtpu::{simulate_sequential, simulate_st, ContractTable, MtpuConfig};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::statedb::{MemStore, StateCommitter};
use mtpu_repro::workloads::{BlockConfig, Generator};
use std::sync::Arc;

/// Contract Table entries kept after each block interval's relearn pass.
const TABLE_CAPACITY: usize = 32;

fn short(root: mtpu_repro::primitives::B256) -> String {
    let s = root.to_string();
    format!("{}..{}", &s[..10], &s[s.len() - 4..])
}

fn main() {
    let blocks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    let mut generator = Generator::new(31);
    let config = MtpuConfig {
        redundancy_opt: true,
        hotspot_opt: true,
        ..MtpuConfig::default()
    };
    let base_cfg = MtpuConfig::baseline();
    let mut table = ContractTable::new();
    let executor = ParExecutor::new(4);

    let mut committer = StateCommitter::new(MemStore::new());
    // Seed the trie with genesis so block deltas commit incrementally.
    let genesis_root = mtpu_repro::evm::commit_full(&mut committer, &generator.fx.state);
    assert_eq!(genesis_root, generator.fx.state.merkle_root());

    // The flat accounts store shadows the chain: deltas absorb after
    // each block, the flush queue drains in the background.
    let flat_dir = std::env::temp_dir().join(format!("mtpu-chain-sim-flat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flat_dir);
    let flat = Arc::new(AccountsDb::open(&flat_dir).expect("open accounts db"));
    flat.bootstrap_from_state(&generator.fx.state, 0);
    let flat_flush = FlushService::start(flat.clone());

    println!(
        "{:>5} {:>6} {:>8} {:>10} {:>9} {:>9} {:>8}  {:<16}",
        "block", "txs", "dep%", "cycles", "speedup", "hotspot%", "util%", "state root"
    );
    let mut root = genesis_root;
    for height in 1..=blocks as u64 {
        // Verify: sequential tracing, which also advances the fixture.
        let p = generator.prepared_block(&BlockConfig {
            tx_count: 96,
            dependent_ratio: 0.25,
            erc20_ratio: None,
            sct_ratio: 0.92,
            chain_bias: 0.8,
            focus: None,
        });

        // Accelerate with last interval's table, then learn from this block.
        let coverage = p.hotspot_coverage(&table);
        let schedule = simulate_st(&p.jobs(&config, Some(&table)), &p.graph, &config);
        let baseline = simulate_sequential(&p.jobs(&base_cfg, None), &base_cfg);
        p.learn_hotspots(&mut table, &p.state_after);
        table.retain_top(TABLE_CAPACITY);

        // Parallel execution + incremental trie commit must land on the
        // same 32 bytes as a from-scratch commitment of the post-state.
        let result = executor.execute_block(&p.state_before, &p.block);
        apply_updates(
            &mut committer,
            &delta_updates(&p.state_before, &result.delta),
        );
        root = committer.commit();
        assert_eq!(root, p.state_after.merkle_root(), "trie commit diverged");
        flat.absorb(&result.delta, height);
        flat_flush.request_flush(height.saturating_sub(1));

        println!(
            "{:>5} {:>6} {:>7.0}% {:>10} {:>8.2}x {:>8.0}% {:>7.0}%  {:<16}",
            height,
            p.block.transactions.len(),
            100.0 * p.dependent_ratio(),
            schedule.makespan,
            baseline.makespan as f64 / schedule.makespan as f64,
            100.0 * coverage,
            100.0 * schedule.utilization(),
            short(root),
        );
    }

    // Restart: snapshot the flat store, reopen it, and derive the trie
    // root from what the MANIFEST vouches for.
    flat_flush.quiesce();
    flat.snapshot(Some(root)).expect("snapshot flat store");
    drop(flat_flush);
    drop(flat);
    let restored = AccountsDb::open(&flat_dir).expect("reopen accounts db");
    assert_eq!(restored.head_height(), blocks as u64);
    assert_eq!(restored.snapshot_root(), Some(root));
    let derived = restored.export_state().merkle_root();
    assert_eq!(derived, root, "derived root lost the chain head");
    println!(
        "\nflat store reopened at height {}: derived root {} is the chain head",
        restored.head_height(),
        short(derived),
    );
    let _ = std::fs::remove_dir_all(&flat_dir);

    println!(
        "\nBlock 1 runs with a cold Contract Table; from block 2 on the block\n\
         interval has learned the hotspot paths and the speedup settles higher\n\
         (the paper's offline deep-optimization loop, §3.4)."
    );
}
