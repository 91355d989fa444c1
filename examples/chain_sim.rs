//! Multi-block chain simulation: a validating node with an attached MTPU
//! processes consecutive blocks end to end (the paper's Fig. 4 pipeline),
//! with the Contract Table warming up across block intervals.
//!
//! Each block is additionally executed in parallel (`parexec`) and its
//! delta committed *incrementally* into a file-backed Merkle Patricia
//! Trie, whose root must match the node's chained commitment bit for
//! bit. Everything here is synchronous, one block at a time; the
//! overlapped pipeline (commit joined one block behind) is
//! `NodeDriver`'s, see `examples/node_pipeline.rs`. After the run the
//! store is reopened to show the chain survives restart.
//!
//! The flat accounts store rides along: every committed delta is also
//! absorbed into an [`AccountsDb`] whose background flush trails the
//! chain, and at the end a snapshot → restore round-trip shows the flat
//! store reopens at the same head as the trie.
//!
//! ```sh
//! cargo run --release --example chain_sim [blocks]
//! ```

use mtpu_repro::accountsdb::{AccountsDb, FlushService};
use mtpu_repro::evm::{apply_updates, delta_updates};
use mtpu_repro::mtpu::{MtpuConfig, Node};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::statedb::{FileStore, StateCommitter};
use mtpu_repro::workloads::{BlockConfig, Generator};
use std::sync::Arc;

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
    let mut node = Node::new(generator.fx.state.clone(), config);
    let executor = ParExecutor::new(4);

    let store_dir = std::env::temp_dir().join(format!("mtpu-chain-sim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut committer =
        StateCommitter::new(FileStore::open(&store_dir).expect("open node store")).with_threads(4);
    // Seed the trie with genesis so block deltas commit incrementally.
    mtpu_repro::evm::commit_full(&mut committer, &node.state);
    let genesis_root = committer.persist().expect("persist genesis");
    assert_eq!(genesis_root, node.merkle_root());

    // The flat accounts store shadows the chain: deltas absorb after
    // each block, the write cache drains in the background.
    let flat_dir = std::env::temp_dir().join(format!("mtpu-chain-sim-flat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flat_dir);
    let flat = Arc::new(AccountsDb::open(&flat_dir).expect("open accounts db"));
    flat.bootstrap_from_state(&node.state, 0);
    let flat_flush = FlushService::start(flat.clone());

    println!(
        "{:>5} {:>6} {:>8} {:>10} {:>9} {:>9} {:>8}  {:<16}",
        "block", "txs", "dep%", "cycles", "speedup", "hotspot%", "util%", "state root"
    );
    let mut parent_root = genesis_root;
    for height in 1..=blocks as u64 {
        let block = generator.block(&BlockConfig {
            tx_count: 96,
            dependent_ratio: 0.25,
            erc20_ratio: None,
            sct_ratio: 0.92,
            chain_bias: 0.8,
            focus: None,
        });
        let base = node.state.clone();
        let report = node.process_block(&block).expect("valid block");
        // Keep the generator's fixture state in sync with the chain.
        generator.fx.state = node.state.clone();

        // Parent linkage: the chain of commitments must be unbroken.
        assert_eq!(report.parent_merkle_root, parent_root, "root chain broken");
        parent_root = report.merkle_root;

        // Parallel execution + incremental trie commit must land on the
        // same 32 bytes as the node's own incremental commitment.
        let result = executor.execute_block(&base, &block);
        apply_updates(&mut committer, &delta_updates(&base, &result.delta));
        let incremental = committer.persist().expect("persist block");
        assert_eq!(incremental, report.merkle_root, "trie commit diverged");
        flat.absorb(&result.delta, height);
        flat_flush.request_flush(height.saturating_sub(1));

        println!(
            "{:>5} {:>6} {:>7.0}% {:>10} {:>8.2}x {:>8.0}% {:>7.0}%  {:<16}",
            report.height,
            block.transactions.len(),
            100.0 * report.dependent_ratio,
            report.schedule.makespan,
            report.speedup(),
            100.0 * report.hotspot_coverage,
            100.0 * report.schedule.utilization(),
            short(report.merkle_root),
        );
    }

    // Restart survival: reopen the store and resume at the same root.
    let total_nodes = {
        use mtpu_repro::statedb::NodeStore;
        committer.store().node_count()
    };
    drop(committer);
    let mut reopened = StateCommitter::new(FileStore::open(&store_dir).expect("reopen store"));
    let resumed = reopened.commit();
    assert_eq!(resumed, parent_root, "reopened store lost the chain head");
    println!(
        "\nstore reopened from {}: root {} resumed across restart ({total_nodes} nodes on disk)",
        store_dir.display(),
        short(resumed),
    );
    let _ = std::fs::remove_dir_all(&store_dir);

    // Flat-store snapshot → restore: the reopened accounts DB resumes at
    // the same head (and remembers the trie root it was snapshotted at).
    flat_flush.quiesce();
    flat.snapshot(Some(parent_root))
        .expect("snapshot flat store");
    let flat_stats = flat.stats();
    drop(flat_flush);
    drop(flat);
    let restored = AccountsDb::open(&flat_dir).expect("restore accounts db");
    assert_eq!(restored.snapshot_root(), Some(parent_root));
    assert_eq!(restored.head_height(), blocks as u64);
    println!(
        "flat store restored at height {}: root {} ({} accounts, {} files, {} KiB)",
        restored.head_height(),
        short(parent_root),
        flat_stats.indexed_accounts,
        flat_stats.files,
        flat_stats.file_bytes / 1024,
    );
    let _ = std::fs::remove_dir_all(&flat_dir);

    println!(
        "\nBlock 1 runs with a cold Contract Table; from block 2 on the block\n\
         interval has learned the hotspot paths and the speedup settles higher\n\
         (the paper's offline deep-optimization loop, §3.4)."
    );
}
