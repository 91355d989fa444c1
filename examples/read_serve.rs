//! Serving reads against the live write pipeline: a `ReadServer` is
//! attached to the node driver as its block sink, then — while blocks
//! keep executing and committing — reader threads answer balance queries
//! and run read-only ERC20 `balanceOf` call simulations at both the head
//! and pinned historical heights, a subscriber tails the per-block
//! `{height, merkle_root, receipts}` feed, and a receipt is looked up by
//! transaction hash. At the end, the head balance is cross-checked
//! against the pipeline's own final state.
//!
//! ```sh
//! cargo run --release --example read_serve [blocks]
//! ```

use mtpu_repro::accountsdb::{AccountsDb, FlushService};
use mtpu_repro::contracts::{addresses, call_data, Fixture};
use mtpu_repro::evm::tx::{BlockHeader, Transaction};
use mtpu_repro::evm::ReadCall;
use mtpu_repro::mempool::{
    BlockPacker, DriverConfig, Mempool, NodeDriver, PackerConfig, PoolConfig, TxSource,
};
use mtpu_repro::primitives::U256;
use mtpu_repro::readserve::{ReadServeConfig, ReadServer};
use mtpu_repro::workloads::{ZipfConfig, ZipfGen, ZipfSampler};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A Zipf stream truncated to `left` transactions.
struct Bounded {
    gen: ZipfGen,
    left: usize,
}

impl TxSource for Bounded {
    fn next_tx(&mut self) -> Option<Transaction> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.gen.next_tx())
    }
}

fn main() {
    let blocks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    const BLOCK_TXS: usize = 96;

    let source = Bounded {
        gen: ZipfGen::new(
            0x5EED,
            ZipfConfig {
                senders: 256,
                hot_ratio: 0.2,
                ..ZipfConfig::default()
            },
        ),
        left: blocks * BLOCK_TXS * 2,
    };
    let genesis = source.gen.genesis_state().clone();

    // The store the session executes against: a scratch directory,
    // removed again before exit.
    let dir = std::env::temp_dir().join(format!("mtpu-example-read-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(&genesis, 0);
    let flush = FlushService::start(db.clone());

    let server = ReadServer::new(genesis.clone(), ReadServeConfig::default());
    let subscriber = server.subscribe();
    let driver = NodeDriver::new(
        Mempool::new(PoolConfig {
            max_txs: 4096,
            max_per_sender: 4096,
            ..PoolConfig::default()
        }),
        BlockPacker::new(PackerConfig {
            max_txs: BLOCK_TXS,
            gas_limit: 256_000_000,
            ..PackerConfig::default()
        }),
        DriverConfig {
            blocks,
            threads: 4,
            background_ingest: false,
            ..DriverConfig::default()
        },
    )
    .with_sink(server.clone());

    println!("== write pipeline + {blocks}-block read-serving session ==");
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let report = std::thread::scope(|s| {
        let driver_handle = s.spawn(|| {
            let report = driver.run_flat(&genesis, &db, &flush, source, |height| BlockHeader {
                height,
                ..Default::default()
            });
            stop.store(true, Ordering::Release);
            report
        });
        for seed in 0..2u64 {
            let server = &server;
            let stop = &stop;
            let reads = &reads;
            s.spawn(move || {
                let mut keys = ZipfSampler::new(seed, 256, 1.0);
                while !stop.load(Ordering::Acquire) {
                    let user = Fixture::user_address(keys.sample());
                    // Head read + a call simulation pinned to the head.
                    let _ = server.get_balance(None, user);
                    let call = ReadCall::view(
                        user,
                        addresses::tether(),
                        call_data("balanceOf(address)", &[user.to_u256()]),
                    );
                    if let Some((_, out)) = server.call(None, &call) {
                        assert!(out.success, "balanceOf reverted");
                    }
                    reads.fetch_add(2, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
        driver_handle.join().expect("driver thread")
    });
    drop(flush);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "pipeline: {} blocks, {} txs; readers answered {} reads meanwhile",
        report.blocks.len(),
        report.chain.txs,
        reads.load(Ordering::Relaxed),
    );

    // The subscriber saw every committed block, root and all.
    let events = subscriber.drain();
    println!(
        "subscription: {} events, {} dropped, final root {}",
        events.len(),
        subscriber.dropped(),
        events
            .last()
            .map(|e| e.merkle_root.to_string())
            .unwrap_or_default(),
    );

    // Historical reads: the same account at three pinned heights.
    let user = Fixture::user_address(0);
    let (lo, hi) = server.retained().expect("window non-empty");
    for h in [lo, (lo + hi) / 2, hi] {
        let (at, balance) = server.get_balance(Some(h), user).expect("retained");
        println!("  balance of user 0 at height {at}: {balance}");
    }

    // Receipt lookup by hash, straight off the latest block.
    let head = server.latest().expect("head snapshot");
    if let Some(tx) = head.block().transactions.first() {
        let (h, idx, receipt) = server.receipt_by_hash(tx.hash()).expect("indexed");
        println!(
            "receipt of {}: height {h} index {idx}, success={} gas={}",
            tx.hash(),
            receipt.success,
            receipt.gas_used,
        );
    }

    // Cross-check the head against the driver's own final root.
    assert_eq!(head.merkle_root(), Some(report.final_root));
    let erc20_balance = server
        .call(
            None,
            &ReadCall::view(
                user,
                addresses::tether(),
                call_data("balanceOf(address)", &[user.to_u256()]),
            ),
        )
        .map(|(_, out)| U256::from_be_slice(&out.output));
    println!(
        "head: height {} root {} — ERC20 balanceOf(user 0) = {:?}",
        head.height(),
        report.final_root,
        erc20_balance,
    );
    println!("read layer and write pipeline agree at the head.");
}
