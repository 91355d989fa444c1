//! The MVCC read layer's consistency contract, end to end: every read a
//! [`ReadServer`] serves at height *H* — point reads, receipts, full
//! read-only `call` simulation — must be bit-identical to a sequential
//! [`State`] replayed to *H*, no matter how far the write pipeline has
//! advanced past it, how far its delta chain has grown or folded, or how
//! many reader threads are hammering it concurrently.

use mtpu_repro::accountsdb::{AccountsDb, FlushService};
use mtpu_repro::contracts::{addresses, call_data, Fixture};
use mtpu_repro::evm::execute_block as sequential;
use mtpu_repro::evm::state::{State, StateOps};
use mtpu_repro::evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_repro::evm::{call_readonly, BlockDelta, ReadCall, StateOverlay, StateRead};
use mtpu_repro::mempool::{
    BlockPacker, BlockSink, CommittedBlock, DriverConfig, Mempool, NodeDriver, PackerConfig,
    PoolConfig, TxSource,
};
use mtpu_repro::primitives::{Address, SplitMix64, B256, U256};
use mtpu_repro::readserve::{ReadServeConfig, ReadServer};
use mtpu_repro::workloads::{ZipfConfig, ZipfGen};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn a(n: u64) -> Address {
    Address::from_low_u64(n)
}

fn u(v: u64) -> U256 {
    U256::from(v)
}

fn header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        ..Default::default()
    }
}

fn empty_block(height: u64) -> Arc<Block> {
    Arc::new(Block {
        header: header(height),
        transactions: Vec::new(),
    })
}

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

/// Property: across random delta chains — credits, storage churn, code
/// swaps, selfdestruct and recreate — a snapshot read at height *H* is
/// bit-identical to the sequential state replayed to *H*, verified by
/// reader threads racing the publication of later blocks.
#[test]
fn snapshot_reads_match_sequential_replay_while_blocks_keep_committing() {
    const BLOCKS: u64 = 64;
    // Addresses 1..=8 are users, 100..=102 contracts; keys 0..6.
    let users: Vec<Address> = (1..=8).map(a).collect();
    let contracts: Vec<Address> = (100..=102).map(a).collect();
    let keys: Vec<U256> = (0..6).map(u).collect();

    let mut genesis = State::new();
    for &user in &users {
        genesis.credit(user, u(1_000_000));
    }
    for &c in &contracts {
        genesis.set_code(c, vec![0x60, 0x00]);
        genesis.set_storage(c, u(0), u(1));
    }
    genesis.finalize_tx();

    // Precompute the random chain and its sequential oracle.
    let mut rng = SplitMix64::seed_from_u64(0x5EAD);
    let mut states: Vec<Arc<State>> = vec![Arc::new(genesis.clone())];
    let mut roots: Vec<B256> = vec![genesis.merkle_root()];
    let mut deltas: Vec<Arc<BlockDelta>> = Vec::new();
    for _ in 1..=BLOCKS {
        let prev = states.last().unwrap().clone();
        let view: &dyn StateRead = prev.as_ref();
        let mut ov = StateOverlay::new(&view);
        for _ in 0..rng.random_range(1..6) {
            match rng.random_range(0..10) {
                0..=3 => {
                    let user = users[rng.random_range(0..users.len() as u64) as usize];
                    ov.credit(user, u(rng.random_range(1..1000)));
                }
                4..=6 => {
                    let c = contracts[rng.random_range(0..contracts.len() as u64) as usize];
                    let k = keys[rng.random_range(0..keys.len() as u64) as usize];
                    ov.set_storage(c, k, u(rng.random_range(0..50)));
                }
                7 => {
                    let c = contracts[rng.random_range(0..contracts.len() as u64) as usize];
                    ov.set_code(c, vec![0x60, rng.random_range(0..256) as u8]);
                }
                8 => {
                    let c = contracts[rng.random_range(0..contracts.len() as u64) as usize];
                    ov.mark_destructed(c);
                }
                _ => {
                    // Recreate whatever the last destruct killed (or just
                    // touch a contract): code + one slot.
                    let c = contracts[rng.random_range(0..contracts.len() as u64) as usize];
                    ov.set_code(c, vec![0xfe]);
                    ov.set_storage(c, keys[0], u(rng.random_range(1..9)));
                }
            }
        }
        ov.finalize_tx();
        let (tx, _) = ov.into_parts();
        let mut delta = BlockDelta::new();
        delta.merge(&tx, &view);
        let mut next = (*prev).clone();
        delta.apply_to(&mut next);
        roots.push(next.merkle_root());
        states.push(Arc::new(next));
        deltas.push(Arc::new(delta));
    }

    let server = ReadServer::new(
        genesis,
        ReadServeConfig {
            retention: 24,
            feed_capacity: 8,
        },
    );

    let publish = |h: u64| {
        server.on_block(CommittedBlock {
            height: h,
            block: empty_block(h),
            receipts: Arc::new(Vec::new()),
            state: None,
            delta: deltas[h as usize - 1].clone(),
        })
    };
    let done = AtomicBool::new(false);
    let verified = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Writer: report the genesis root (`ReadServer::new` leaves it to
        // the caller), then publish every block, roots trailing by one
        // block the way the pipelined committer does.
        s.spawn(|| {
            server.on_root(0, roots[0]);
            for h in 1..=BLOCKS {
                publish(h);
                if h > 1 {
                    server.on_root(h - 1, roots[h as usize - 1]);
                }
            }
            server.on_root(BLOCKS, roots[BLOCKS as usize]);
            done.store(true, Ordering::Release);
        });

        // Readers: race the writer, verifying whatever heights are
        // retained at the moment they look.
        for reader in 0..3u64 {
            let server = &server;
            let states = &states;
            let users = &users;
            let contracts = &contracts;
            let keys = &keys;
            let done = &done;
            let verified = &verified;
            s.spawn(move || {
                let mut rng = SplitMix64::seed_from_u64(0xBEEF + reader);
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let Some((lo, hi)) = server.retained() else {
                        continue;
                    };
                    let h = lo + rng.next_u64() % (hi - lo + 1);
                    // Pin the snapshot first: the height must stay
                    // readable even if the window slides past it.
                    let Some(snap) = server.snapshot(Some(h)) else {
                        continue;
                    };
                    let oracle = &states[snap.height() as usize];
                    let user = users[rng.random_range(0..users.len() as u64) as usize];
                    let c = contracts[rng.random_range(0..contracts.len() as u64) as usize];
                    let k = keys[rng.random_range(0..keys.len() as u64) as usize];
                    assert_eq!(snap.read_balance(user), oracle.balance(user), "h={h}");
                    assert_eq!(snap.read_storage(c, k), oracle.storage(c, k), "h={h}");
                    assert_eq!(snap.read_code(c), oracle.load_code(c), "h={h}");
                    assert_eq!(snap.read_exists(c), oracle.exists(c), "h={h}");
                    verified.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                }
            });
        }
    });
    assert!(
        verified.load(Ordering::Relaxed) >= 3,
        "readers never overlapped the writer"
    );

    // After the dust settles: every retained height, exhaustively, plus
    // its resolved root.
    let (lo, hi) = server.retained().expect("window non-empty");
    for h in lo..=hi {
        let snap = server.snapshot(Some(h)).expect("retained");
        let oracle = &states[h as usize];
        for &user in &users {
            assert_eq!(snap.read_balance(user), oracle.balance(user));
            assert_eq!(snap.read_nonce(user), oracle.nonce(user));
        }
        for &c in &contracts {
            assert_eq!(snap.read_code(c), oracle.load_code(c));
            assert_eq!(snap.read_code_hash(c), oracle.code_hash(c));
            for &k in &keys {
                assert_eq!(snap.read_storage(c, k), oracle.storage(c, k));
            }
        }
        assert_eq!(snap.merkle_root(), Some(roots[h as usize]));
    }
    // The window is exactly its budget, whatever the readers pinned, and
    // the chain folded past its 32-delta bound.
    assert_eq!((lo, hi), (BLOCKS - 23, BLOCKS));
    assert_eq!(server.pruned(), BLOCKS + 1 - 24);
    let latest = server.latest().expect("retained");
    assert!(
        latest.base_height() > 0,
        "the server never folded its delta chain"
    );
}

/// Receipts live exactly as long as their snapshot: lookup by hash works
/// for retained heights and returns `None` once the window slides past.
#[test]
fn receipts_prune_with_their_snapshots() {
    let mut genesis = State::new();
    genesis.credit(a(1), u(1_000_000));
    genesis.finalize_tx();
    let server = ReadServer::new(
        genesis.clone(),
        ReadServeConfig {
            retention: 4,
            ..ReadServeConfig::default()
        },
    );

    let mut hashes = Vec::new();
    for h in 1..=12u64 {
        let view: &dyn StateRead = &genesis;
        let mut ov = StateOverlay::new(&view);
        ov.credit(a(2), u(h));
        ov.finalize_tx();
        let (tx, _) = ov.into_parts();
        let mut delta = BlockDelta::new();
        delta.merge(&tx, &view);

        let transfer = Transaction::transfer(a(1), a(2), u(h), h - 1);
        hashes.push(transfer.hash());
        server.on_block(CommittedBlock {
            height: h,
            block: Arc::new(Block {
                header: header(h),
                transactions: vec![transfer],
            }),
            receipts: Arc::new(vec![Receipt {
                success: true,
                gas_used: 21_000 + h,
                logs: Vec::new(),
                output: Vec::new(),
                created: None,
            }]),
            state: None,
            delta: Arc::new(delta),
        });
        server.on_root(h, B256::keccak(&h.to_be_bytes()));
    }

    let (lo, hi) = server.retained().expect("window non-empty");
    assert_eq!(hi, 12);
    assert!(lo > 1, "retention 4 must have pruned the early blocks");
    // Pruned block: receipt gone.
    assert_eq!(server.receipt_by_hash(hashes[0]), None);
    // Retained block: height, index and payload all line up.
    let (h, idx, receipt) = server
        .receipt_by_hash(hashes[11])
        .expect("receipt at the head");
    assert_eq!((h, idx), (12, 0));
    assert_eq!(receipt.gas_used, 21_000 + 12);
}

fn make_driver(blocks: usize) -> NodeDriver {
    NodeDriver::new(
        Mempool::new(PoolConfig::default()),
        BlockPacker::new(PackerConfig {
            max_txs: 16,
            ..PackerConfig::default()
        }),
        DriverConfig {
            blocks,
            threads: 4,
            ingest_batch: 64,
            prefill: 256,
            background_ingest: false,
            ..DriverConfig::default()
        },
    )
}

fn make_source(seed: u64) -> Bounded {
    Bounded {
        gen: ZipfGen::new(
            seed,
            ZipfConfig {
                senders: 64,
                hot_ratio: 0.3,
                ..ZipfConfig::default()
            },
        ),
        left: 600,
    }
}

/// End to end against the real pipeline: attach a [`ReadServer`] to a
/// deterministic `NodeDriver::run_flat` session, of small blocks and long
/// enough that the server folds its delta chain, then check everything the
/// server can say — roots, receipts, point reads, `eth_call` simulation,
/// subscription events — against a sequential replay of the very blocks
/// it served.
#[test]
fn driver_run_serves_reads_identical_to_sequential_replay() {
    // The server folds once its chain passes 32 deltas.
    const BLOCKS: usize = 34;
    let source = make_source(0xFEED);
    let genesis = source.gen.genesis_state().clone();
    let server = ReadServer::new(genesis.clone(), ReadServeConfig::default());
    let sub = server.subscribe();

    let dir = std::env::temp_dir().join(format!("mtpu-readserve-flat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(&genesis, 0);
    let flush = FlushService::start(db.clone());
    let report = make_driver(BLOCKS)
        .with_sink(server.clone())
        .run_flat(&genesis, &db, &flush, source, header);
    drop(flush);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.blocks.len(), BLOCKS);
    assert!(
        report.blocks.iter().any(|b| {
            let snap = server.snapshot(Some(b.height)).expect("retained");
            snap.base_height() > 0
        }),
        "the server never folded its delta chain"
    );

    // The subscription saw every block, in order, with the same roots the
    // driver reported.
    let events = sub.drain();
    assert_eq!(events.len(), BLOCKS);
    assert_eq!(sub.dropped(), 0);
    for (ev, summary) in events.iter().zip(&report.blocks) {
        assert_eq!(ev.height, summary.height);
        assert_eq!(ev.merkle_root, summary.merkle_root);
    }

    // Sequential replay of the blocks the server retained.
    let tether = addresses::tether();
    let mut state = genesis;
    for summary in &report.blocks {
        let snap = server.snapshot(Some(summary.height)).expect("retained");
        let receipts = sequential(&mut state, snap.block());
        assert_eq!(&receipts, snap.receipts().as_ref(), "h={}", summary.height);
        assert_eq!(state.merkle_root(), summary.merkle_root);
        assert_eq!(snap.merkle_root(), Some(summary.merkle_root));

        for user in 0..64 {
            let addr = Fixture::user_address(user);
            assert_eq!(
                server.get_balance(Some(summary.height), addr),
                Some((summary.height, state.balance(addr)))
            );
            assert_eq!(
                server.get_nonce(Some(summary.height), addr),
                Some((summary.height, state.nonce(addr)))
            );
        }
        assert_eq!(
            server.get_storage(Some(summary.height), tether, u(0)),
            Some((summary.height, state.storage(tether, u(0))))
        );

        // eth_call simulation: ERC20 balanceOf against the snapshot must
        // equal the same call simulated on the replayed state.
        let call = ReadCall::view(
            Fixture::user_address(0),
            tether,
            call_data("balanceOf(address)", &[Fixture::user_address(1).to_u256()]),
        );
        let (at, got) = server.call(Some(summary.height), &call).expect("retained");
        let want = call_readonly(&state, snap.header(), &call);
        assert_eq!(at, summary.height);
        assert!(got.success && want.success);
        assert_eq!(got.output, want.output);
        assert_eq!(got.gas_used, want.gas_used);
    }

    // Receipt lookup by transaction hash, spot-checked on the last block.
    let last = server.latest().expect("retained");
    let tx = last.block().transactions.first().expect("non-empty block");
    let (h, idx, receipt) = server.receipt_by_hash(tx.hash()).expect("indexed");
    assert_eq!(h, last.height());
    assert_eq!(&receipt, &last.receipts()[idx]);
}
