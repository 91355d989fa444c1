//! Mempool admission edge cases: nonce gaps and back-fill, replace-by-fee
//! thresholds, budget eviction, and post-commit purge/re-anchoring — the
//! lifecycle states a real pool must get right under churn.

use mtpu_evm::execute_block;
use mtpu_evm::state::State;
use mtpu_evm::tx::{Block, BlockHeader, Transaction};
use mtpu_mempool::{Admitted, BlockPacker, Mempool, PackerConfig, PoolConfig, Rejected};
use mtpu_parexec::ParExecutor;
use mtpu_primitives::{Address, U256};
use mtpu_workloads::{BlockConfig, Generator, ZipfConfig, ZipfGen};

fn genesis(users: u64) -> State {
    let mut st = State::new();
    for u in 0..users {
        st.credit(user(u), U256::from(1_000_000_000u64));
    }
    st.finalize_tx();
    st
}

fn user(i: u64) -> Address {
    Address::from_low_u64(i + 1)
}

/// A transfer from `from` with the given nonce and gas price (recipients
/// are disjoint from senders so only nonces relate the transactions).
fn tx(from: u64, nonce: u64, fee: u64) -> Transaction {
    let mut t = Transaction::transfer(user(from), user(900 + from), U256::ONE, nonce);
    t.gas_price = U256::from(fee);
    t
}

#[test]
fn future_nonce_parks_until_backfilled() {
    let state = genesis(4);
    let pool = Mempool::new(PoolConfig::default());

    // Nonce 2 with the account at 0: parked, not executable.
    assert_eq!(pool.admit(tx(1, 2, 10), &state), Ok(Admitted::Parked));
    assert!(pool.ready_chains().is_empty());
    assert_eq!(pool.stats().parked, 1);

    // Nonce 0 arrives: ready, but the chain still stops at the gap.
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
    let chains = pool.ready_chains();
    assert_eq!(chains.len(), 1);
    assert_eq!(chains[0].txs.len(), 1);

    // Back-filling nonce 1 promotes the parked tail in the same breath.
    assert_eq!(pool.admit(tx(1, 1, 10), &state), Ok(Admitted::Ready));
    let chains = pool.ready_chains();
    assert_eq!(chains[0].txs.len(), 3);
    let nonces: Vec<u64> = chains[0].txs.iter().map(|p| p.tx.nonce).collect();
    assert_eq!(nonces, [0, 1, 2]);
}

#[test]
fn has_ready_sees_only_executable_transactions() {
    let state = genesis(4);
    let pool = Mempool::new(PoolConfig::default());
    assert!(!pool.has_ready(), "empty pool");

    // Only parked transactions: pooled, none executable.
    assert_eq!(pool.admit(tx(1, 2, 10), &state), Ok(Admitted::Parked));
    assert_eq!(pool.admit(tx(2, 1, 10), &state), Ok(Admitted::Parked));
    assert_eq!(pool.len(), 2);
    assert!(!pool.has_ready());

    // Back-filling one sender's gap start makes that chain executable.
    assert_eq!(pool.admit(tx(2, 0, 10), &state), Ok(Admitted::Ready));
    assert!(pool.has_ready());
    assert_eq!(pool.ready_chains().len(), 1);
}

#[test]
fn replace_by_fee_requires_a_real_bump() {
    let state = genesis(2);
    let pool = Mempool::new(PoolConfig {
        rbf_bump_pct: 10,
        ..PoolConfig::default()
    });

    assert_eq!(pool.admit(tx(1, 0, 100), &state), Ok(Admitted::Ready));
    // At or below the 10% bump threshold: underpriced.
    assert_eq!(
        pool.admit(tx(1, 0, 100), &state),
        Err(Rejected::Underpriced)
    );
    assert_eq!(
        pool.admit(tx(1, 0, 105), &state),
        Err(Rejected::Underpriced)
    );
    assert_eq!(
        pool.admit(tx(1, 0, 110), &state),
        Err(Rejected::Underpriced)
    );
    // Above it: replaced in place, no size change.
    assert_eq!(pool.admit(tx(1, 0, 111), &state), Ok(Admitted::Replaced));
    assert_eq!(pool.len(), 1);
    let chains = pool.ready_chains();
    assert_eq!(chains[0].txs[0].tx.gas_price, U256::from(111u64));
    assert_eq!(pool.stats().replaced, 1);
}

#[test]
fn count_budget_evicts_the_lowest_fee_tail() {
    let state = genesis(8);
    let pool = Mempool::new(PoolConfig {
        max_txs: 3,
        ..PoolConfig::default()
    });
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(2, 0, 20), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(3, 0, 30), &state), Ok(Admitted::Ready));

    // Cheaper than every tail: the incoming transaction is the victim.
    assert_eq!(pool.admit(tx(4, 0, 5), &state), Err(Rejected::PoolFull));
    assert_eq!(pool.stats().evicted, 0);
    assert_eq!(pool.len(), 3);

    // Rich enough: the fee-10 tail goes, the newcomer stays.
    assert_eq!(pool.admit(tx(4, 0, 50), &state), Ok(Admitted::Ready));
    assert_eq!(pool.stats().evicted, 1);
    assert_eq!(pool.len(), 3);
    let senders: Vec<Address> = pool.ready_chains().iter().map(|c| c.sender).collect();
    assert_eq!(senders, [user(2), user(3), user(4)]);

    // A cheap extension of a surviving chain cannot displace others.
    assert_eq!(pool.admit(tx(2, 1, 1), &state), Err(Rejected::PoolFull));
}

#[test]
fn replacement_at_a_full_pool_neither_evicts_nor_bounces() {
    let state = genesis(8);
    let pool = Mempool::new(PoolConfig {
        max_txs: 3,
        ..PoolConfig::default()
    });
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(2, 0, 20), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(3, 0, 30), &state), Ok(Admitted::Ready));
    let bytes = pool.pooled_bytes();

    // Replacing the globally cheapest tail: it must not be evicted to
    // make room for its own successor.
    assert_eq!(pool.admit(tx(1, 0, 25), &state), Ok(Admitted::Replaced));
    // Replacing with a fee above an unrelated sender's tail: that tail
    // must stay.
    assert_eq!(pool.admit(tx(3, 0, 40), &state), Ok(Admitted::Replaced));
    // Replacing the now-cheapest entry (fee 20) below every other fee:
    // not `PoolFull` — the count does not grow.
    assert_eq!(pool.admit(tx(2, 0, 23), &state), Ok(Admitted::Replaced));

    assert_eq!(pool.stats().evicted, 0);
    assert_eq!(pool.stats().replaced, 3);
    assert_eq!(pool.len(), 3);
    assert_eq!(pool.pooled_bytes(), bytes);
    let fees: Vec<U256> = pool
        .ready_chains()
        .iter()
        .map(|c| c.txs[0].tx.gas_price)
        .collect();
    assert_eq!(fees, [25u64, 23, 40].map(U256::from));

    // A genuinely new entry still has to displace the cheapest tail.
    assert_eq!(pool.admit(tx(4, 0, 5), &state), Err(Rejected::PoolFull));
}

#[test]
fn byte_budget_evicts_like_the_count_budget() {
    let state = genesis(4);
    let one = tx(1, 0, 10).rlp_encode().len();
    let pool = Mempool::new(PoolConfig {
        max_bytes: 2 * one,
        ..PoolConfig::default()
    });
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(2, 0, 20), &state), Ok(Admitted::Ready));
    assert_eq!(pool.pooled_bytes(), 2 * one);

    // Fees 10..100 RLP-encode to the same length, so the third transfer
    // must displace exactly one pooled transaction — the fee-10 tail.
    assert_eq!(pool.admit(tx(3, 0, 30), &state), Ok(Admitted::Ready));
    assert_eq!(pool.stats().evicted, 1);
    assert_eq!(pool.pooled_bytes(), 2 * one);
    let senders: Vec<Address> = pool.ready_chains().iter().map(|c| c.sender).collect();
    assert_eq!(senders, [user(2), user(3)]);
}

#[test]
fn sender_limit_caps_one_chain() {
    let state = genesis(2);
    let pool = Mempool::new(PoolConfig {
        max_per_sender: 2,
        ..PoolConfig::default()
    });
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(1, 1, 10), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(1, 2, 10), &state), Err(Rejected::SenderLimit));
}

/// A transaction its sender's queue refuses must not evict anyone on its
/// way out: otherwise a sender at its quota, or an underpriced
/// replacement, drains the pool one cheap tail at a time.
#[test]
fn rejected_admission_evicts_nothing() {
    let state = genesis(4);

    // Count budget: sender 1 is at its per-sender limit.
    let pool = Mempool::new(PoolConfig {
        max_txs: 3,
        max_per_sender: 2,
        ..PoolConfig::default()
    });
    assert_eq!(pool.admit(tx(1, 0, 100), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(1, 1, 100), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(2, 0, 5), &state), Ok(Admitted::Ready));
    assert_eq!(
        pool.admit(tx(1, 2, 500), &state),
        Err(Rejected::SenderLimit)
    );
    assert_eq!((pool.len(), pool.stats().evicted), (3, 0));

    // Byte budget: a replacement one byte longer than its predecessor
    // (fee 130 RLP-encodes in two bytes, 120 in one) but under the bump.
    let (old, new) = (tx(1, 0, 120), tx(1, 0, 130));
    assert!(new.rlp_encode().len() > old.rlp_encode().len());
    let pool = Mempool::new(PoolConfig {
        max_bytes: old.rlp_encode().len() + tx(2, 0, 5).rlp_encode().len(),
        ..PoolConfig::default()
    });
    assert_eq!(pool.admit(old, &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(2, 0, 5), &state), Ok(Admitted::Ready));
    let bytes = pool.pooled_bytes();
    assert_eq!(pool.admit(new, &state), Err(Rejected::Underpriced));
    assert_eq!((pool.len(), pool.stats().evicted), (2, 0));
    assert_eq!(pool.pooled_bytes(), bytes);
}

#[test]
fn commit_reanchors_chains_and_rejects_stale_readmission() {
    let state = genesis(4);
    let pool = Mempool::new(PoolConfig::default());
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(1, 1, 10), &state), Ok(Admitted::Ready));
    assert_eq!(pool.admit(tx(1, 3, 10), &state), Ok(Admitted::Parked));
    assert_eq!(pool.admit(tx(2, 0, 10), &state), Ok(Admitted::Ready));

    // Pack and execute: the ready prefix goes in, the parked tail stays.
    let packer = BlockPacker::new(PackerConfig::default());
    let packed = packer.pack(&pool, BlockHeader::default());
    assert_eq!(packed.block.transactions.len(), 3);
    let result = ParExecutor::new(2).execute_block_delta_with_dag_hints(
        &state,
        &packed.block,
        &packed.graph,
        &[],
    );
    assert!(result.receipts.iter().all(|r| r.success));
    let mut committed = state.clone();
    result.delta.apply_to(&mut committed);

    pool.observe_committed(&committed);
    // The gap at nonce 2 still blocks the parked nonce 3.
    assert!(pool.ready_chains().is_empty());
    assert_eq!(pool.len(), 1);

    // Back-fill against the *new* committed state: both become ready.
    assert_eq!(pool.admit(tx(1, 2, 10), &committed), Ok(Admitted::Ready));
    let chains = pool.ready_chains();
    assert_eq!(chains.len(), 1);
    let nonces: Vec<u64> = chains[0].txs.iter().map(|p| p.tx.nonce).collect();
    assert_eq!(nonces, [2, 3]);

    // Consumed nonces can never re-enter.
    assert_eq!(
        pool.admit(tx(1, 0, 10), &committed),
        Err(Rejected::StaleNonce)
    );
}

#[test]
fn parked_ttl_expires_dead_sender_gaps() {
    let state = genesis(4);
    let pool = Mempool::new(PoolConfig {
        parked_ttl: 3,
        ..PoolConfig::default()
    });
    // Sender 1 dies with a gap open: nonce 0 never arrives, 1 and 2 park.
    assert_eq!(pool.admit(tx(1, 1, 10), &state), Ok(Admitted::Parked));
    assert_eq!(pool.admit(tx(1, 2, 10), &state), Ok(Admitted::Parked));
    // Sender 2 is alive and ready; its chain must never expire.
    assert_eq!(pool.admit(tx(2, 0, 10), &state), Ok(Admitted::Ready));
    let bytes_before = pool.pooled_bytes();
    assert!(bytes_before > 0);

    // Blocks commit without ever back-filling the gap.
    for _ in 0..2 {
        pool.observe_committed(&state);
    }
    assert_eq!(pool.len(), 3, "still under the TTL");
    assert_eq!(pool.stats().expired, 0);

    pool.observe_committed(&state); // third epoch: the gap ages out
    assert_eq!(pool.stats().expired, 2);
    assert_eq!(pool.len(), 1, "only the ready chain survives");
    let chains = pool.ready_chains();
    assert_eq!(chains.len(), 1);
    assert_eq!(chains[0].sender, user(2));
    assert!(pool.pooled_bytes() < bytes_before, "bytes were released");

    // The sender is not banned: a fresh, complete chain re-admits fine.
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
}

#[test]
fn backfilled_chains_do_not_expire() {
    let state = genesis(2);
    let pool = Mempool::new(PoolConfig {
        parked_ttl: 2,
        ..PoolConfig::default()
    });
    assert_eq!(pool.admit(tx(1, 1, 10), &state), Ok(Admitted::Parked));
    pool.observe_committed(&state);
    // Back-fill before the TTL hits: the whole chain is ready and immune.
    assert_eq!(pool.admit(tx(1, 0, 10), &state), Ok(Admitted::Ready));
    for _ in 0..5 {
        pool.observe_committed(&state);
    }
    assert_eq!(pool.stats().expired, 0);
    assert_eq!(pool.len(), 2);
}

#[test]
fn stale_parked_transactions_purge_immediately_not_via_ttl() {
    let state = genesis(4);
    // A TTL far beyond the test horizon: if stale parked entries were
    // left to age out, they would visibly survive here.
    let pool = Mempool::new(PoolConfig {
        parked_ttl: 1_000,
        ..PoolConfig::default()
    });
    // Sender 1 parks nonces 3 and 5 behind a gap (account nonce is 0).
    assert_eq!(pool.admit(tx(1, 3, 10), &state), Ok(Admitted::Parked));
    assert_eq!(pool.admit(tx(1, 5, 10), &state), Ok(Admitted::Parked));
    assert!(pool.ready_chains().is_empty());

    // Another node's block advances the sender's committed nonce past the
    // parked entries: nonces 0..=4 are consumed externally.
    let mut committed = state.clone();
    execute_block(
        &mut committed,
        &Block {
            header: BlockHeader::default(),
            transactions: (0..5).map(|n| tx(1, n, 99)).collect(),
        },
    );
    pool.observe_committed(&committed);

    // The parked nonce 3 is below the committed nonce: purged *now*, as
    // stale — not expired, and not squatting until the TTL fires.
    assert_eq!(pool.stats().stale_purged, 1);
    assert_eq!(pool.stats().expired, 0);
    // Nonce 5 sits exactly at the committed nonce: it became ready.
    assert_eq!(pool.len(), 1);
    let chains = pool.ready_chains();
    assert_eq!(chains.len(), 1);
    assert_eq!(chains[0].txs[0].tx.nonce, 5);
}

#[test]
fn external_block_purges_stale_pooled_transactions() {
    let state = genesis(2);
    let pool = Mempool::new(PoolConfig::default());
    for n in 0..3 {
        assert_eq!(pool.admit(tx(1, n, 10), &state), Ok(Admitted::Ready));
    }

    // Another node's block consumes nonces 0 and 1 with different
    // transactions; the pooled copies are now stale.
    let mut committed = state.clone();
    execute_block(
        &mut committed,
        &Block {
            header: BlockHeader::default(),
            transactions: vec![tx(1, 0, 99), tx(1, 1, 99)],
        },
    );
    pool.observe_committed(&committed);

    assert_eq!(pool.stats().stale_purged, 2);
    assert_eq!(pool.len(), 1);
    let chains = pool.ready_chains();
    assert_eq!(chains[0].txs[0].tx.nonce, 2);
}

/// The pool charges each transaction its encoded size through
/// `rlp_len`, which must equal the encoding's length on every stream the
/// benchmarks admit: the Zipf default, a contended Zipf stream and the
/// paper's block generator.
#[test]
fn rlp_len_matches_the_encoding_over_generator_streams() {
    let contended = ZipfConfig {
        theta: 1.3,
        hot_ratio: 0.8,
        hot_slots: 1,
        sct_ratio: 0.95,
        ..ZipfConfig::default()
    };
    let mut txs = Vec::new();
    for (seed, cfg) in [(1, ZipfConfig::default()), (2, contended)] {
        let mut gen = ZipfGen::new(seed, cfg);
        txs.extend((0..2_000).map(|_| gen.next_tx()));
    }
    let mut gen = Generator::new(3);
    for _ in 0..4 {
        txs.extend(gen.block(&BlockConfig::default()).transactions);
    }
    for tx in &txs {
        assert_eq!(tx.rlp_len(), tx.rlp_encode().len(), "{tx:?}");
    }
}
