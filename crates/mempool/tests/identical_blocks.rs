//! The pool→block hand-off may change how entries are stored and shared,
//! never which blocks come out: for a fixed admitted stream the packed
//! blocks are pinned by a digest recorded before the hand-off was
//! reworked, and a snapshot keeps the entries it was taken with.

use mtpu_evm::execute_block;
use mtpu_evm::tx::BlockHeader;
use mtpu_mempool::{Admitted, BlockPacker, Mempool, PackedBlock, PackerConfig, PoolConfig};
use mtpu_primitives::{B256, U256};
use mtpu_workloads::{ZipfConfig, ZipfGen};

const BLOCKS: u64 = 20;
const BLOCK_TXS: usize = 128;
const PREFILL: usize = 2048;

/// Everything the execution stage is handed for one block: transaction
/// hashes in packed order, the phase-1 counters and the sorted DAG edges.
fn absorb_block(buf: &mut Vec<u8>, packed: &PackedBlock) {
    let txs = &packed.block.transactions;
    buf.extend_from_slice(&(txs.len() as u64).to_le_bytes());
    for tx in txs {
        buf.extend_from_slice(tx.hash().as_bytes());
    }
    buf.extend_from_slice(&(packed.independent as u64).to_le_bytes());
    buf.extend_from_slice(&(packed.conflict_skips as u64).to_le_bytes());
    let mut edges: Vec<(u32, u32)> = (0..txs.len())
        .flat_map(|child| {
            let parents = packed.graph.parents(child);
            parents.iter().map(move |&parent| (parent, child as u32))
        })
        .collect();
    edges.sort_unstable();
    buf.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for (parent, child) in edges {
        buf.extend_from_slice(&parent.to_le_bytes());
        buf.extend_from_slice(&child.to_le_bytes());
    }
}

/// The spine's staged order over an in-memory `State`: prefill, then per
/// block pack → execute → observe → admit one block's worth.
fn session_digest(seed: u64, zipf: ZipfConfig) -> String {
    let mut gen = ZipfGen::new(seed, zipf);
    let mut state = gen.genesis_state().clone();
    let pool = Mempool::new(PoolConfig {
        max_per_sender: 8192,
        ..PoolConfig::default()
    });
    let packer = BlockPacker::new(PackerConfig {
        max_txs: BLOCK_TXS,
        gas_limit: 256_000_000,
        ..PackerConfig::default()
    });
    for _ in 0..PREFILL {
        let _ = pool.admit(gen.next_tx(), &state);
    }
    let mut buf = Vec::new();
    for height in 1..=BLOCKS {
        let header = BlockHeader {
            height,
            ..Default::default()
        };
        let packed = packer.pack(&pool, header);
        assert_eq!(packed.block.transactions.len(), BLOCK_TXS);
        absorb_block(&mut buf, &packed);
        execute_block(&mut state, &packed.block);
        pool.observe_committed(&state);
        for _ in 0..BLOCK_TXS {
            let _ = pool.admit(gen.next_tx(), &state);
        }
    }
    B256::keccak(&buf).to_string()
}

#[test]
fn hot_stream_packs_the_recorded_blocks() {
    let digest = session_digest(1, ZipfConfig::default());
    assert_eq!(
        digest,
        "0x476683e2fb1a8062296aad38d9a7e7e2614a6af8fa49efc7610c466e3e371795"
    );
}

#[test]
fn contended_stream_packs_the_recorded_blocks() {
    let contended = ZipfConfig {
        theta: 1.3,
        hot_ratio: 0.8,
        hot_slots: 1,
        sct_ratio: 0.95,
        ..ZipfConfig::default()
    };
    let digest = session_digest(1, contended);
    assert_eq!(
        digest,
        "0x370bc123c04019b5356cc8407681bb688ae836b21c6c42036e95851143b08b7a"
    );
}

/// A snapshot shares the pool's entries; it must still be a snapshot: a
/// replace-by-fee or a removal afterwards files or drops entries in the
/// pool and leaves the chain as it was taken.
#[test]
fn snapshot_survives_replacement_and_removal() {
    let mut gen = ZipfGen::new(3, ZipfConfig::default());
    let state = gen.genesis_state().clone();
    let pool = Mempool::new(PoolConfig::default());
    let old = gen.next_tx();
    assert_eq!(pool.admit(old.clone(), &state), Ok(Admitted::Ready));

    let snapshot = pool.ready_chains();
    let mut bumped = old.clone();
    bumped.gas_price = old.gas_price * U256::from(2u64);
    assert_eq!(pool.admit(bumped.clone(), &state), Ok(Admitted::Replaced));

    assert_eq!(snapshot[0].txs[0].tx, old);
    assert_eq!(pool.ready_chains()[0].txs[0].tx, bumped);

    let latest = pool.ready_chains();
    assert!(pool.remove(bumped.from, bumped.nonce).is_some());
    assert!(pool.is_empty());
    assert_eq!(latest[0].txs[0].tx, bumped);
    // Packing the stale snapshot still yields the old transaction.
    let packed = BlockPacker::default().pack_chains(snapshot, BlockHeader::default());
    assert_eq!(packed.block.transactions, [old]);
}
