//! The store's append order is a pure function of the chain, at the byte
//! level: two committers built in one process must hand the node store
//! the same nodes in the same order when they commit the same chain.
//! Every `FastMap` draws its own hash seed, so the two committers'
//! maps iterate in different orders; equal logs show the order comes
//! from first touch and address-sorted updates (DESIGN.md §10), not from
//! a map. A digest pins the appended bytes themselves.

use mtpu_repro::evm::{commit_block_delta, commit_full};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::primitives::map::FastSet;
use mtpu_repro::primitives::B256;
use mtpu_repro::statedb::{MemStore, NodeStore, StateCommitter};
use mtpu_repro::workloads::{BlockConfig, Generator};

/// A [`MemStore`] that also appends each node the first time it sees
/// it to a log as `[u32 BE length][raw node bytes]`: the byte stream an
/// append-only node archive would write. First appearance is tracked
/// here, not read off the store, which frees superseded nodes.
#[derive(Debug, Default)]
struct AppendLog {
    nodes: MemStore,
    seen: FastSet<B256>,
    log: Vec<u8>,
}

impl NodeStore for AppendLog {
    fn get(&self, hash: &B256) -> Option<&[u8]> {
        self.nodes.get(hash)
    }

    fn put(&mut self, hash: B256, raw: Vec<u8>) -> bool {
        if self.seen.insert(hash) {
            self.log
                .extend_from_slice(&(raw.len() as u32).to_be_bytes());
            self.log.extend_from_slice(&raw);
        }
        self.nodes.put(hash, raw)
    }

    fn retain(&mut self, hash: &B256) {
        self.nodes.retain(hash);
    }

    fn release(&mut self, hash: &B256) -> Option<Vec<u8>> {
        self.nodes.release(hash)
    }
}

#[test]
fn store_append_order_is_a_function_of_the_chain() {
    let executor = ParExecutor::new(4);
    let mut generator = Generator::new(0xBA7C);
    let genesis = generator.fx.state.clone();
    let config = BlockConfig {
        tx_count: 48,
        dependent_ratio: 0.3,
        erc20_ratio: None,
        sct_ratio: 0.9,
        chain_bias: 0.6,
        focus: None,
    };

    // Execute the chain once; replay the same (base, delta) steps into
    // every store so the inputs are identical.
    let mut steps = Vec::new();
    let mut state = genesis.clone();
    for _ in 0..3 {
        let block = generator.block(&config);
        let result = executor.execute_block(&state, &block);
        steps.push((state.clone(), result.delta.clone()));
        state = result.state;
        generator.fx.state = state.clone();
    }

    let run = || -> (Vec<u8>, B256) {
        let mut committer = StateCommitter::new(AppendLog::default());
        commit_full(&mut committer, &genesis);
        let mut head = B256::ZERO;
        for (base, delta) in &steps {
            head = commit_block_delta(&mut committer, base, delta);
        }
        (committer.store().log.clone(), head)
    };

    let (log1, head1) = run();
    let (log2, head2) = run();
    assert_eq!(head1, head2, "two committers reached different heads");
    assert_eq!(head1, state.merkle_root());
    assert!(!log1.is_empty());
    assert_eq!(log1, log2, "the store append order followed a map's seed");
    // Parity alone would pass a codec that changed both logs alike; the
    // digest pins the appended bytes themselves. (Genesis and blocks both
    // commit accounts in address order, so the log is a pure function of
    // the chain.)
    assert_eq!(
        B256::keccak(&log1).to_string(),
        "0x01624543afe0ae7f285527938daddcc557048eb77447dfbb10d02bca950151ad",
        "appended node bytes changed"
    );
}
