//! Where a driver session's state lives — the only thing
//! [`NodeDriver::run`](crate::NodeDriver::run) and
//! [`NodeDriver::run_flat`](crate::NodeDriver::run_flat) differ in. The
//! session loop is statically generic over a [`Backend`]: what execution
//! and admission read, and how a block's delta becomes the committed state.

use crate::packer::PackedBlock;
use mtpu_accountsdb::{AccountsDb, FlushService};
use mtpu_evm::overlay::StateRead;
use mtpu_evm::state::State;
use mtpu_evm::BlockDelta;
use mtpu_parexec::TxHints;
use std::sync::{Arc, RwLock};

/// What the session loop asks of wherever state lives.
pub(crate) trait Backend: Sync {
    /// The committed state, as execution and admission read it. Stays at
    /// the pre-block state until [`Backend::absorb`].
    fn reads(&self) -> impl StateRead + Sync + '_;

    /// Per-transaction prefetch hints for the execution stage; empty
    /// unless reads have latency worth hiding.
    fn hints(&self, _packed: &PackedBlock) -> Vec<TxHints> {
        Vec::new()
    }

    /// Makes `delta` (block `height`) the committed state and returns the
    /// materialized post-block state for the sink, if the backend has one.
    fn absorb(&self, delta: &BlockDelta, height: u64) -> Option<Arc<State>>;
}

/// In-memory: the latest committed snapshot, cloned and extended per
/// block, so holders of an older `Arc` are never disturbed.
impl Backend for RwLock<Arc<State>> {
    fn reads(&self) -> impl StateRead + Sync + '_ {
        self.read().expect("snapshot poisoned").clone()
    }

    fn absorb(&self, delta: &BlockDelta, _height: u64) -> Option<Arc<State>> {
        let mut next = State::clone(&self.read().expect("snapshot poisoned"));
        delta.apply_to(&mut next);
        let next = Arc::new(next);
        *self.write().expect("snapshot poisoned") = next.clone();
        Some(next)
    }
}

/// Flat: the store itself is the committed snapshot (absorbed deltas are
/// immediately visible) and mutates in place, so the sink gets the delta
/// only and the read layer anchors snapshots at its own frozen base.
pub(crate) struct FlatBackend<'a> {
    db: &'a AccountsDb,
    flush: &'a FlushService,
    flush_lag: u64,
    prefetch: bool,
}

impl<'a> FlatBackend<'a> {
    pub(crate) fn new(db: &'a Arc<AccountsDb>, flush: &'a FlushService, flush_lag: u64) -> Self {
        let prefetch = mtpu_evm::prefetch_enabled();
        if prefetch {
            db.enable_prefetch();
        }
        FlatBackend {
            db,
            flush,
            flush_lag,
            prefetch,
        }
    }
}

impl Backend for FlatBackend<'_> {
    fn reads(&self) -> impl StateRead + Sync + '_ {
        self.db
    }

    /// The admission-time read sets ride along as hints: the store starts
    /// pulling the block's slots off disk before its first transaction
    /// executes.
    fn hints(&self, packed: &PackedBlock) -> Vec<TxHints> {
        if self.prefetch {
            packed.prefetch_hints()
        } else {
            Vec::new()
        }
    }

    fn absorb(&self, delta: &BlockDelta, height: u64) -> Option<Arc<State>> {
        self.db.absorb(delta, height);
        self.flush
            .request_flush(height.saturating_sub(self.flush_lag));
        None
    }
}
