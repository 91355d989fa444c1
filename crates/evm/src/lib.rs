//! A from-scratch functional EVM: the execution substrate of the MTPU
//! reproduction.
//!
//! The instruction set is exactly the paper's Table 3 (Istanbul-era
//! Ethereum), with full gas accounting, a journaled world state, the CALL
//! family, and optional execution-trace recording that drives the
//! cycle-level accelerator model in the `mtpu` crate.
//!
//! # Quick example
//!
//! ```
//! use mtpu_evm::executor::execute_transaction;
//! use mtpu_evm::state::State;
//! use mtpu_evm::trace::NoopTracer;
//! use mtpu_evm::tx::{BlockHeader, Transaction};
//! use mtpu_primitives::{Address, U256};
//!
//! let from = Address::from_low_u64(1);
//! let to = Address::from_low_u64(2);
//! let mut state = State::new();
//! state.credit(from, U256::from(10_000_000u64));
//! state.finalize_tx();
//!
//! let tx = Transaction::transfer(from, to, U256::from(99u64), 0);
//! let receipt =
//!     execute_transaction(&mut state, &BlockHeader::default(), &tx, &mut NoopTracer)?;
//! assert!(receipt.success);
//! assert_eq!(state.balance(to), U256::from(99u64));
//! # Ok::<(), mtpu_evm::executor::TxError>(())
//! ```

pub mod analysis;
pub mod commit;
pub mod config;
pub mod executor;
pub mod fusion;
pub mod gas;
pub mod interpreter;
pub mod memory;
pub mod obs;
pub mod opcode;
pub mod overlay;
pub mod stack;
pub mod state;
pub mod trace;
pub mod tx;

pub use analysis::{AnalysisCache, CacheStats, CodeAnalysis};
pub use commit::{
    apply_updates, commit_block_delta, commit_full, delta_merkle_root, delta_updates,
    AsyncCommitter, CommitError, CommitHandle,
};
pub use config::{fusion_enabled, prefetch_enabled, set_fusion_enabled};
pub use executor::{
    admission_preflight, call_readonly, execute_block, execute_transaction, max_tx_cost,
    trace_transaction, ReadCall, ReadCallOutcome, TxError,
};
pub use fusion::{FusedKind, FusedSpec, FusedTable, SelectorArm};
pub use interpreter::{CallParams, Evm, FrameResult, Halt, VmError};
pub use opcode::{OpCategory, Opcode};
pub use overlay::{
    AccountDelta, BlockDelta, OverlayedView, ReadLog, ReadSet, StaleRead, StateOverlay, StateRead,
    TxDelta, Unrecorded,
};
pub use state::{Account, State, StateOps};
pub use trace::{CallKind, FrameInfo, NoopTracer, TraceRecorder, Tracer, TxTrace};
pub use tx::{Block, BlockHeader, Log, Receipt, Transaction};
