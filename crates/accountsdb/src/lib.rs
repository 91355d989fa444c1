//! Flat accounts-DB state backend.
//!
//! The MPT in `mtpu-statedb` is authenticated storage: every read walks
//! hashed trie nodes, which is exactly what the paper's co-design wants
//! to take *off* the execution critical path. This crate supplies the
//! other half of the split: a flat, append-only account store in the
//! spirit of Solana's accounts-db, serving execution reads in O(1) while
//! the trie is maintained asynchronously for commitment only.
//!
//! Parts, in the order a committed block moves through them:
//!
//! - [`FlatIndex`](index::FlatIndex) — the newest value of every
//!   account, slot and code blob, with per-account generations making
//!   selfdestruct/recreate O(1). Absorb writes each block delta into it,
//!   and every execution read is one probe here.
//! - the flush queue — the accounts absorbed since their last flush: the
//!   height that last wrote each, a reset flag, the slot keys owed and
//!   whether new code came in. It holds no values, and no read looks at
//!   it.
//! - storage files ([`file`](mod@file)) — immutable, numbered, append-only record
//!   files produced by each flush, its values read from the index: a
//!   write-only durability log that only [`AccountsDb::open`] reads back.
//! - [`FlushService`] — a background thread draining the queue into
//!   files, off the block critical path.
//! - snapshot/restore ([`AccountsDb::snapshot`], [`AccountsDb::open`]) —
//!   an atomic MANIFEST names the durable file set; reopening replays
//!   exactly the manifested bytes; [`durable`] plans every file operation.
//!
//! [`AccountsDb`] implements [`StateRead`](mtpu_evm::overlay::StateRead),
//! so the parallel executor can run directly against it; merkle roots and
//! receipts stay bit-identical to the in-memory `State` baseline.

pub mod db;
pub mod durable;
pub mod file;
pub mod index;
pub mod obs;
mod queue;
pub mod service;

pub use db::{AccountsDb, DbStats};
pub use service::FlushService;
