//! Flat accounts-DB state backend.
//!
//! The MPT in `mtpu-statedb` is authenticated storage: every read walks
//! hashed trie nodes, which is exactly what the paper's co-design wants
//! to take *off* the execution critical path. This crate supplies the
//! other half of the split: a flat, append-only account store in the
//! spirit of Solana's accounts-db, serving execution reads in O(1) while
//! the trie is maintained asynchronously for commitment only.
//!
//! Layers, top to bottom:
//!
//! - [`WriteCache`](cache::WriteCache) — committed block deltas land
//!   here, fully resolved; recent state is served lock-cheap from memory.
//! - [`FlatIndex`](index::FlatIndex) — the newest value of every
//!   account, slot and code blob, with per-account generations making
//!   selfdestruct/recreate O(1); a write-cache miss is one probe here.
//! - storage files ([`file`](mod@file)) — immutable, numbered, append-only record
//!   files produced by each flush: a write-only durability log that only
//!   [`AccountsDb::open`] reads back.
//! - [`FlushService`] — a background thread draining cache → file, off
//!   the block critical path.
//! - snapshot/restore ([`AccountsDb::snapshot`], [`AccountsDb::open`]) —
//!   an atomic MANIFEST names the durable file set; reopening replays
//!   exactly the manifested bytes; [`durable`] plans every file operation.
//!
//! [`AccountsDb`] implements [`StateRead`](mtpu_evm::overlay::StateRead),
//! so the parallel executor can run directly against it; merkle roots and
//! receipts stay bit-identical to the in-memory `State` baseline.

pub mod cache;
pub mod db;
pub mod durable;
pub mod file;
pub mod index;
pub mod obs;
pub mod service;

pub use db::{AccountsDb, DbStats};
pub use service::FlushService;
