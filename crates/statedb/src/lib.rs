//! Authenticated state commitment for the MTPU reproduction: an
//! Ethereum-style Merkle Patricia Trie with incremental roots, over a
//! hash-addressed store of encoded nodes.
//!
//! The paper's execution pipeline validates blocks against a
//! *commitment* to post-state; this crate supplies that commitment as
//! the canonical secure MPT so a single 32-byte root authenticates every
//! account and storage slot. The layers, bottom-up:
//!
//! * [`nibbles`] — hex-prefix path encoding (yellow paper appendix C);
//! * [`Node`]/[`Link`] — the three node kinds and their direct RLP codec
//!   (one exactly-sized buffer out, borrowed slices in), with sub-32-byte
//!   children inlined in their parent;
//! * [`NodeStore`] — hash-addressed node storage, [`MemStore`] in
//!   process. The trie is derived, not archived: the durable checkpoint
//!   is the flat accounts store's MANIFEST, and a restart rebuilds the
//!   trie from it with [`StateCommitter::bulk_load`]. Every node counts
//!   the hash links to it, so the store holds exactly the live trie.
//!   Its encodings are the only copy of a committed node: there is no
//!   decoded-node cache, and every hash link resolves by decoding them;
//! * [`Trie`] over a [`NodeDb`] — get/insert/remove plus **incremental**
//!   [`Trie::commit`]: between commits the root is a hash link, mutations
//!   splice in-memory nodes along touched paths only, and commit
//!   re-hashes exactly those dirty paths ([`TrieStats`] counts the work);
//!   [`Trie::build_sorted`] builds a whole trie bottom-up from sorted
//!   secure keys, sinking the same nodes in the same order;
//! * [`StateCommitter`] — the secure account/storage layout
//!   (`keccak(address)` keys, `rlp([nonce, balance, storage_root,
//!   code_hash])` leaves, per-account storage tries), built incrementally
//!   or, for a whole state, in one pass ([`StateCommitter::bulk_load`]).
//!   Every commit runs on the calling thread, in first-touch order, so
//!   the store's append order is a pure function of the updates.
//!
//! Telemetry: when the global `mtpu-telemetry` registry is enabled the
//! trie mirrors its work counters as `statedb.*` metrics; disabled, each
//! site costs one relaxed atomic load, per the workspace contract.

pub mod committer;
pub mod nibbles;
pub mod node;
pub mod obs;
pub mod store;
pub mod trie;

pub use committer::{AccountRecord, AccountUpdate, StateCommitter};
pub use node::{Link, Node, NodeError};
pub use store::{MemStore, NodeStore};
pub use trie::{empty_root, NodeDb, NodeSink, Trie, TrieStats};
