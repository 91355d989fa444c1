//! The Merkle Patricia Trie proper: get/insert/remove over a
//! [`NodeDb`], with **incremental** root commitment, plus a one-pass
//! bottom-up build over sorted secure keys ([`Trie::build_sorted`]).
//!
//! A [`Trie`] holds its root as a [`Link`]: after [`Trie::commit`] the
//! root is a hash reference into the store; mutations splice fresh
//! in-memory nodes along the touched path only, leaving every untouched
//! subtree as a hash link. The next commit therefore re-encodes and
//! re-hashes exactly the dirty paths — O(dirty · depth) instead of
//! O(state) — which is the property the per-instance [`TrieStats`]
//! counters (and the mirrored `statedb.*` telemetry) let callers assert.
//!
//! Every hash link is counted in the store (see [`crate::store`]): a
//! mutation takes the link to each node on its path
//! ([`NodeDb`]'s `take_node`), so the version it supersedes leaves the
//! store at once unless another link still shares it, and a commit's
//! puts add the links of the nodes it writes.

use crate::cache::NodeCache;
use crate::nibbles::{common_prefix, to_nibbles};
use crate::node::{Link, Node};
use crate::store::NodeStore;
use mtpu_primitives::B256;
use std::sync::{Arc, OnceLock};

/// Most released encodings a [`NodeDb`] keeps as spares. A mutation
/// releases the node it supersedes and the next commit encodes its
/// successor, most often of the same length (a branch whose child hash
/// changed, an account leaf whose fields changed), so encoding into the
/// spare skips a cold `free` and a `malloc` per node. At about 500
/// bytes a buffer this bounds the spares to a few MiB.
const SPARE_BUFFERS: usize = 4096;

/// Longest encoding kept as a spare: a branch of sixteen hash links is
/// 532 bytes.
const SPARE_MAX_LEN: usize = 1024;

/// Root hash of the empty trie: `keccak(rlp(""))`.
pub fn empty_root() -> B256 {
    static ROOT: OnceLock<B256> = OnceLock::new();
    // rlp("") is the single byte 0x80.
    *ROOT.get_or_init(|| B256::keccak(&[0x80]))
}

/// Lifetime work counters of one [`NodeDb`] (never gated on telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieStats {
    /// Nodes keccak-hashed (and stored) by commits — the incremental
    /// commit's work metric.
    pub nodes_hashed: u64,
    /// Nodes decoded from the backing store (cache misses that hit disk
    /// or the in-memory map).
    pub nodes_loaded: u64,
    /// Node-cache hits.
    pub cache_hits: u64,
    /// Node-cache misses.
    pub cache_misses: u64,
    /// Node-cache evictions.
    pub cache_evictions: u64,
    /// Root commits performed.
    pub commits: u64,
    /// Nodes removed from the store because their last link was dropped
    /// (by a mutation superseding them or by [`Trie::release`]).
    pub nodes_released: u64,
}

/// Receives the nodes a commit or a full build hashes, in bottom-up
/// traversal order.
///
/// [`NodeDb`] sinks straight into its store; a test can substitute a
/// recorder to see every hashed node. The order in which nodes reach a
/// sink is a pure function of the trie contents (bottom-up, children
/// before parents, branch children in nibble order), which lets
/// [`Trie::build_sorted`] reproduce a commit's sink sequence.
pub trait NodeSink {
    /// Accepts one freshly encoded and hashed node, moved out of the
    /// trie it was committed from (its link is now [`Link::Hash`]) or
    /// just built.
    fn sink_node(&mut self, hash: B256, raw: Vec<u8>, node: Node);

    /// Encodes `node` for [`NodeSink::sink_node`]. [`NodeDb`] encodes into
    /// a spare buffer, released by an earlier mutation, when it holds one
    /// of the right length.
    fn encode(&mut self, node: &Node) -> Vec<u8> {
        node.encode()
    }
}

/// A node store wrapped with the decoded-node cache and work counters;
/// shared by every trie (account trie and per-account storage tries)
/// committing into the same backend.
#[derive(Debug)]
pub struct NodeDb<S: NodeStore> {
    store: S,
    cache: NodeCache,
    nodes_hashed: u64,
    nodes_loaded: u64,
    nodes_released: u64,
    commits: u64,
    /// Released encodings by length, for [`NodeSink::encode`].
    spares: Vec<Vec<Vec<u8>>>,
    spare_count: usize,
}

impl<S: NodeStore> NodeDb<S> {
    /// Wraps `store` with the default-capacity cache.
    pub fn new(store: S) -> Self {
        NodeDb {
            store,
            cache: NodeCache::default(),
            nodes_hashed: 0,
            nodes_loaded: 0,
            nodes_released: 0,
            commits: 0,
            spares: Vec::new(),
            spare_count: 0,
        }
    }

    /// Borrows the backing store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Work-counter snapshot (cache counters folded in).
    pub fn stats(&self) -> TrieStats {
        let (cache_hits, cache_misses, cache_evictions) = self.cache.counters();
        TrieStats {
            nodes_hashed: self.nodes_hashed,
            nodes_loaded: self.nodes_loaded,
            cache_hits,
            cache_misses,
            cache_evictions,
            commits: self.commits,
            nodes_released: self.nodes_released,
        }
    }

    /// Decodes a node from the backing store.
    fn load_node(&mut self, hash: B256) -> Node {
        let raw = self
            .store
            .get(&hash)
            .unwrap_or_else(|| panic!("missing trie node {hash}"));
        let node = Node::decode(raw).expect("stored trie node decodes");
        self.count_loaded();
        node
    }

    fn count_loaded(&mut self) {
        self.nodes_loaded += 1;
        if mtpu_telemetry::enabled() {
            crate::obs::metrics().nodes_loaded.inc();
        }
    }

    fn count_released(&mut self) {
        self.nodes_released += 1;
        if mtpu_telemetry::enabled() {
            crate::obs::metrics().nodes_released.inc();
        }
    }

    /// A committed node for a read walk, shared with the cache (and
    /// cached on a miss).
    fn read_node(&mut self, hash: B256) -> Arc<Node> {
        if let Some(n) = self.cache.get(&hash) {
            return n;
        }
        let node = Arc::new(self.load_node(hash));
        self.cache.put(hash, Arc::clone(&node));
        node
    }

    /// The node behind `link`, owned for mutation, together with the
    /// links it holds. A committed node is taken out of the cache (or
    /// decoded, and not cached, on a miss): the mutation supersedes it,
    /// and its successor enters the cache when it commits. `link` was
    /// one link to the node: if it was the last, the node leaves the
    /// store and its child links move into the copy; if the node is
    /// shared, it stays stored and the copy retains its own child links.
    fn take_node(&mut self, link: Link) -> Node {
        let hash = match link {
            Link::Node(boxed) => return *boxed,
            Link::Hash(h) => h,
        };
        let cached = self.cache.take(&hash);
        match self.store.release(&hash) {
            Some(raw) => {
                self.count_released();
                let node = cached.unwrap_or_else(|| {
                    self.count_loaded();
                    Node::decode(&raw).expect("stored trie node decodes")
                });
                self.keep_spare(raw);
                node
            }
            None => {
                let node = cached.unwrap_or_else(|| self.load_node(hash));
                for_each_hash_link(&node, &mut |child| self.store.retain(&child));
                node
            }
        }
    }

    /// Drops one link to the stored node `hash`. When it was the last,
    /// the node leaves the store and the cache, and the links it held
    /// are released in turn.
    fn release(&mut self, hash: B256) {
        let Some(raw) = self.store.release(&hash) else {
            return;
        };
        self.count_released();
        self.cache.remove(&hash);
        let node = Node::decode(&raw).expect("stored trie node decodes");
        self.keep_spare(raw);
        for_each_hash_link(&node, &mut |child| self.release(child));
    }

    /// Keeps a released encoding for a later [`NodeSink::encode`], up to
    /// [`SPARE_BUFFERS`] of them.
    fn keep_spare(&mut self, raw: Vec<u8>) {
        let len = raw.len();
        if len > SPARE_MAX_LEN || self.spare_count == SPARE_BUFFERS {
            return;
        }
        if self.spares.len() <= len {
            self.spares.resize_with(len + 1, Vec::new);
        }
        self.spares[len].push(raw);
        self.spare_count += 1;
    }

    /// Counts one root commit whose nodes were hashed since the
    /// `nodes_hashed` reading `hashed_before`.
    pub(crate) fn count_commit(&mut self, hashed_before: u64) {
        self.commits += 1;
        if mtpu_telemetry::enabled() {
            let m = crate::obs::metrics();
            m.commits.inc();
            m.commit_nodes.record(self.nodes_hashed - hashed_before);
        }
    }
}

impl<S: NodeStore> NodeSink for NodeDb<S> {
    /// Adds the link to a freshly hashed node: stores it (or counts one
    /// more link to the stored copy) and moves it into the cache.
    fn sink_node(&mut self, hash: B256, raw: Vec<u8>, node: Node) {
        self.nodes_hashed += 1;
        if !self.store.put(hash, raw) {
            // The stored copy already holds this node's child links.
            for_each_hash_link(&node, &mut |child| self.release(child));
        }
        self.cache.put(hash, Arc::new(node));
        if mtpu_telemetry::enabled() {
            let m = crate::obs::metrics();
            m.nodes_hashed.inc();
            m.nodes_stored.inc();
        }
    }

    fn encode(&mut self, node: &Node) -> Vec<u8> {
        let spare = self.spares.get_mut(node.encoded_len()).and_then(Vec::pop);
        let Some(mut buf) = spare else {
            return node.encode();
        };
        self.spare_count -= 1;
        buf.clear();
        node.encode_into(&mut buf);
        buf
    }
}

/// A Merkle Patricia Trie rooted at one link.
///
/// Keys are raw byte strings (callers wanting the *secure* trie hash
/// them first, as [`crate::committer::StateCommitter`] does); values are
/// non-empty byte strings — inserting an empty value removes the key,
/// matching canonical Ethereum semantics.
///
/// ```
/// use mtpu_statedb::{MemStore, NodeDb, Trie};
///
/// let mut db = NodeDb::new(MemStore::new());
/// let mut trie = Trie::empty();
/// trie.insert(&mut db, b"dog", b"puppy");
/// assert_eq!(trie.get(&mut db, b"dog"), Some(b"puppy".to_vec()));
/// let root = trie.commit(&mut db);
///
/// // Reopen from the root hash alone.
/// let reopened = Trie::from_root(root);
/// assert_eq!(reopened.get(&mut db, b"dog"), Some(b"puppy".to_vec()));
/// ```
#[derive(Debug, Default)]
pub struct Trie {
    root: Option<Link>,
}

impl Trie {
    /// The empty trie.
    pub fn empty() -> Trie {
        Trie { root: None }
    }

    /// A trie rooted at a previously committed hash. The handle does not
    /// add a link: it reads, or it takes over a link someone else held
    /// (an account leaf's storage root, handed to its open storage trie).
    pub fn from_root(root: B256) -> Trie {
        if root == empty_root() {
            Trie::empty()
        } else {
            Trie {
                root: Some(Link::Hash(root)),
            }
        }
    }

    /// `true` when the trie holds no keys.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// `true` when uncommitted mutations are pending.
    pub fn is_dirty(&self) -> bool {
        matches!(self.root, Some(Link::Node(_)))
    }

    /// Drops the links this trie holds — its root handle, or while dirty
    /// the hash links of its in-memory nodes — for a trie being
    /// discarded. Nodes no other link reaches leave the store.
    pub fn release<S: NodeStore>(self, db: &mut NodeDb<S>) {
        match self.root {
            None => {}
            Some(Link::Hash(h)) => db.release(h),
            Some(Link::Node(node)) => for_each_hash_link(&node, &mut |child| db.release(child)),
        }
    }

    /// Looks up `key`.
    pub fn get<S: NodeStore>(&self, db: &mut NodeDb<S>, key: &[u8]) -> Option<Vec<u8>> {
        let root = self.root.as_ref()?;
        get_at(db, root, &to_nibbles(key))
    }

    /// Inserts `key` → `value`. An empty `value` removes the key.
    pub fn insert<S: NodeStore>(&mut self, db: &mut NodeDb<S>, key: &[u8], value: &[u8]) {
        if value.is_empty() {
            self.remove(db, key);
            return;
        }
        let root = self.root.take();
        self.root = Some(insert_at(db, root, &to_nibbles(key), value.to_vec()));
    }

    /// Removes `key` if present.
    pub fn remove<S: NodeStore>(&mut self, db: &mut NodeDb<S>, key: &[u8]) {
        // The removal rebuild assumes the key exists (it simplifies the
        // branch-collapse logic); a cheap pre-check keeps absent keys
        // from dirtying clean paths at all.
        if self.get(db, key).is_none() {
            return;
        }
        let root = self.root.take().expect("get() found the key");
        self.root = remove_at(db, root, &to_nibbles(key));
    }

    /// Hashes every dirty path, writes the affected nodes to the store,
    /// and returns the new root hash. Clean tries return their root
    /// without touching the store.
    pub fn commit<S: NodeStore>(&mut self, db: &mut NodeDb<S>) -> B256 {
        let hashed_before = db.nodes_hashed;
        let root = self.commit_into(db);
        db.count_commit(hashed_before);
        root
    }

    /// The commit core: hashes every dirty path into an arbitrary
    /// [`NodeSink`] and returns the root hash.
    ///
    /// Committing a dirty trie never *reads* the store — mutations only
    /// ever splice in-memory [`Link::Node`]s, and everything below a
    /// [`Link::Hash`] is already committed — so the sink needs no store
    /// behind it. Unlike [`Trie::commit`] this does not bump the commits
    /// counter or record telemetry; wrappers do.
    pub fn commit_into<K: NodeSink>(&mut self, sink: &mut K) -> B256 {
        match &mut self.root {
            None => empty_root(),
            Some(Link::Hash(h)) => *h,
            Some(link) => {
                let Link::Node(node) = link else {
                    unreachable!("hash case handled above")
                };
                commit_children(sink, node);
                // The root node is always hashed and stored, even when
                // its encoding is shorter than 32 bytes.
                sink_link(sink, link)
            }
        }
    }

    /// Builds the trie over `leaves` bottom-up in one pass, sinks every
    /// node of 32 bytes or more (and the root), and returns the root hash.
    ///
    /// Keys are 32-byte secure keys in strictly ascending order and
    /// values are non-empty. The sorted slice is partitioned by nibble:
    /// a run of one key becomes a leaf, a run whose first and last keys
    /// share a prefix becomes an extension over a branch. Nodes reach
    /// the sink in exactly the order [`Trie::commit_into`] sinks them for
    /// the same key set inserted into an empty trie — post-order,
    /// children in nibble order — and an MPT is canonical, so the sink
    /// receives the same `(hash, raw, node)` sequence. Values are moved
    /// out of `leaves`.
    ///
    /// # Panics
    ///
    /// If the keys are not strictly ascending or a value is empty.
    pub fn build_sorted<K: NodeSink>(sink: &mut K, leaves: &mut [(B256, Vec<u8>)]) -> B256 {
        assert!(
            leaves.windows(2).all(|w| w[0].0 < w[1].0),
            "build_sorted: keys must be strictly ascending"
        );
        assert!(
            leaves.iter().all(|(_, v)| !v.is_empty()),
            "build_sorted: values must be non-empty"
        );
        if leaves.is_empty() {
            return empty_root();
        }
        let root = build_node(sink, leaves, 0);
        sink_owned(sink, root)
    }
}

/// Calls `f` on every hash link in `node`, including those below its
/// in-memory children.
fn for_each_hash_link<F: FnMut(B256)>(node: &Node, f: &mut F) {
    match node {
        Node::Leaf { .. } => {}
        Node::Extension { child, .. } => link_hashes(child, f),
        Node::Branch { children, .. } => {
            for child in children.iter().flatten() {
                link_hashes(child, f);
            }
        }
    }
}

fn link_hashes<F: FnMut(B256)>(link: &Link, f: &mut F) {
    match link {
        Link::Hash(h) => f(*h),
        Link::Node(node) => for_each_hash_link(node, f),
    }
}

/// Recursively replaces every in-memory child whose encoding reaches 32
/// bytes with a hash link, sinking it (store reads are never needed —
/// see [`Trie::commit_into`]).
fn commit_children<K: NodeSink>(sink: &mut K, node: &mut Node) {
    match node {
        Node::Leaf { .. } => {}
        Node::Extension { child, .. } => commit_link(sink, child),
        Node::Branch { children, .. } => {
            for child in children.iter_mut().flatten() {
                commit_link(sink, child);
            }
        }
    }
}

fn commit_link<K: NodeSink>(sink: &mut K, link: &mut Link) {
    let Link::Node(node) = link else {
        return; // already committed
    };
    commit_children(sink, node);
    if node.encoded_len() < 32 {
        return; // stays inline in the parent's encoding
    }
    sink_link(sink, link);
}

/// Encodes and hashes the in-memory node at `link`, leaves the link as
/// its hash, and moves the node into the sink.
fn sink_link<K: NodeSink>(sink: &mut K, link: &mut Link) -> B256 {
    let Link::Node(node) = std::mem::replace(link, Link::Hash(B256::ZERO)) else {
        unreachable!("only in-memory links are committed")
    };
    let h = sink_owned(sink, *node);
    *link = Link::Hash(h);
    h
}

/// Encodes and hashes `node` and moves it into the sink.
fn sink_owned<K: NodeSink>(sink: &mut K, node: Node) -> B256 {
    let raw = sink.encode(&node);
    let h = B256::keccak(&raw);
    sink.sink_node(h, raw, node);
    h
}

/// Nibble `i` (0..64) of a secure key.
fn key_nibble(key: &B256, i: usize) -> u8 {
    let b = key.as_bytes()[i / 2];
    if i.is_multiple_of(2) {
        b >> 4
    } else {
        b & 0x0f
    }
}

/// The node over `leaves` (non-empty, ascending, sharing their first
/// `depth` nibbles), its children already sunk or inlined.
fn build_node<K: NodeSink>(sink: &mut K, leaves: &mut [(B256, Vec<u8>)], depth: usize) -> Node {
    let key_path = |key: &B256, end: usize| (depth..end).map(|i| key_nibble(key, i)).collect();
    if let [(key, value)] = leaves {
        return Node::Leaf {
            path: key_path(key, 64),
            value: std::mem::take(value),
        };
    }
    // Sorted keys: the first and last share what every key shares.
    let (first, last) = (leaves[0].0, leaves[leaves.len() - 1].0);
    let shared = (depth..64)
        .take_while(|&i| key_nibble(&first, i) == key_nibble(&last, i))
        .count();
    let mut children: Box<[Option<Link>; 16]> = Box::default();
    let at = depth + shared;
    let mut rest = leaves;
    while let Some((key, _)) = rest.first() {
        let nibble = key_nibble(key, at);
        let split = rest.partition_point(|(k, _)| key_nibble(k, at) == nibble);
        let (run, tail) = rest.split_at_mut(split);
        let child = build_node(sink, run, at + 1);
        children[nibble as usize] = Some(build_link(sink, child));
        rest = tail;
    }
    let branch = Node::Branch {
        children,
        value: None,
    };
    if shared == 0 {
        return branch;
    }
    Node::Extension {
        path: key_path(&first, at),
        child: build_link(sink, branch),
    }
}

/// The parent's link to a freshly built child: the hash of a sunk node,
/// or the node itself when its encoding stays inline.
fn build_link<K: NodeSink>(sink: &mut K, node: Node) -> Link {
    if node.encoded_len() < 32 {
        Link::Node(Box::new(node))
    } else {
        Link::Hash(sink_owned(sink, node))
    }
}

fn get_at<S: NodeStore>(db: &mut NodeDb<S>, link: &Link, path: &[u8]) -> Option<Vec<u8>> {
    match link {
        Link::Node(n) => get_in(db, n, path),
        Link::Hash(h) => {
            let n = db.read_node(*h);
            get_in(db, &n, path)
        }
    }
}

fn get_in<S: NodeStore>(db: &mut NodeDb<S>, node: &Node, path: &[u8]) -> Option<Vec<u8>> {
    match node {
        Node::Leaf { path: lp, value } => (lp.as_slice() == path).then(|| value.clone()),
        Node::Extension { path: ep, child } => path
            .strip_prefix(ep.as_slice())
            .and_then(|rest| get_at(db, child, rest)),
        Node::Branch { children, value } => match path.split_first() {
            None => value.clone(),
            Some((&nibble, rest)) => children[nibble as usize]
                .as_ref()
                .and_then(|c| get_at(db, c, rest)),
        },
    }
}

fn leaf(path: &[u8], value: Vec<u8>) -> Link {
    Link::Node(Box::new(Node::Leaf {
        path: path.to_vec(),
        value,
    }))
}

/// Wraps `node` in an extension over `prefix` (or returns it unchanged
/// for an empty prefix).
fn wrap_prefix(prefix: &[u8], node: Node) -> Node {
    if prefix.is_empty() {
        node
    } else {
        Node::Extension {
            path: prefix.to_vec(),
            child: Link::Node(Box::new(node)),
        }
    }
}

fn insert_at<S: NodeStore>(
    db: &mut NodeDb<S>,
    link: Option<Link>,
    path: &[u8],
    value: Vec<u8>,
) -> Link {
    let Some(link) = link else {
        return leaf(path, value);
    };
    let new = match db.take_node(link) {
        Node::Leaf {
            path: lp,
            value: lv,
        } => {
            let common = common_prefix(&lp, path);
            if common == lp.len() && common == path.len() {
                Node::Leaf { path: lp, value } // overwrite
            } else {
                let mut children: Box<[Option<Link>; 16]> = Box::default();
                let mut branch_value = None;
                if lp.len() == common {
                    branch_value = Some(lv);
                } else {
                    children[lp[common] as usize] = Some(leaf(&lp[common + 1..], lv));
                }
                if path.len() == common {
                    branch_value = Some(value);
                } else {
                    children[path[common] as usize] = Some(leaf(&path[common + 1..], value));
                }
                wrap_prefix(
                    &path[..common],
                    Node::Branch {
                        children,
                        value: branch_value,
                    },
                )
            }
        }
        Node::Extension { path: ep, child } => {
            let common = common_prefix(&ep, path);
            if common == ep.len() {
                Node::Extension {
                    path: ep,
                    child: insert_at(db, Some(child), &path[common..], value),
                }
            } else {
                // Split the extension at the divergence point.
                let mut children: Box<[Option<Link>; 16]> = Box::default();
                let mut branch_value = None;
                let rest = &ep[common + 1..];
                children[ep[common] as usize] = Some(if rest.is_empty() {
                    child
                } else {
                    Link::Node(Box::new(Node::Extension {
                        path: rest.to_vec(),
                        child,
                    }))
                });
                if path.len() == common {
                    branch_value = Some(value);
                } else {
                    children[path[common] as usize] = Some(leaf(&path[common + 1..], value));
                }
                wrap_prefix(
                    &ep[..common],
                    Node::Branch {
                        children,
                        value: branch_value,
                    },
                )
            }
        }
        Node::Branch {
            mut children,
            value: branch_value,
        } => match path.split_first() {
            None => Node::Branch {
                children,
                value: Some(value),
            },
            Some((&nibble, rest)) => {
                let slot = &mut children[nibble as usize];
                *slot = Some(insert_at(db, slot.take(), rest, value));
                Node::Branch {
                    children,
                    value: branch_value,
                }
            }
        },
    };
    Link::Node(Box::new(new))
}

/// Removes `path` from the subtree at `link`. The key is known to exist.
/// Returns the replacement subtree, or `None` when it became empty.
fn remove_at<S: NodeStore>(db: &mut NodeDb<S>, link: Link, path: &[u8]) -> Option<Link> {
    match db.take_node(link) {
        Node::Leaf { path: lp, .. } => {
            debug_assert_eq!(lp.as_slice(), path, "remove_at requires an existing key");
            None
        }
        Node::Extension { path: ep, child } => {
            let rest = path.strip_prefix(ep.as_slice()).expect("key exists");
            remove_at(db, child, rest).map(|child| merge_prefix(db, ep, child))
        }
        Node::Branch {
            mut children,
            mut value,
        } => {
            match path.split_first() {
                None => value = None,
                Some((&nibble, rest)) => {
                    let slot = &mut children[nibble as usize];
                    let child = slot.take().expect("key exists");
                    *slot = remove_at(db, child, rest);
                }
            }
            normalize_branch(db, children, value)
        }
    }
}

/// Re-attaches `child` below the path `prefix`, merging paths when the
/// child is itself a leaf or extension (the yellow-paper collapse rule).
fn merge_prefix<S: NodeStore>(db: &mut NodeDb<S>, mut prefix: Vec<u8>, child: Link) -> Link {
    let node = match db.take_node(child) {
        Node::Leaf { path, value } => {
            prefix.extend_from_slice(&path);
            Node::Leaf {
                path: prefix,
                value,
            }
        }
        Node::Extension { path, child } => {
            prefix.extend_from_slice(&path);
            Node::Extension {
                path: prefix,
                child,
            }
        }
        branch => Node::Extension {
            path: prefix,
            child: Link::Node(Box::new(branch)),
        },
    };
    Link::Node(Box::new(node))
}

/// Restores the branch invariant after a removal: a branch must keep at
/// least two of {children, value}; thinner remnants collapse into a leaf
/// or merge into their single child.
fn normalize_branch<S: NodeStore>(
    db: &mut NodeDb<S>,
    mut children: Box<[Option<Link>; 16]>,
    value: Option<Vec<u8>>,
) -> Option<Link> {
    let occupied: Vec<usize> = (0..16).filter(|&i| children[i].is_some()).collect();
    match (occupied.len(), value) {
        (0, None) => None,
        (0, Some(value)) => Some(Link::Node(Box::new(Node::Leaf {
            path: Vec::new(),
            value,
        }))),
        (1, None) => {
            let i = occupied[0];
            let child = children[i].take().expect("occupied");
            Some(merge_prefix(db, vec![i as u8], child))
        }
        (_, value) => Some(Link::Node(Box::new(Node::Branch { children, value }))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn db() -> NodeDb<MemStore> {
        NodeDb::new(MemStore::new())
    }

    #[test]
    fn empty_root_constant() {
        // keccak(rlp("")) — the canonical Ethereum empty-trie root.
        assert_eq!(
            empty_root().to_string(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
        );
        let mut db = db();
        assert_eq!(Trie::empty().commit(&mut db), empty_root());
        assert!(Trie::from_root(empty_root()).is_empty());
    }

    #[test]
    fn insert_get_overwrite_remove() {
        let mut db = db();
        let mut t = Trie::empty();
        t.insert(&mut db, b"dog", b"puppy");
        t.insert(&mut db, b"doge", b"coin");
        assert_eq!(t.get(&mut db, b"dog"), Some(b"puppy".to_vec()));
        assert_eq!(t.get(&mut db, b"doge"), Some(b"coin".to_vec()));
        assert_eq!(t.get(&mut db, b"do"), None);
        t.insert(&mut db, b"dog", b"hound");
        assert_eq!(t.get(&mut db, b"dog"), Some(b"hound".to_vec()));
        t.remove(&mut db, b"dog");
        assert_eq!(t.get(&mut db, b"dog"), None);
        assert_eq!(t.get(&mut db, b"doge"), Some(b"coin".to_vec()));
    }

    #[test]
    fn remove_to_empty_restores_empty_root() {
        let mut db = db();
        let mut t = Trie::empty();
        t.insert(&mut db, b"a", b"1");
        t.insert(&mut db, b"b", b"2");
        t.remove(&mut db, b"a");
        t.remove(&mut db, b"b");
        assert!(t.is_empty());
        assert_eq!(t.commit(&mut db), empty_root());
    }

    #[test]
    fn empty_value_insert_means_delete() {
        let mut db = db();
        let mut t = Trie::empty();
        t.insert(&mut db, b"key", b"value");
        t.insert(&mut db, b"key", b"");
        assert!(t.is_empty());
    }

    #[test]
    fn removing_absent_key_keeps_root_clean() {
        let mut db = db();
        let mut t = Trie::empty();
        t.insert(&mut db, b"present", b"yes");
        let root = t.commit(&mut db);
        t.remove(&mut db, b"absent");
        assert!(!t.is_dirty(), "no-op removal must not dirty the trie");
        assert_eq!(t.commit(&mut db), root);
    }

    #[test]
    fn commit_then_read_back_through_store() {
        let mut db = db();
        let mut t = Trie::empty();
        for i in 0u32..64 {
            t.insert(&mut db, &i.to_be_bytes(), format!("val{i}").as_bytes());
        }
        let root = t.commit(&mut db);
        let reopened = Trie::from_root(root);
        for i in 0u32..64 {
            assert_eq!(
                reopened.get(&mut db, &i.to_be_bytes()),
                Some(format!("val{i}").into_bytes())
            );
        }
        assert_eq!(reopened.get(&mut db, &99u32.to_be_bytes()), None);
    }

    #[test]
    fn clean_commit_is_free() {
        let mut db = db();
        let mut t = Trie::empty();
        t.insert(&mut db, b"k", b"v");
        let root = t.commit(&mut db);
        let hashed = db.stats().nodes_hashed;
        assert_eq!(t.commit(&mut db), root);
        assert_eq!(
            db.stats().nodes_hashed,
            hashed,
            "clean commit hashes nothing"
        );
    }

    #[test]
    fn incremental_commit_touches_dirty_path_only() {
        let mut db = db();
        let mut t = Trie::empty();
        // Fixed-width keys, like the secure trie's 32-byte hashes.
        for i in 0u32..512 {
            t.insert(&mut db, &B256::keccak(&i.to_be_bytes()).into_bytes(), b"v1");
        }
        t.commit(&mut db);
        let before = db.stats().nodes_hashed;

        t.insert(
            &mut db,
            &B256::keccak(&7u32.to_be_bytes()).into_bytes(),
            b"v2",
        );
        t.commit(&mut db);
        let dirty = db.stats().nodes_hashed - before;
        assert!(dirty > 0);
        assert!(
            dirty <= 12,
            "one-key update must re-hash a path, not the trie ({dirty} nodes)"
        );
    }

    /// Fills `t` with `n` secure-style keys starting at `from`.
    fn fill(db: &mut NodeDb<MemStore>, t: &mut Trie, from: u32, n: u32) {
        for i in from..from + n {
            let key = B256::keccak(&i.to_be_bytes());
            t.insert(db, key.as_bytes(), &i.to_be_bytes());
        }
    }

    #[test]
    fn released_buffers_stay_within_the_spare_bound() {
        let mut db = db();
        let mut big = Trie::empty();
        fill(&mut db, &mut big, 0, 6000);
        big.commit(&mut db);
        assert!(
            db.store().len() > SPARE_BUFFERS,
            "the released trie must overfill the spares ({} nodes)",
            db.store().len()
        );
        big.release(&mut db);
        assert!(db.store().is_empty(), "release leaves no node behind");
        assert_eq!(db.spare_count, SPARE_BUFFERS, "the bound is reached");
        assert_eq!(
            db.spare_count,
            db.spares.iter().map(Vec::len).sum::<usize>()
        );
        assert!(db.spares.iter().flatten().all(|b| b.len() <= SPARE_MAX_LEN));

        let mut fresh = Trie::empty();
        fill(&mut db, &mut fresh, 10_000, 256);
        let root = fresh.commit(&mut db);
        assert!(db.spare_count < SPARE_BUFFERS, "commits encode into spares");
        let mut clean_db = NodeDb::new(MemStore::new());
        let mut clean = Trie::empty();
        fill(&mut clean_db, &mut clean, 10_000, 256);
        assert_eq!(root, clean.commit(&mut clean_db));
    }
}
