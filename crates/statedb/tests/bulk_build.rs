//! Differential tests for the bottom-up full build.
//!
//! Trie level: [`Trie::build_sorted`] into a recording [`NodeSink`] must
//! give the same root and the same `(hash, raw)` sequence as inserting
//! the same keys into an empty [`Trie`] in shuffled order and committing
//! it into another.
//!
//! Committer level: [`StateCommitter::bulk_load`] must leave the store
//! (contents and append order), the node cache and [`TrieStats`] exactly
//! as an [`StateCommitter::update_account`] loop plus
//! [`StateCommitter::commit`] does — checked directly, then through eight
//! rounds of random churn whose cache hits and misses would diverge if
//! the caches did.

use mtpu_primitives::{Address, SplitMix64, B256, EMPTY_CODE_HASH, U256};
use mtpu_statedb::{
    AccountUpdate, MemStore, Node, NodeDb, NodeSink, NodeStore, StateCommitter, Trie,
};

fn random_key(rng: &mut SplitMix64) -> B256 {
    let mut k = [0u8; 32];
    rng.fill_bytes(&mut k);
    B256::new(k)
}

/// A value of 1..=60 bytes: leaves on both sides of the 32-byte inline
/// boundary.
fn random_value(rng: &mut SplitMix64) -> Vec<u8> {
    let mut v = vec![0u8; rng.random_range(1..61) as usize];
    rng.fill_bytes(&mut v);
    v
}

fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_index(i + 1));
    }
}

type Nodes = Vec<(B256, Vec<u8>)>;

/// Records every sunk node's hash and encoding, in sink order.
#[derive(Default)]
struct Sunk(Nodes);

impl NodeSink for Sunk {
    fn sink_node(&mut self, hash: B256, raw: Vec<u8>, _node: Node) {
        self.0.push((hash, raw));
    }
}

/// Root and sunk nodes of the bottom-up build over `entries`.
fn built(entries: &[(B256, Vec<u8>)]) -> (B256, Nodes) {
    let mut leaves = entries.to_vec();
    leaves.sort_unstable_by_key(|&(key, _)| key);
    let mut sunk = Sunk::default();
    let root = Trie::build_sorted(&mut sunk, &mut leaves);
    (root, sunk.0)
}

/// Root and sunk nodes of the insert path over `entries`, inserted in a
/// shuffled order.
fn inserted(rng: &mut SplitMix64, entries: &[(B256, Vec<u8>)]) -> (B256, Nodes) {
    let mut order = entries.to_vec();
    shuffle(rng, &mut order);
    let mut db = NodeDb::new(MemStore::new());
    let mut trie = Trie::empty();
    for (key, value) in &order {
        trie.insert(&mut db, key.as_bytes(), value);
    }
    let mut sunk = Sunk::default();
    let root = trie.commit_into(&mut sunk);
    (root, sunk.0)
}

fn assert_same_build(rng: &mut SplitMix64, entries: &[(B256, Vec<u8>)], what: &str) -> Nodes {
    let (root, nodes) = built(entries);
    let (want_root, want_nodes) = inserted(rng, entries);
    assert_eq!(root, want_root, "{what}: root");
    assert_eq!(nodes, want_nodes, "{what}: sink sequence");
    nodes
}

#[test]
fn random_key_sets_match_the_insert_path() {
    let mut rng = SplitMix64::new(0xB0_77_0B);
    for n in [0usize, 1, 2, 16, 17, 4096] {
        let entries: Vec<_> = (0..n)
            .map(|_| (random_key(&mut rng), random_value(&mut rng)))
            .collect();
        let nodes = assert_same_build(&mut rng, &entries, &format!("{n} keys"));
        assert_eq!(
            nodes.is_empty(),
            n == 0,
            "{n} keys: the root is always sunk"
        );
    }
}

#[test]
fn keys_differing_in_the_last_nibble_build_a_63_nibble_extension() {
    let mut rng = SplitMix64::new(0xE7);
    let base = random_key(&mut rng);
    let mut low = base.into_bytes();
    low[31] &= 0xf0;
    let mut high = low;
    high[31] |= 0x0f;
    // One-byte values keep the branch under the extension inline (22
    // bytes), so the extension root is the only node sunk.
    let entries = [(B256::new(low), vec![1]), (B256::new(high), vec![2])];
    let nodes = assert_same_build(&mut rng, &entries, "last-nibble pair");
    assert_eq!(nodes.len(), 1, "branch stays inline under the extension");
    // Longer values push the branch past 32 bytes: branch, then root.
    let entries = [
        (B256::new(low), vec![1; 20]),
        (B256::new(high), vec![2; 20]),
    ];
    let nodes = assert_same_build(&mut rng, &entries, "last-nibble pair, long values");
    assert_eq!(nodes.len(), 2);
}

#[test]
fn values_straddling_the_inline_boundary_match() {
    // Dense keys (a shared 30-byte prefix) put leaves deep enough that
    // their paths are short and the value length decides inlining.
    let mut rng = SplitMix64::new(0x1_1AE);
    let prefix = random_key(&mut rng).into_bytes();
    for len in 1..=60usize {
        let entries: Vec<_> = (0..24u16)
            .map(|i| {
                let mut k = prefix;
                k[30..].copy_from_slice(&(i * 0x0a01).to_be_bytes());
                (B256::new(k), vec![len as u8; len])
            })
            .collect();
        assert_same_build(&mut rng, &entries, &format!("{len}-byte values"));
    }
}

#[test]
fn a_single_short_entry_is_a_hashed_root_leaf() {
    // With 32-byte keys even the smallest trie's root encodes to more
    // than 32 bytes (a lone leaf's path alone is 33); the root is sunk
    // and hashed like any other.
    let mut rng = SplitMix64::new(5);
    let entries = [(random_key(&mut rng), vec![0x01])];
    let nodes = assert_same_build(&mut rng, &entries, "one short entry");
    assert_eq!(nodes.len(), 1);
    assert_eq!(nodes[0].0, B256::keccak(&nodes[0].1));
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn build_sorted_rejects_unsorted_keys() {
    let mut leaves = vec![(B256::new([2; 32]), vec![1]), (B256::new([1; 32]), vec![1])];
    Trie::build_sorted(&mut Sunk::default(), &mut leaves);
}

/// A [`MemStore`] that also records every put, in order.
#[derive(Debug, Default)]
struct LogStore {
    inner: MemStore,
    appended: Vec<B256>,
}

impl NodeStore for LogStore {
    fn get(&self, hash: &B256) -> Option<&[u8]> {
        self.inner.get(hash)
    }

    fn put(&mut self, hash: B256, raw: Vec<u8>) -> bool {
        self.appended.push(hash);
        self.inner.put(hash, raw)
    }

    fn retain(&mut self, hash: &B256) {
        self.inner.retain(hash);
    }

    fn release(&mut self, hash: &B256) -> Option<Vec<u8>> {
        self.inner.release(hash)
    }
}

fn address(rng: &mut SplitMix64) -> Address {
    Address::from_low_u64(rng.random_range(0..1 << 20) * 0x0101 + 3)
}

fn word(rng: &mut SplitMix64, below: u64) -> U256 {
    U256::from(rng.random_range(0..below))
}

/// A genesis in address order: accounts with and without storage, some
/// slots zero-valued (absent from the trie).
fn genesis(rng: &mut SplitMix64, accounts: usize) -> Vec<(Address, AccountUpdate)> {
    let mut addrs: Vec<Address> = (0..accounts).map(|_| address(rng)).collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs
        .into_iter()
        .map(|addr| {
            let mut up = AccountUpdate::plain(
                rng.random_range(0..100),
                word(rng, 1 << 60),
                EMPTY_CODE_HASH,
            );
            up.reset_storage = true;
            if rng.random_bool(0.4) {
                let mut slots: Vec<U256> = (0..rng.random_range(1..24))
                    .map(|_| word(rng, 4096))
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                for slot in slots {
                    let value = if rng.random_bool(0.2) {
                        U256::ZERO
                    } else {
                        word(rng, 1 << 40) + U256::ONE
                    };
                    up.storage.push((slot, value));
                }
            }
            (addr, up)
        })
        .collect()
}

#[test]
fn bulk_load_leaves_the_committer_as_the_update_path_does() {
    let mut rng = SplitMix64::new(0x6E_4E5);
    // ~10k storage and account nodes: past the default cache capacity,
    // so evictions are part of what must match.
    let accounts = genesis(&mut rng, 3000);

    let mut bulk = StateCommitter::new(LogStore::default());
    let root = bulk.bulk_load(accounts.clone());
    let mut reference = StateCommitter::new(LogStore::default());
    for (addr, up) in &accounts {
        reference.update_account(addr, up);
    }
    assert_eq!(root, reference.commit(), "genesis root");
    assert_eq!(bulk.stats(), reference.stats(), "genesis stats");
    assert!(
        bulk.stats().cache_evictions > 0,
        "the build must overflow the cache"
    );
    assert_eq!(
        bulk.store().appended,
        reference.store().appended,
        "store append order"
    );

    let live: Vec<Address> = accounts.iter().map(|(a, _)| *a).collect();
    for round in 0..8 {
        let mut ops: Vec<(Address, Option<AccountUpdate>)> = Vec::new();
        for _ in 0..64 {
            let addr = if rng.random_bool(0.7) {
                live[rng.random_index(live.len())]
            } else {
                address(&mut rng)
            };
            if rng.random_bool(0.1) {
                ops.push((addr, None));
                continue;
            }
            let mut up = AccountUpdate::plain(round, word(&mut rng, 1 << 50), EMPTY_CODE_HASH);
            for _ in 0..rng.random_index(5) {
                let value = if rng.random_bool(0.3) {
                    U256::ZERO
                } else {
                    word(&mut rng, 1000)
                };
                up.storage.push((word(&mut rng, 4096), value));
            }
            ops.push((addr, Some(up)));
        }
        for committer in [&mut bulk, &mut reference] {
            for (addr, up) in &ops {
                match up {
                    Some(up) => committer.update_account(addr, up),
                    None => committer.delete_account(addr),
                }
            }
        }
        assert_eq!(bulk.commit(), reference.commit(), "round {round}: root");
        assert_eq!(bulk.stats(), reference.stats(), "round {round}: stats");
        assert_eq!(
            bulk.store().appended,
            reference.store().appended,
            "round {round}: store append order"
        );
    }
    assert!(bulk.stats().cache_hits > 0 && bulk.stats().cache_misses > 0);
}

#[test]
#[should_panic(expected = "fresh committer")]
fn bulk_load_rejects_a_committer_holding_accounts() {
    let mut c = StateCommitter::new(MemStore::new());
    c.update_account(
        &Address::from_low_u64(1),
        &AccountUpdate::plain(1, U256::ONE, EMPTY_CODE_HASH),
    );
    c.commit();
    c.bulk_load([(
        Address::from_low_u64(2),
        AccountUpdate::plain(1, U256::ONE, EMPTY_CODE_HASH),
    )]);
}

#[test]
#[should_panic(expected = "fresh committer")]
fn bulk_load_rejects_buffered_updates() {
    let mut c = StateCommitter::new(MemStore::new());
    c.update_account(
        &Address::from_low_u64(1),
        &AccountUpdate::plain(1, U256::ONE, EMPTY_CODE_HASH),
    );
    c.bulk_load(Vec::new());
}
