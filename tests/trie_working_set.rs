//! The trie's node store is a working set, not an archive: after every
//! commit it holds exactly the nodes reachable from the state root —
//! down the account trie, then from each account leaf into its storage
//! trie — and each node's count equals the number of links to it.
//!
//! The churn draws slots and values from tiny spaces, so identical
//! storage tries, and with them shared nodes, are common. Rounds mix
//! slot writes and deletes, `reset_storage`, selfdestructs, delete-then-
//! recreate of one account inside a round, and mid-round `account()`
//! reads that commit an open storage trie early. Every round is checked
//! at 1 and 4 commit threads against a fresh `bulk_load` of a plain
//! model: same root, same number of stored nodes.

use mtpu_repro::primitives::{Address, SplitMix64, B256, EMPTY_CODE_HASH, U256};
use mtpu_repro::statedb::{
    empty_root, AccountRecord, AccountUpdate, Link, MemStore, Node, NodeStore, StateCommitter,
};
use std::collections::{BTreeMap, HashMap};

const SEEDS: u64 = 8;
const ROUNDS: usize = 40;
const OPS_PER_ROUND: usize = 24;
/// Address pool: small enough that deletes and recreates hit.
const POOL: u64 = 32;
/// Slot and value spaces: small enough that accounts share storage tries.
const SLOTS: u64 = 6;
const VALUES: u64 = 3;

#[derive(Debug, Clone, Default)]
struct ModelAccount {
    nonce: u64,
    balance: U256,
    storage: BTreeMap<U256, U256>,
}

type Model = BTreeMap<Address, ModelAccount>;

/// A random update to `addr`, applied to the model as it is drawn.
fn update(rng: &mut SplitMix64, model: &mut Model, addr: Address, reset: bool) -> AccountUpdate {
    let acct = model.entry(addr).or_default();
    acct.nonce += 1;
    acct.balance = U256::from(rng.random_range(1..4));
    let mut up = AccountUpdate::plain(acct.nonce, acct.balance, EMPTY_CODE_HASH);
    up.reset_storage = reset;
    if reset {
        acct.storage.clear();
    }
    for _ in 0..rng.random_index(4) {
        let slot = U256::from(rng.random_range(0..SLOTS));
        let value = if rng.random_bool(0.3) {
            U256::ZERO
        } else {
            U256::from(rng.random_range(1..VALUES + 1))
        };
        if value.is_zero() {
            acct.storage.remove(&slot);
        } else {
            acct.storage.insert(slot, value);
        }
        up.storage.push((slot, value));
    }
    up
}

/// The root a from-scratch build of `model` commits to, and the number
/// of nodes that build stores.
fn fresh_build(model: &Model) -> (B256, usize) {
    let mut c = StateCommitter::new(MemStore::new());
    let root = c.bulk_load(model.iter().map(|(addr, acct)| {
        let mut up = AccountUpdate::plain(acct.nonce, acct.balance, EMPTY_CODE_HASH);
        up.storage
            .extend(acct.storage.iter().map(|(&k, &v)| (k, v)));
        (*addr, up)
    }));
    (root, c.store().len())
}

/// Every node reachable from `root` and the number of links to it: one
/// for the root handle, one per hash link inside each distinct stored
/// node, and one per account leaf naming a storage root.
fn link_counts(store: &MemStore, root: B256) -> HashMap<B256, u32> {
    let mut counts = HashMap::new();
    if root == empty_root() {
        return counts;
    }
    counts.insert(root, 1);
    // (hash, whether the node belongs to the account trie)
    let mut todo = vec![(root, true)];
    let mut links = Vec::new();
    while let Some((hash, accounts)) = todo.pop() {
        let raw = store
            .get(&hash)
            .unwrap_or_else(|| panic!("reachable node {hash} is not stored"));
        collect_links(
            &Node::decode(raw).expect("stored node decodes"),
            accounts,
            &mut links,
        );
        for (child, in_accounts) in links.drain(..) {
            let n = counts.entry(child).or_insert(0);
            *n += 1;
            if *n == 1 {
                todo.push((child, in_accounts));
            }
        }
    }
    counts
}

/// The hash links inside `node` (through its inline children), plus the
/// storage root of an account leaf.
fn collect_links(node: &Node, accounts: bool, out: &mut Vec<(B256, bool)>) {
    let link = |l: &Link, out: &mut Vec<(B256, bool)>| match l {
        Link::Hash(h) => out.push((*h, accounts)),
        Link::Node(inline) => collect_links(inline, accounts, out),
    };
    match node {
        Node::Leaf { value, .. } => {
            if accounts {
                let record = AccountRecord::decode(value).expect("account leaf decodes");
                if record.storage_root != empty_root() {
                    out.push((record.storage_root, false));
                }
            }
        }
        Node::Extension { child, .. } => link(child, out),
        Node::Branch { children, .. } => {
            for child in children.iter().flatten() {
                link(child, out);
            }
        }
    }
}

/// Holds the store to the live trie: every stored node reachable, every
/// reachable node stored, every count equal to its links.
fn check_working_set(c: &StateCommitter<MemStore>, root: B256, at: &str) {
    let want = link_counts(c.store(), root);
    let got: HashMap<B256, u32> = c.store().counts().map(|(h, n)| (*h, n)).collect();
    let unreachable = got.keys().filter(|h| !want.contains_key(h)).count();
    let miscounted: Vec<_> = want
        .iter()
        .filter(|&(h, n)| got.get(h) != Some(n))
        .map(|(h, n)| (*h, *n, got.get(h).copied()))
        .take(3)
        .collect();
    assert!(
        unreachable == 0 && miscounted.is_empty(),
        "{at}: {} stored, {} reachable; {unreachable} unreachable nodes stored; \
         (hash, links, count) mismatches: {miscounted:?}",
        got.len(),
        want.len(),
    );
}

fn churn(seed: u64, threads: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut model = Model::new();
    let mut c = StateCommitter::new(MemStore::new()).with_threads(threads);
    let mut shared = false;
    for round in 1..=ROUNDS {
        let at = format!("seed {seed}, {threads} threads, round {round}");
        for _ in 0..OPS_PER_ROUND {
            let addr = Address::from_low_u64(rng.random_range(0..POOL) * 0x0101 + 3);
            match rng.random_range(0..20) {
                0 | 1 => {
                    model.remove(&addr);
                    c.delete_account(&addr);
                }
                2 => {
                    // Delete-then-recreate: the new incarnation starts
                    // from empty storage.
                    model.remove(&addr);
                    c.delete_account(&addr);
                    let up = update(&mut rng, &mut model, addr, true);
                    c.update_account(&addr, &up);
                }
                kind => {
                    let up = update(&mut rng, &mut model, addr, kind == 3);
                    c.update_account(&addr, &up);
                    if kind == 4 {
                        // Commits the open storage trie mid-round.
                        let record = c.account(&addr).expect("updated account exists");
                        assert_eq!(record.nonce, model[&addr].nonce, "{at}");
                    }
                }
            }
        }
        let root = c.commit();
        let (want_root, want_len) = fresh_build(&model);
        assert_eq!(root, want_root, "{at}: root");
        check_working_set(&c, root, &at);
        assert_eq!(
            c.store().len(),
            want_len,
            "{at}: store size vs a fresh build"
        );
        shared |= c.store().counts().any(|(_, n)| n > 1);
    }
    assert!(shared, "churn must make tries share nodes");
    assert!(
        c.stats().nodes_released > 0,
        "churn must free superseded nodes"
    );
    for (addr, acct) in &model {
        let record = c.account(addr).expect("live account");
        assert_eq!((record.nonce, record.balance), (acct.nonce, acct.balance));
        for slot in 0..SLOTS {
            let slot = U256::from(slot);
            let want = acct.storage.get(&slot).copied().unwrap_or(U256::ZERO);
            assert_eq!(c.storage_value(addr, slot), want);
        }
    }
}

#[test]
fn store_is_exactly_the_live_trie_after_every_commit() {
    for seed in 0..SEEDS {
        churn(seed, 1);
        churn(seed, 4);
    }
}
