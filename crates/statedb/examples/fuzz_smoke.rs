//! Randomized trie churn smoke test, run by `scripts/check.sh` and CI.
//!
//! Drives 5 000 random operations (weighted insert / overwrite / delete,
//! with periodic commits) through an incremental [`Trie`], and after
//! every commit checks the root against a naive trie rebuilt from
//! scratch out of a plain `HashMap` reference model, then reads every
//! key of the pool back through a cold [`NodeDb`] over a copy of the
//! store, so every node on those paths is decoded from its stored bytes.
//! A second, secure-keyed leg feeds the same operations under
//! `keccak(key)` into another incremental trie and checks its root at
//! every commit against the bottom-up full build, [`Trie::build_sorted`]
//! over the model's hashed keys. After every commit each store must
//! hold exactly the distinct nodes reachable from its trie's root: the
//! raw keys give branch values, inline nodes and duplicated subtrees,
//! and a superseded node left behind (or a live one freed) shows as a
//! size mismatch. Any divergence — dirty-path tracking, branch collapse,
//! inline-node boundaries, the node codec, the full build, the node
//! reference counts — panics; success prints a one-line summary.

// The reference model keeps std's HashMap: it shares no hasher with the trie store it checks.
#![allow(clippy::disallowed_types)]

use mtpu_primitives::{SplitMix64, B256};
use mtpu_statedb::{empty_root, Link, MemStore, Node, NodeDb, NodeStore, Trie};
use std::collections::{HashMap, HashSet};

const OPS: usize = 5_000;
const COMMIT_EVERY: usize = 250;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xF022_5EED);
    let mut rng = SplitMix64::new(seed);

    let mut db = NodeDb::new(MemStore::new());
    let mut trie = Trie::empty();
    let mut secure_db = NodeDb::new(MemStore::new());
    let mut secure = Trie::empty();
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    // Keys live in a bounded pool so deletes and overwrites actually hit.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut commits = 0usize;
    let mut cold_loaded = 0u64;

    for op in 1..=OPS {
        let delete = !pool.is_empty() && rng.random_bool(0.25);
        if delete {
            let key = pool[rng.random_index(pool.len())].clone();
            trie.remove(&mut db, &key);
            secure.remove(&mut secure_db, B256::keccak(&key).as_bytes());
            model.remove(&key);
        } else {
            let reuse = !pool.is_empty() && rng.random_bool(0.4);
            let key = if reuse {
                pool[rng.random_index(pool.len())].clone()
            } else {
                let mut k = vec![0u8; rng.random_range(1..36) as usize];
                rng.fill_bytes(&mut k);
                pool.push(k.clone());
                k
            };
            let mut v = vec![0u8; rng.random_range(1..52) as usize];
            rng.fill_bytes(&mut v);
            trie.insert(&mut db, &key, &v);
            secure.insert(&mut secure_db, B256::keccak(&key).as_bytes(), &v);
            model.insert(key, v);
        }

        if op % COMMIT_EVERY == 0 {
            let got = trie.commit(&mut db);
            assert_eq!(
                db.store().len(),
                reachable(db.store(), got),
                "store is not the live trie at op {op}"
            );
            let mut ref_db = NodeDb::new(MemStore::new());
            let mut reference = Trie::empty();
            for (k, v) in &model {
                reference.insert(&mut ref_db, k, v);
            }
            let want = reference.commit(&mut ref_db);
            assert_eq!(
                got, want,
                "incremental root diverged from scratch rebuild at op {op}"
            );
            // The hot db's cache holds every node it committed; a cold
            // one must decode each node it reads from the store.
            let mut cold = NodeDb::new(db.store().clone());
            let reopened = Trie::from_root(got);
            for key in &pool {
                assert_eq!(
                    reopened.get(&mut cold, key).as_ref(),
                    model.get(key),
                    "read back through the store diverged at op {op}"
                );
            }
            cold_loaded += cold.stats().nodes_loaded;

            let mut leaves: Vec<(B256, Vec<u8>)> = model
                .iter()
                .map(|(k, v)| (B256::keccak(k), v.clone()))
                .collect();
            leaves.sort_unstable_by_key(|&(key, _)| key);
            let secure_root = secure.commit(&mut secure_db);
            assert_eq!(
                secure_root,
                Trie::build_sorted(&mut NodeDb::new(MemStore::new()), &mut leaves),
                "bottom-up build diverged from the secure-keyed trie at op {op}"
            );
            assert_eq!(
                secure_db.store().len(),
                reachable(secure_db.store(), secure_root),
                "secure store is not the live trie at op {op}"
            );
            commits += 1;
        }
    }

    assert!(cold_loaded > 0, "no node was ever decoded from the store");
    let stats = db.stats();
    println!(
        "fuzz_smoke ok: seed={seed:#x} ops={OPS} commits={commits} live_keys={} \
         nodes_hashed={} nodes_loaded={cold_loaded} cache_hit_rate={:.2}",
        model.len(),
        stats.nodes_hashed,
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
}

/// The number of distinct stored nodes reachable from `root`.
fn reachable(store: &MemStore, root: B256) -> usize {
    fn push_links(node: &Node, todo: &mut Vec<B256>) {
        let mut link = |l: &Link| match l {
            Link::Hash(h) => todo.push(*h),
            Link::Node(inline) => push_links(inline, todo),
        };
        match node {
            Node::Leaf { .. } => {}
            Node::Extension { child, .. } => link(child),
            Node::Branch { children, .. } => children.iter().flatten().for_each(link),
        }
    }
    let mut seen = HashSet::new();
    let mut todo = vec![root];
    while let Some(hash) = todo.pop() {
        if hash == empty_root() || !seen.insert(hash) {
            continue;
        }
        let raw = store
            .get(&hash)
            .unwrap_or_else(|| panic!("reachable node {hash} is not stored"));
        push_links(&Node::decode(raw).expect("stored node decodes"), &mut todo);
    }
    seen.len()
}
