//! The flat index against a plain model.
//!
//! [`FlatIndex`] answers every execution read of the flat store, so it
//! must hold exactly the newest value of every account, slot and code
//! blob. Its generations make a tombstone or a storage reset O(1): stale
//! slot entries stay in the map and are hidden, not removed. The model
//! states the same rules the slow way — one `BTreeMap` of accounts, each
//! owning its live storage, cleared outright on a tombstone or a reset —
//! and random operation sequences over a few addresses and keys must
//! leave both answering alike after every step.

use mtpu_repro::accountsdb::file::AccountMeta;
use mtpu_repro::accountsdb::index::FlatIndex;
use mtpu_repro::primitives::{Address, SplitMix64, B256, U256};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Few addresses and keys, so operations keep hitting the same entries.
const ADDRS: u64 = 5;
const KEYS: u64 = 6;
const CODES: u64 = 4;

/// What the index must answer for one address.
#[derive(Debug, Default)]
struct ModelAccount {
    meta: Option<AccountMeta>,
    storage: BTreeMap<U256, U256>,
}

#[derive(Debug, Default)]
struct Model {
    accounts: BTreeMap<Address, ModelAccount>,
    code: BTreeMap<B256, Arc<Vec<u8>>>,
}

fn addr(rng: &mut SplitMix64) -> Address {
    Address::from_low_u64(rng.random_range(0..ADDRS))
}

/// A word that is zero a quarter of the time: a zero slot write clears.
fn word(rng: &mut SplitMix64) -> U256 {
    match rng.random_range(0..4) {
        0 => U256::ZERO,
        _ => U256::from(rng.next_u64()),
    }
}

/// Applies one random operation to both the index and the model.
fn step(rng: &mut SplitMix64, ix: &mut FlatIndex, model: &mut Model) {
    let a = addr(rng);
    match rng.random_range(0..10) {
        // Account upserts; a third of them reset storage (a re-creation).
        0..=2 => {
            let meta = AccountMeta {
                reset_storage: rng.random_range(0..3) == 0,
                nonce: rng.next_u64(),
                balance: word(rng),
                code_hash: B256::keccak(&rng.random_range(0..CODES).to_be_bytes()),
            };
            ix.upsert_account(a, meta);
            let acc = model.accounts.entry(a).or_default();
            if meta.reset_storage {
                acc.storage.clear();
            }
            acc.meta = Some(meta);
        }
        3 => {
            ix.delete_account(a);
            let acc = model.accounts.entry(a).or_default();
            acc.meta = None;
            acc.storage.clear();
        }
        // Slot writes, to live, deleted and never-seen accounts alike.
        4..=8 => {
            let key = U256::from(rng.random_range(0..KEYS));
            let value = word(rng);
            ix.upsert_slot(a, key, value);
            let acc = model.accounts.entry(a).or_default();
            acc.storage.insert(key, value);
        }
        _ => {
            let n = rng.random_range(0..CODES);
            let hash = B256::keccak(&n.to_be_bytes());
            // A later blob under a known hash must not replace the first.
            let blob = Arc::new(vec![n as u8; rng.random_range(1..40) as usize]);
            ix.upsert_code(hash, blob.clone());
            model.code.entry(hash).or_insert(blob);
        }
    }
}

/// Every answer the index gives equals the model's.
fn check(ix: &FlatIndex, model: &Model, at: &str) {
    for n in 0..ADDRS {
        let a = Address::from_low_u64(n);
        let want = model.accounts.get(&a);
        let meta = ix.account(a).and_then(|e| e.meta);
        assert_eq!(meta, want.and_then(|acc| acc.meta), "{at}: meta of {a}");
        for k in 0..KEYS {
            let key = U256::from(k);
            let value = want.and_then(|acc| acc.storage.get(&key)).copied();
            assert_eq!(ix.slot(a, key), value, "{at}: slot {k} of {a}");
        }
    }
    let live: BTreeMap<(Address, U256), U256> = ix
        .iter_live_slots()
        .map(|(a, key, value)| ((a, key), value))
        .collect();
    let want: BTreeMap<(Address, U256), U256> = model
        .accounts
        .iter()
        .flat_map(|(a, acc)| acc.storage.iter().map(move |(k, v)| ((*a, *k), *v)))
        .collect();
    assert_eq!(live, want, "{at}: live slots");
    for n in 0..CODES {
        let hash = B256::keccak(&n.to_be_bytes());
        assert_eq!(ix.code(hash), model.code.get(&hash), "{at}: code {n}");
    }
}

/// `runs` random sequences of `ops` operations, checked after every one.
fn sweep(runs: u64, ops: usize) {
    for run in 0..runs {
        let mut rng = SplitMix64::new(0x1DE7 ^ run.wrapping_mul(0x9E37_79B9));
        let mut ix = FlatIndex::default();
        let mut model = Model::default();
        for op in 0..ops {
            step(&mut rng, &mut ix, &mut model);
            check(&ix, &model, &format!("run {run}, op {op}"));
        }
    }
}

#[test]
fn the_index_answers_like_the_model() {
    sweep(200, 120);
}

#[test]
#[ignore = "deep sweep (4000 sequences of 400 operations); run with --ignored"]
fn the_index_answers_like_the_model_deep() {
    sweep(4_000, 400);
}
