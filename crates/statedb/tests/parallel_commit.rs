//! Property test for the parallel commit path: the same random
//! account/storage churn — creates, overwrites, slot deletes,
//! `reset_storage` wipes and selfdestructs (including delete-then-
//! recreate in one round) — is driven through committers configured for
//! 1, 4 and 8 worker threads, and after every round all three must land
//! on the same root as a from-scratch rebuild of a plain `HashMap`
//! reference model. Any divergence in the deterministic batch merge,
//! the dirty-account buffering or the subtrie fan-out panics here.

use mtpu_primitives::{Address, SplitMix64, B256, EMPTY_CODE_HASH, U256};
use mtpu_statedb::{AccountUpdate, MemStore, StateCommitter};
use std::collections::HashMap;

const ROUNDS: usize = 16;
/// Ops per round; most rounds dirty well past the parallel fan-out
/// thresholds (4 subtries / 4 root-branch children).
const OPS_PER_ROUND: usize = 18;
/// Address pool size — small enough that deletes and recreates hit.
const POOL: u64 = 48;

#[derive(Clone, Default)]
struct ModelAccount {
    nonce: u64,
    balance: U256,
    storage: HashMap<U256, U256>,
}

type Model = HashMap<Address, ModelAccount>;
type Ops = Vec<(Address, Option<AccountUpdate>)>;

/// Generates one round of ops, applying them to the reference model as
/// it goes (`None` = selfdestruct, zero slot value = slot delete).
fn round_ops(rng: &mut SplitMix64, model: &mut Model) -> Ops {
    let mut ops = Vec::new();
    for _ in 0..OPS_PER_ROUND {
        let addr = Address::from_low_u64(rng.random_range(0..POOL) * 0x0101 + 7);
        let selfdestruct = model.contains_key(&addr) && rng.random_bool(0.15);
        if selfdestruct {
            model.remove(&addr);
            ops.push((addr, None));
            continue;
        }
        let acct = model.entry(addr).or_default();
        acct.nonce += 1;
        acct.balance = U256::from(rng.random_range(1..1u64 << 48));
        let mut up = AccountUpdate::plain(acct.nonce, acct.balance, EMPTY_CODE_HASH);
        if rng.random_bool(0.1) {
            up.reset_storage = true;
            acct.storage.clear();
        }
        for _ in 0..rng.random_index(6) {
            let slot = if !acct.storage.is_empty() && rng.random_bool(0.3) {
                // Target an existing slot so overwrites and deletes hit.
                let mut keys: Vec<U256> = acct.storage.keys().copied().collect();
                keys.sort();
                keys[rng.random_index(keys.len())]
            } else {
                U256::from(rng.random_range(0..512))
            };
            let value = if rng.random_bool(0.25) {
                U256::ZERO
            } else {
                U256::from(rng.next_u64() | 1)
            };
            if value.is_zero() {
                acct.storage.remove(&slot);
            } else {
                acct.storage.insert(slot, value);
            }
            up.storage.push((slot, value));
        }
        ops.push((addr, Some(up)));
    }
    ops
}

fn apply(committer: &mut StateCommitter<MemStore>, ops: &Ops) {
    for (addr, up) in ops {
        match up {
            Some(up) => committer.update_account(addr, up),
            None => committer.delete_account(addr),
        }
    }
}

/// The oracle: a fresh committer fed the whole model at once.
fn scratch_root(model: &Model) -> B256 {
    let mut c = StateCommitter::new(MemStore::new());
    for (addr, acct) in model {
        let mut up = AccountUpdate::plain(acct.nonce, acct.balance, EMPTY_CODE_HASH);
        up.storage
            .extend(acct.storage.iter().map(|(&k, &v)| (k, v)));
        c.update_account(addr, &up);
    }
    c.commit()
}

#[test]
fn parallel_commit_matches_sequential_and_scratch_rebuild() {
    let mut rng = SplitMix64::new(0x9a7a_11e1);
    let mut model = Model::new();
    let mut seq = StateCommitter::new(MemStore::new());
    let mut par4 = StateCommitter::new(MemStore::new()).with_threads(4);
    let mut par8 = StateCommitter::new(MemStore::new()).with_threads(8);

    for round in 1..=ROUNDS {
        let ops = round_ops(&mut rng, &mut model);
        apply(&mut seq, &ops);
        apply(&mut par4, &ops);
        apply(&mut par8, &ops);

        let want = scratch_root(&model);
        let r1 = seq.commit();
        assert_eq!(
            r1, want,
            "sequential root diverged from model at round {round}"
        );
        assert_eq!(par4.commit(), r1, "4-thread root diverged at round {round}");
        assert_eq!(par8.commit(), r1, "8-thread root diverged at round {round}");
    }

    // The parallel committers must also *read* back the full model —
    // records and every storage slot — not just hash to the right root.
    for (addr, acct) in &model {
        for committer in [&mut par4, &mut par8] {
            let record = committer
                .account(addr)
                .expect("live account missing after parallel commits");
            assert_eq!(record.nonce, acct.nonce);
            assert_eq!(record.balance, acct.balance);
            for (&slot, &value) in &acct.storage {
                assert_eq!(committer.storage_value(addr, slot), value);
            }
        }
    }
    assert!(!model.is_empty(), "churn must leave live accounts");
}
