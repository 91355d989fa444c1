//! Seeded hash maps for state keys.
//!
//! Every map the node builds is keyed by an [`Address`](crate::Address),
//! a [`U256`](crate::U256), a `(Address, U256)` slot or a
//! [`B256`](crate::B256), and probing those maps is spread over every stage
//! of a block. [`FastMap`] and [`FastSet`] are std's `HashMap` and
//! `HashSet` under [`FoldState`] instead of SipHash-1-3: one 64×64→128
//! multiply per 8-byte word, xor-folded, and one more fold in
//! [`Hasher::finish`].
//!
//! Each [`FoldState::default`] draws a distinct secret seed: a per-thread
//! sequence started from a process seed (OS randomness through std's
//! `RandomState`) and the thread's ordinal, stepped once per instance.
//! Keys an attacker chooses (storage slots, CREATE2 addresses) therefore
//! meet a seed they cannot read, and copying one map into another in
//! iteration order does not cluster, because the two maps do not share a
//! seed.
//!
//! [`BoundedMemo`] is the workspace's one bounded FIFO map: a [`FastMap`]
//! plus its insertion order, evicting the oldest entry at capacity.
//!
//! ```
//! use mtpu_primitives::map::FastMap;
//! use mtpu_primitives::{Address, U256};
//!
//! let mut slots: FastMap<(Address, U256), U256> = FastMap::default();
//! slots.insert((Address::from_low_u64(1), U256::ONE), U256::from(7u64));
//! assert_eq!(slots[&(Address::from_low_u64(1), U256::ONE)], U256::from(7u64));
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// std's `HashMap` under [`FoldState`].
#[allow(clippy::disallowed_types)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FoldState>;

/// std's `HashSet` under [`FoldState`].
#[allow(clippy::disallowed_types)]
pub type FastSet<K> = std::collections::HashSet<K, FoldState>;

/// Multiplier of the per-word step (odd; the hex digits of π).
const WORD_MUL: u64 = 0x243f_6a88_85a3_08d3;
/// Multiplier of the final fold (odd; the next digits of π).
const FINISH_MUL: u64 = 0x1319_8a2e_0370_7345;
/// Step of the per-thread seed sequence (2⁶⁴ / φ, odd).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The full 128-bit product of `x` and `y`, its halves xored together.
#[inline(always)]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The SplitMix64 finalizer: a bijection, so distinct sequence states give
/// distinct seeds.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Drawn once per process from the OS randomness behind `RandomState`.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(GOLDEN))
}

/// Bumped once per thread, on the thread's first map.
static THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SEQUENCE: Cell<u64> = Cell::new(mix(
        process_seed() ^ THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed).wrapping_mul(GOLDEN),
    ));
}

/// The next seed of this thread's sequence.
fn next_seed() -> u64 {
    SEQUENCE.with(|state| {
        let next = state.get().wrapping_add(GOLDEN);
        state.set(next);
        mix(next)
    })
}

/// The [`BuildHasher`] of [`FastMap`] and [`FastSet`]: one secret seed,
/// distinct per [`Default::default`] call and shared by clones (so a cloned
/// map hashes exactly as its source).
#[derive(Clone, Debug)]
pub struct FoldState {
    seed: u64,
}

impl Default for FoldState {
    #[inline]
    fn default() -> Self {
        FoldState { seed: next_seed() }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { acc: self.seed }
    }
}

/// The hasher [`FoldState`] builds: the accumulator starts at the seed and
/// absorbs each 8-byte word with one folded multiply.
#[derive(Clone, Debug)]
pub struct FoldHasher {
    acc: u64,
}

impl FoldHasher {
    #[inline(always)]
    fn absorb(&mut self, word: u64) {
        self.acc = folded_multiply(self.acc ^ word, WORD_MUL);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.absorb(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.absorb(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.absorb(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.absorb(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.absorb(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.absorb(i as u64);
    }

    /// One more fold, so a difference in the last word reaches both the
    /// low bits (the bucket) and the top 7 bits (the SwissTable tag).
    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, FINISH_MUL)
    }
}

/// A bounded FIFO map, for caches and memos whose keys never change
/// meaning (content hashes, the keccak of an address or a slot).
///
/// [`BoundedMemo::remove`] leaves the key's queue entry behind as a
/// stale entry. Every entry carries the sequence number it was queued
/// under, so eviction skips stale entries, even one whose key has since
/// been re-inserted, and the queue is compacted whenever it would pass
/// twice the capacity. Live entries never exceed the capacity; queue
/// entries never exceed twice the capacity.
#[derive(Debug, Clone)]
pub struct BoundedMemo<K, V> {
    /// Live entries, each with the sequence number of its queue entry.
    map: FastMap<K, (V, u64)>,
    /// Insertion order, oldest first; may hold stale entries.
    order: VecDeque<(K, u64)>,
    next_seq: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedMemo<K, V> {
    /// A memo holding at most `capacity` entries (0 disables memoizing).
    pub fn new(capacity: usize) -> Self {
        BoundedMemo {
            map: FastMap::default(),
            order: VecDeque::new(),
            next_seq: 0,
            capacity,
        }
    }

    /// Entries currently memoized.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Most entries held at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The memoized value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Memoizes `value` under `key` unless the key is already present (or
    /// memoizing is disabled), evicting the oldest entries at capacity.
    /// Returns how many entries were evicted.
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.capacity {
            let Some((old, seq)) = self.order.pop_front() else {
                break;
            };
            if self.map.get(&old).is_some_and(|&(_, live)| live == seq) {
                self.map.remove(&old);
                evicted += 1;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.push_back((key.clone(), seq));
        self.map.insert(key, (value, seq));
        if self.order.len() > 2 * self.capacity {
            let map = &self.map;
            self.order
                .retain(|(k, seq)| map.get(k).is_some_and(|&(_, live)| live == *seq));
        }
        evicted
    }

    /// Removes `key`, returning its value. Not an eviction.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(v, _)| v)
    }

    /// The memoized value for `key`, computing and inserting it with `f`
    /// on a miss.
    pub fn get_or_insert_with(&mut self, key: &K, f: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v.clone();
        }
        let v = f();
        self.insert(key.clone(), v.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{keccak256, Address, SplitMix64, B256, U256};

    const KEYS: usize = 1 << 16;

    /// Bucket (low 16 bits) depth and tag (top 7 bits) coverage of one
    /// family of 2¹⁶ keys under one fresh state.
    fn assert_spread<K: Hash>(family: &str, keys: impl Iterator<Item = K>) {
        let state = FoldState::default();
        let mut depth = vec![0u32; KEYS];
        let mut tags = [false; 128];
        let mut n = 0;
        for key in keys {
            let h = state.hash_one(&key);
            depth[h as usize & (KEYS - 1)] += 1;
            tags[(h >> 57) as usize] = true;
            n += 1;
        }
        assert_eq!(n, KEYS, "{family}: family size");
        let deepest = *depth.iter().max().unwrap();
        assert!(deepest <= 16, "{family}: a bucket holds {deepest} keys");
        let distinct = tags.iter().filter(|t| **t).count();
        assert!(distinct >= 120, "{family}: only {distinct} of 128 tags");
    }

    fn sequential() -> impl Iterator<Item = u64> {
        0..KEYS as u64
    }

    /// The bytes of every `write` a key's `Hash` makes.
    fn writes(key: impl Hash) -> Vec<Vec<u8>> {
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Hasher for Writes {
            fn write(&mut self, bytes: &[u8]) {
                self.0.push(bytes.to_vec());
            }
            fn finish(&self) -> u64 {
                0
            }
        }
        let mut w = Writes::default();
        key.hash(&mut w);
        w.0
    }

    #[test]
    fn state_keys_hash_without_a_length_prefix() {
        let addr = Address::from_low_u64(7);
        assert_eq!(writes(addr), [addr.as_bytes().to_vec()]);
        let hash = B256::keccak(b"x");
        assert_eq!(writes(hash), [hash.as_bytes().to_vec()]);
        let limbs = [1u64, 2, 3, u64::MAX];
        assert_eq!(
            writes(U256::from_limbs(limbs)),
            limbs.map(|l| l.to_ne_bytes().to_vec())
        );
    }

    #[test]
    fn sequential_slots_spread() {
        assert_spread("U256 slot i", sequential().map(U256::from));
    }

    #[test]
    fn low_u64_addresses_spread() {
        assert_spread(
            "Address::from_low_u64(i)",
            sequential().map(Address::from_low_u64),
        );
    }

    #[test]
    fn one_account_slots_spread() {
        let account = Address::from_low_u64(0xdead_beef);
        assert_spread(
            "(account, slot i)",
            sequential().map(|i| (account, U256::from(i))),
        );
    }

    #[test]
    fn top_limb_words_spread() {
        // Keys that differ only in the top limb, in its low or its high
        // bits: the classic weak family of multiplicative hashing.
        assert_spread(
            "top limb i",
            sequential().map(|i| U256::from_limbs([7, 7, 7, i])),
        );
        assert_spread(
            "top limb i << 48",
            sequential().map(|i| U256::from_limbs([7, 7, 7, i << 48])),
        );
    }

    #[test]
    fn keccak_mapping_slots_spread() {
        // `balances[holder i]` at slot 0: keccak256(holder ++ 0).
        assert_spread(
            "keccak mapping slot",
            sequential().map(|i| {
                let mut buf = [0u8; 64];
                buf[..32].copy_from_slice(&U256::from(i).to_be_bytes());
                U256::from_be_bytes(keccak256(&buf))
            }),
        );
    }

    #[test]
    fn every_bit_of_the_last_word_reaches_the_bucket_and_the_tag() {
        // Flip one bit of a key's last word: each of the 16 bucket bits and
        // the 7 tag bits must flip in roughly half of 256 random keys.
        let state = FoldState::default();
        let mut rng = SplitMix64::new(0xF01D);
        let bases: Vec<[u64; 4]> = (0..256)
            .map(|_| {
                [
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                    rng.next_u64(),
                ]
            })
            .collect();
        let watched = |h: u64| (h & 0xffff) | ((h >> 57) << 16);
        for bit in 0..64 {
            let mut flips = [0u32; 23];
            for limbs in &bases {
                let mut flipped = *limbs;
                flipped[3] ^= 1 << bit;
                let diff = watched(state.hash_one(U256::from_limbs(*limbs)))
                    ^ watched(state.hash_one(U256::from_limbs(flipped)));
                for (out, count) in flips.iter_mut().enumerate() {
                    *count += (diff >> out & 1) as u32;
                }
            }
            for (out, count) in flips.iter().enumerate() {
                assert!(
                    (64..=192).contains(count),
                    "input bit {bit} flips output bit {out} in {count} of 256 keys"
                );
            }
        }
    }

    #[test]
    fn two_defaults_hash_one_key_differently() {
        let key = (Address::from_low_u64(3), U256::from(5u64));
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_ne!(a.hash_one(key), b.hash_one(key));
    }

    #[test]
    fn states_on_two_threads_differ() {
        let key = U256::from(42u64);
        let here = FoldState::default().hash_one(key);
        let there = std::thread::spawn(move || FoldState::default().hash_one(key))
            .join()
            .unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn a_clone_hashes_identically() {
        let state = FoldState::default();
        let clone = state.clone();
        for i in 0..64u64 {
            let key = Address::from_low_u64(i);
            assert_eq!(state.hash_one(key), clone.hash_one(key));
        }
        let mut map: FastMap<U256, u64> = FastMap::default();
        map.extend((0..1000u64).map(|i| (U256::from(i), i)));
        let copy = map.clone();
        assert!(
            map.keys().eq(copy.keys()),
            "a cloned map iterates in its source's order"
        );
    }

    #[test]
    fn memo_computes_once_and_evicts_fifo() {
        let mut m: BoundedMemo<u32, u64> = BoundedMemo::new(2);
        let calls = Cell::new(0u32);
        let probe = |m: &mut BoundedMemo<u32, u64>, k: u32| {
            m.get_or_insert_with(&k, || {
                calls.set(calls.get() + 1);
                u64::from(k) * 10
            })
        };
        assert_eq!(probe(&mut m, 1), 10);
        assert_eq!(probe(&mut m, 1), 10);
        assert_eq!(calls.get(), 1, "second lookup must hit the memo");
        probe(&mut m, 2);
        probe(&mut m, 3); // evicts key 1
        assert_eq!(m.len(), 2);
        assert_eq!(probe(&mut m, 1), 10);
        assert_eq!(calls.get(), 4, "evicted key is recomputed");
    }

    #[test]
    fn zero_capacity_memo_still_computes() {
        let mut m: BoundedMemo<u32, u64> = BoundedMemo::new(0);
        assert_eq!(m.get_or_insert_with(&5, || 50), 50);
        assert!(m.is_empty());
    }

    #[test]
    fn interleaved_removes_and_re_inserts_keep_the_queue_bounded() {
        let cap = 64;
        let mut m: BoundedMemo<u32, u32> = BoundedMemo::new(cap);
        let mut evicted = 0;
        for i in 0..10 * cap as u32 {
            evicted += m.insert(i, i);
            // Remove and re-insert a recent key, the way a node cache sees
            // a mutation walk followed by the commit of an unchanged node.
            if i % 3 == 0 {
                let back = i - i % 7;
                if let Some(v) = m.remove(&back) {
                    evicted += m.insert(back, v);
                }
            }
            if i % 5 == 0 {
                m.remove(&(i / 2));
            }
            assert!(m.len() <= cap, "live entries over capacity");
            assert!(m.order.len() <= 2 * cap, "queue over 2x capacity");
        }
        assert!(evicted > 0, "overfilling must evict");
        // Every live entry still has exactly one live queue entry.
        let live = m
            .order
            .iter()
            .filter(|(k, seq)| m.map.get(k).is_some_and(|&(_, s)| s == *seq))
            .count();
        assert_eq!(live, m.len());
        // Inserts removed straight back never fill the map, so only the
        // compaction keeps their stale queue entries bounded.
        let mut d: BoundedMemo<u32, u32> = BoundedMemo::new(cap);
        for i in 0..10 * cap as u32 {
            assert_eq!(d.insert(i, i), 0);
            d.remove(&i);
            assert!(d.order.len() <= 2 * cap, "queue over 2x capacity");
        }
    }
}
