//! Shared per-bytecode code analysis: the interpreter's hot-path metadata.
//!
//! Two pieces live here:
//!
//! * [`OP_TABLE`] — a 256-entry table, built at compile time from the
//!   [`Opcode`] declarations and the gas schedule, that folds the per-step
//!   validity / static-gas / stack-bounds checks of the dispatch loop into
//!   one cache line's worth of lookups.
//! * [`CodeAnalysis`] + [`AnalysisCache`] — a packed jumpdest bitmap plus
//!   the superinstruction fusion side-table ([`crate::fusion`]) per
//!   bytecode, computed once per distinct code hash and shared across
//!   transactions *and* across parallel worker threads, instead of the old
//!   per-frame `Vec<bool>` allocation.
//!
//! The cache is bounded (FIFO per shard) so adversarial streams of unique
//! contracts cannot grow it without limit; hits, misses and evictions are
//! reported through `evm.analysis.{hit,miss,evict}` telemetry counters,
//! and [`AnalysisCache::per_shard_stats`] breaks the same counters out per
//! shard so capacity churn (one hot shard evicting) is distinguishable
//! from uniform cold misses.

use crate::fusion::FusedTable;
use crate::gas;
use crate::opcode::Opcode;
use mtpu_primitives::map::BoundedMemo;
use mtpu_primitives::B256;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-opcode metadata consulted once per interpreter step.
#[derive(Clone, Copy, Debug)]
pub struct OpInfo {
    /// Static (size-independent) gas cost, from [`gas::static_cost`].
    pub static_gas: u32,
    /// Minimum stack depth required (the number of operands popped).
    pub min_stack: u16,
    /// Net stack growth (`pushes - pops`); at most `+1` for any opcode.
    pub net: i8,
    /// Immediate size in bytes (nonzero only for `PUSH1..PUSH32`).
    pub imm: u8,
    /// `false` for unassigned bytes — executing one is `InvalidOpcode`.
    pub defined: bool,
}

const fn op_info(byte: u8) -> OpInfo {
    match Opcode::from_u8(byte) {
        None => OpInfo {
            static_gas: 0,
            min_stack: 0,
            net: 0,
            imm: 0,
            defined: false,
        },
        Some(op) => OpInfo {
            static_gas: gas::static_cost(op) as u32,
            min_stack: op.stack_pops() as u16,
            net: op.stack_pushes() as i8 - op.stack_pops() as i8,
            imm: op.immediate_len() as u8,
            defined: true,
        },
    }
}

/// The dispatch-loop metadata table, indexed by raw opcode byte.
pub const OP_TABLE: [OpInfo; 256] = {
    let mut table = [op_info(0); 256];
    let mut i = 1usize;
    while i < 256 {
        table[i] = op_info(i as u8);
        i += 1;
    }
    table
};

/// Analysis of one bytecode: a packed-u64 jumpdest bitmap plus the
/// superinstruction fusion side-table.
///
/// The bitmap is a 64x denser, shareable form of a per-frame `Vec<bool>`
/// jumpdest map. The fusion table is always built (so toggling the fusion
/// flag at runtime needs no cache invalidation); whether the dispatch loop
/// consults it is decided per frame by [`crate::config::fusion_enabled`].
#[derive(Debug)]
pub struct CodeAnalysis {
    bitmap: Box<[u64]>,
    code_len: usize,
    fusion: FusedTable,
}

impl CodeAnalysis {
    /// Scans `code`, skipping PUSH immediates, records every `JUMPDEST`,
    /// and runs the fusion pass against the finished bitmap.
    pub fn analyze(code: &[u8]) -> CodeAnalysis {
        let mut bitmap = vec![0u64; code.len().div_ceil(64)];
        let mut pc = 0usize;
        while pc < code.len() {
            let byte = code[pc];
            if byte == Opcode::Jumpdest as u8 {
                bitmap[pc >> 6] |= 1u64 << (pc & 63);
            }
            pc += 1 + OP_TABLE[byte as usize].imm as usize;
        }
        let fusion = crate::fusion::build(code, |pc| match bitmap.get(pc >> 6) {
            Some(word) => (word >> (pc & 63)) & 1 != 0,
            None => false,
        });
        let metrics = crate::obs::metrics();
        metrics.fusion_sites.add(fusion.sites() as u64);
        metrics
            .fusion_folded_consts
            .add(fusion.folded_consts() as u64);
        CodeAnalysis {
            bitmap: bitmap.into_boxed_slice(),
            code_len: code.len(),
            fusion,
        }
    }

    /// `true` when `pc` is a valid jump destination. Out-of-range `pc`
    /// (including anything at or past the end of code) is simply `false`,
    /// so callers need no separate bounds check.
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        match self.bitmap.get(pc >> 6) {
            Some(word) => (word >> (pc & 63)) & 1 != 0,
            None => false,
        }
    }

    /// Length of the analyzed bytecode.
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// The superinstruction side-table of this bytecode.
    #[inline]
    pub fn fusion(&self) -> &FusedTable {
        &self.fusion
    }
}

/// Cache-counter snapshot, for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run [`CodeAnalysis::analyze`].
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

const SHARD_COUNT: usize = 16;

/// Default total capacity (in distinct bytecodes) of the global cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

struct Shard {
    memo: BoundedMemo<B256, Arc<CodeAnalysis>>,
    // Plain counters guarded by the shard lock: every probe already holds
    // it, so no cross-shard atomics are needed, and per-shard breakdowns
    // come for free.
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            memo: BoundedMemo::new(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// A bounded, sharded, thread-safe map from code hash to [`CodeAnalysis`].
///
/// Sharded by the first byte of the (uniformly distributed) code hash so
/// parallel worker threads executing different contracts rarely contend on
/// the same lock. Eviction is FIFO per shard. On a miss the analysis runs
/// *outside* the shard lock, so a large bytecode being analyzed never
/// blocks other threads probing the same shard; a racing thread that
/// finished first wins the insert and the loser adopts its entry.
pub struct AnalysisCache {
    shards: [Mutex<Shard>; SHARD_COUNT],
}

impl AnalysisCache {
    /// Creates a cache holding at most `capacity` analyses.
    pub fn new(capacity: usize) -> AnalysisCache {
        let per_shard_cap = capacity.div_ceil(SHARD_COUNT).max(1);
        AnalysisCache {
            shards: std::array::from_fn(|_| Mutex::new(Shard::new(per_shard_cap))),
        }
    }

    /// Selects the shard for `hash` — computed once per lookup from the
    /// hash's first byte (`SHARD_COUNT` is a power of two, so this is a
    /// mask, not a division).
    #[inline]
    fn shard_of(&self, hash: &B256) -> &Mutex<Shard> {
        const { assert!(SHARD_COUNT.is_power_of_two()) };
        &self.shards[hash.as_ref()[0] as usize & (SHARD_COUNT - 1)]
    }

    /// Returns the analysis for `hash`, computing it from `code` on a miss.
    pub fn get_or_analyze(&self, hash: B256, code: &[u8]) -> Arc<CodeAnalysis> {
        let shard = self.shard_of(&hash);
        {
            let mut guard = shard.lock().unwrap();
            if let Some(found) = guard.memo.get(&hash) {
                let found = Arc::clone(found);
                guard.hits += 1;
                crate::obs::metrics().analysis_hits.inc();
                return found;
            }
            guard.misses += 1;
        }
        crate::obs::metrics().analysis_misses.inc();
        // Analyze without holding the lock; re-probe before inserting in
        // case another thread finished the same bytecode meanwhile.
        let analysis = Arc::new(CodeAnalysis::analyze(code));
        let mut guard = shard.lock().unwrap();
        if let Some(found) = guard.memo.get(&hash) {
            return Arc::clone(found);
        }
        let evicted = guard.memo.insert(hash, Arc::clone(&analysis));
        guard.evictions += evicted;
        crate::obs::metrics().analysis_evictions.add(evicted);
        analysis
    }

    /// Number of cached analyses.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().memo.len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counter values across all shards.
    pub fn stats(&self) -> CacheStats {
        self.per_shard_stats()
            .iter()
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                evictions: acc.evictions + s.evictions,
            })
    }

    /// Counter values broken out per shard, so `evm.analysis.evict` churn
    /// can be attributed: one hot shard evicting at capacity looks very
    /// different from uniform cold misses across all sixteen.
    pub fn per_shard_stats(&self) -> [CacheStats; SHARD_COUNT] {
        std::array::from_fn(|i| self.shards[i].lock().unwrap().stats())
    }
}

/// The process-wide cache used by the interpreter for every frame.
pub fn global_cache() -> &'static AnalysisCache {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    CACHE.get_or_init(|| AnalysisCache::new(DEFAULT_CACHE_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::STACK_LIMIT;

    /// The reference jumpdest scan: one `bool` per code byte, walked
    /// through the opcode declarations rather than [`OP_TABLE`].
    fn jumpdest_map(code: &[u8]) -> Vec<bool> {
        let mut map = vec![false; code.len()];
        let mut pc = 0usize;
        while pc < code.len() {
            match Opcode::from_u8(code[pc]) {
                Some(Opcode::Jumpdest) => {
                    map[pc] = true;
                    pc += 1;
                }
                Some(op) => pc += 1 + op.immediate_len(),
                None => pc += 1,
            }
        }
        map
    }

    #[test]
    fn table_matches_opcode_declarations() {
        for byte in 0u16..=255 {
            let info = OP_TABLE[byte as usize];
            match Opcode::from_u8(byte as u8) {
                None => assert!(!info.defined, "byte {byte:#x} wrongly defined"),
                Some(op) => {
                    assert!(info.defined);
                    assert_eq!(info.static_gas as u64, gas::static_cost(op));
                    assert_eq!(info.min_stack as usize, op.stack_pops());
                    assert_eq!(
                        info.net as isize,
                        op.stack_pushes() as isize - op.stack_pops() as isize
                    );
                    assert_eq!(info.imm as usize, op.immediate_len());
                    // The overflow precheck relies on net growth never
                    // exceeding one element per instruction.
                    assert!(info.net <= 1);
                    assert!(info.min_stack as usize <= STACK_LIMIT);
                }
            }
        }
    }

    fn splitmix64(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn bitmap_matches_vec_bool_on_random_bytecode() {
        let mut seed = 0x5eed_cafe_f00d_1234u64;
        for case in 0..64 {
            let len = (splitmix64(&mut seed) % 512) as usize + case;
            let code: Vec<u8> = (0..len).map(|_| splitmix64(&mut seed) as u8).collect();
            let reference = jumpdest_map(&code);
            let analysis = CodeAnalysis::analyze(&code);
            assert_eq!(analysis.code_len(), code.len());
            for (pc, &expected) in reference.iter().enumerate() {
                assert_eq!(
                    analysis.is_jumpdest(pc),
                    expected,
                    "pc {pc} of case {case} (len {len})"
                );
            }
            // Past the end of code is never a valid destination.
            assert!(!analysis.is_jumpdest(code.len()));
            assert!(!analysis.is_jumpdest(code.len() + 1000));
            assert!(!analysis.is_jumpdest(usize::MAX));
        }
    }

    #[test]
    fn jumpdest_inside_immediate_is_invalid() {
        // PUSH2 0x5b 0x5b JUMPDEST — only the standalone 0x5b is valid.
        let code = [0x61, 0x5b, 0x5b, 0x5b];
        let analysis = CodeAnalysis::analyze(&code);
        assert!(!analysis.is_jumpdest(1));
        assert!(!analysis.is_jumpdest(2));
        assert!(analysis.is_jumpdest(3));
    }

    #[test]
    fn cache_hits_and_misses_count() {
        let cache = AnalysisCache::new(64);
        let code = [0x5b, 0x00];
        let hash = B256::keccak(&code);
        let a = cache.get_or_analyze(hash, &code);
        let b = cache.get_or_analyze(hash, &code);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_shared_across_threads_single_miss() {
        let cache = Arc::new(AnalysisCache::new(64));
        let code: Vec<u8> = vec![0x5b, 0x60, 0x01, 0x00];
        let hash = B256::keccak(&code);
        // Warm the entry so the thread counts below are deterministic.
        cache.get_or_analyze(hash, &code);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let code = code.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let a = cache.get_or_analyze(hash, &code);
                        assert!(a.is_jumpdest(0));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "same code hash must analyze exactly once");
        assert_eq!(stats.hits, 200);
    }

    #[test]
    fn cache_evicts_fifo_when_full() {
        let cache = AnalysisCache::new(1); // 1 entry per shard
                                           // Distinct single-byte codes hash into various shards; overfill one
                                           // shard by inserting enough distinct codes.
        let mut inserted = 0u64;
        for i in 0..200u16 {
            let code = [0x5b, i as u8, (i >> 8) as u8];
            cache.get_or_analyze(B256::keccak(&code), &code);
            inserted += 1;
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, inserted);
        assert!(stats.evictions > 0, "capacity 1/shard must evict");
        assert!(cache.len() <= SHARD_COUNT);
    }

    #[test]
    fn per_shard_stats_sum_to_aggregate() {
        let cache = AnalysisCache::new(4); // 1 entry per shard
        for i in 0..64u16 {
            let code = [0x60, i as u8, (i >> 8) as u8, 0x00];
            let hash = B256::keccak(&code);
            cache.get_or_analyze(hash, &code);
            // Immediate re-probe: nothing else inserted into the shard in
            // between, so this must be a hit.
            cache.get_or_analyze(hash, &code);
        }
        let per_shard = cache.per_shard_stats();
        let total = cache.stats();
        assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), total.hits);
        assert_eq!(
            per_shard.iter().map(|s| s.misses).sum::<u64>(),
            total.misses
        );
        assert_eq!(
            per_shard.iter().map(|s| s.evictions).sum::<u64>(),
            total.evictions
        );
        assert_eq!(total.hits, 64);
        assert_eq!(total.misses, 64);
        // 64 distinct codes over 16 shards at capacity one: capacity churn
        // must show up in at least one shard's eviction counter.
        assert!(per_shard.iter().any(|s| s.evictions > 0));
    }

    #[test]
    fn analysis_carries_fusion_table() {
        // PUSH1 4, JUMP, INVALID, JUMPDEST, STOP — one PUSH+JUMP site.
        let code = [0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00];
        let analysis = CodeAnalysis::analyze(&code);
        assert_eq!(analysis.fusion().sites(), 1);
        assert!(analysis.fusion().spec_at(0).is_some());
    }
}
