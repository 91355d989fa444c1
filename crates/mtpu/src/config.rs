//! MTPU configuration: the knobs of the paper's evaluation (PU count,
//! DB-cache size, optimization toggles) and the latency model.

/// Geometry of the decoded-bytecode cache (paper §3.3.3, Fig. 13 sweeps
/// `entries`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbCacheConfig {
    /// Number of cache lines ("entries" in Fig. 13: 64 … 4K).
    pub entries: usize,
    /// Set associativity.
    pub ways: usize,
}

impl Default for DbCacheConfig {
    fn default() -> Self {
        // The paper settles on 2K entries (Table 7).
        DbCacheConfig {
            entries: 2048,
            ways: 8,
        }
    }
}

/// Cycle costs of the execution stages and memory levels.
///
/// The absolute values are calibration constants of the simulator (the
/// paper's RTL has its own); what the experiments compare are *ratios*,
/// which are governed by the same mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Single-cycle ALU/stack/fixed-context instructions.
    pub simple: u64,
    /// MUL/DIV/MOD class.
    pub muldiv: u64,
    /// EXP (plus per-byte in the gas model only).
    pub exp: u64,
    /// SHA3 base (keccak-f latency).
    pub sha3: u64,
    /// MLOAD/MSTORE against the in-core MEM scratchpad.
    pub mem: u64,
    /// LOG instructions (receipt buffer append).
    pub log: u64,
    /// SLOAD/SSTORE hitting the State Buffer.
    pub state_buffer_hit: u64,
    /// SLOAD missing the State Buffer (off-chip main memory).
    pub state_miss: u64,
    /// SLOAD whose data was prefetched into the in-core data cache.
    pub dcache_hit: u64,
    /// BALANCE/EXTCODE* state queries (always off-chip class).
    pub state_query: u64,
    /// CALL-family fixed overhead (context save/restore).
    pub context_switch: u64,
    /// Main-memory fixed latency for a context-load burst.
    pub dram_latency: u64,
    /// Main-memory bandwidth in bytes per cycle for context loads.
    pub dram_bytes_per_cycle: u64,
    /// PU-side transaction selection (paper §3.2.3: O(n) bit logic).
    pub select_cycles: u64,
    /// Barrier/dispatch overhead per round of the synchronous baseline.
    pub sync_round_cycles: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            simple: 1,
            muldiv: 3,
            exp: 5,
            sha3: 8,
            mem: 1,
            log: 4,
            state_buffer_hit: 4,
            state_miss: 26,
            dcache_hit: 1,
            state_query: 24,
            context_switch: 16,
            dram_latency: 30,
            dram_bytes_per_cycle: 16,
            select_cycles: 4,
            sync_round_cycles: 30,
        }
    }
}

/// Entry capacity of the shared State Buffer, in (address, key) slots
/// (2 MiB of 64-byte entries in Table 5).
pub const STATE_BUFFER_SLOTS: usize = 32_768;

/// Per-PU Call_Contract Stack capacity in recently-loaded contract code
/// identities (redundant transactions reuse the loaded bytecode).
pub const CONTRACT_STACK_SLOTS: usize = 8;

/// Full MTPU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtpuConfig {
    /// Number of processing units (the paper evaluates 1–4).
    pub pu_count: usize,
    /// DB-cache geometry.
    pub db_cache: DbCacheConfig,
    /// Enable the fill unit + DB cache (the paper's **F&D**).
    pub enable_db_cache: bool,
    /// Enable data forwarding between reconfigurable units (**DF**).
    pub enable_forwarding: bool,
    /// Enable pattern detection + instruction folding (**IF**).
    pub enable_folding: bool,
    /// Reuse context/DB-cache/State-Buffer across redundant transactions
    /// (paper §3.3.5 and Fig. 16a).
    pub redundancy_opt: bool,
    /// Hotspot-contract optimization (paper §3.4 and Fig. 16b).
    pub hotspot_opt: bool,
    /// Candidate-window size *m* of the scheduling tables (Fig. 6).
    pub candidate_slots: usize,
    /// Assume a 100% DB-cache hit rate — the Fig. 12 upper-bound mode.
    pub force_hit: bool,
    /// Percentage of transactions already heard during dissemination and
    /// therefore eligible for pre-execution/prefetching (paper §3.4.2:
    /// 91.45%–98.15% of transactions are known before the block arrives).
    pub preknown_pct: u8,
    /// Latency model.
    pub lat: LatencyModel,
}

impl Default for MtpuConfig {
    fn default() -> Self {
        MtpuConfig {
            pu_count: 4,
            db_cache: DbCacheConfig::default(),
            enable_db_cache: true,
            enable_forwarding: true,
            enable_folding: true,
            redundancy_opt: true,
            hotspot_opt: false,
            candidate_slots: 8,
            force_hit: false,
            preknown_pct: 95,
            lat: LatencyModel::default(),
        }
    }
}

/// Deterministically decides whether block transaction `index` was heard
/// during dissemination (Knuth multiplicative hash over the index).
pub fn is_preknown(cfg: &MtpuConfig, index: usize) -> bool {
    ((index as u64).wrapping_mul(2_654_435_761) >> 16) % 100 < cfg.preknown_pct as u64
}

impl MtpuConfig {
    /// A single-PU configuration with *no* ILP machinery: the paper's
    /// baseline ("a single PU without any parallelism").
    pub fn baseline() -> Self {
        MtpuConfig {
            pu_count: 1,
            enable_db_cache: false,
            enable_forwarding: false,
            enable_folding: false,
            redundancy_opt: false,
            hotspot_opt: false,
            ..Default::default()
        }
    }

    /// Fig. 12 "F&D": fill unit + DB cache only.
    pub fn fd() -> Self {
        MtpuConfig {
            pu_count: 1,
            enable_forwarding: false,
            enable_folding: false,
            redundancy_opt: false,
            force_hit: true,
            ..Default::default()
        }
    }

    /// Fig. 12 "DF": F&D plus data forwarding.
    pub fn df() -> Self {
        MtpuConfig {
            enable_forwarding: true,
            enable_folding: false,
            ..Self::fd()
        }
    }

    /// Fig. 12 "IF": DF plus instruction folding.
    pub fn if_() -> Self {
        MtpuConfig {
            enable_folding: true,
            ..Self::df()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_compose() {
        let b = MtpuConfig::baseline();
        assert!(!b.enable_db_cache && b.pu_count == 1);
        let fd = MtpuConfig::fd();
        assert!(fd.enable_db_cache && !fd.enable_forwarding && fd.force_hit);
        let df = MtpuConfig::df();
        assert!(df.enable_forwarding && !df.enable_folding);
        let ifc = MtpuConfig::if_();
        assert!(ifc.enable_folding && ifc.enable_forwarding && ifc.enable_db_cache);
        assert_eq!(MtpuConfig::default().pu_count, 4);
    }
}
