//! Telemetry wiring for the state trie: cached handles into the global
//! [`mtpu_telemetry`] registry.
//!
//! Same contract as the other instrumented crates: every recording site
//! checks [`mtpu_telemetry::enabled`] first, so a disabled registry costs
//! one relaxed atomic load per event. The per-instance
//! [`crate::trie::TrieStats`] counters are *not* gated — acceptance
//! checks rely on them regardless of telemetry state.

use mtpu_telemetry::{Counter, Histogram};
use std::sync::OnceLock;

/// Cached handles for the trie's metrics.
pub struct StatedbMetrics {
    /// Node-cache hits (`statedb.cache.hit`).
    pub cache_hit: Counter,
    /// Node-cache misses (`statedb.cache.miss`).
    pub cache_miss: Counter,
    /// Node-cache evictions (`statedb.cache.evict`).
    pub cache_evict: Counter,
    /// Nodes encoded + keccak-hashed during commits
    /// (`statedb.node.hashed`) — the incremental-commit work metric.
    pub nodes_hashed: Counter,
    /// Encoded nodes written to the backing store
    /// (`statedb.node.stored`).
    pub nodes_stored: Counter,
    /// Nodes decoded from the backing store (`statedb.node.loaded`).
    pub nodes_loaded: Counter,
    /// Nodes removed from the backing store when their last link was
    /// dropped (`statedb.node.released`).
    pub nodes_released: Counter,
    /// Root commits performed (`statedb.commit`).
    pub commits: Counter,
    /// Nodes hashed per commit (`statedb.commit.nodes`), the dirty-path
    /// size distribution.
    pub commit_nodes: Histogram,
    /// Storage subtries committed on worker threads
    /// (`statedb.parallel.subtries`).
    pub par_subtries: Counter,
    /// Nodes merged into the store from worker batches
    /// (`statedb.parallel.batch_nodes`).
    pub par_batch_nodes: Counter,
    /// Cumulative worker-thread hashing time
    /// (`statedb.parallel.workers_busy_ns`) — compare against the commit
    /// span's wall time to read parallel efficiency.
    pub par_busy_ns: Counter,
}

/// The process-wide cached handle set.
pub fn metrics() -> &'static StatedbMetrics {
    static METRICS: OnceLock<StatedbMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = mtpu_telemetry::global();
        StatedbMetrics {
            cache_hit: reg.counter("statedb.cache.hit"),
            cache_miss: reg.counter("statedb.cache.miss"),
            cache_evict: reg.counter("statedb.cache.evict"),
            nodes_hashed: reg.counter("statedb.node.hashed"),
            nodes_stored: reg.counter("statedb.node.stored"),
            nodes_loaded: reg.counter("statedb.node.loaded"),
            nodes_released: reg.counter("statedb.node.released"),
            commits: reg.counter("statedb.commit"),
            commit_nodes: reg.histogram("statedb.commit.nodes"),
            par_subtries: reg.counter("statedb.parallel.subtries"),
            par_batch_nodes: reg.counter("statedb.parallel.batch_nodes"),
            par_busy_ns: reg.counter("statedb.parallel.workers_busy_ns"),
        }
    })
}
