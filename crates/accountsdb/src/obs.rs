//! Telemetry wiring for the flat accounts store: cached handles into the
//! global [`mtpu_telemetry`] registry, gated on
//! [`mtpu_telemetry::enabled`]. Metric names are documented in
//! DESIGN.md §7.

use mtpu_telemetry::{Counter, Gauge};
use std::sync::OnceLock;

/// Cached handles for the accounts-DB metrics.
pub struct AccountsDbMetrics {
    /// Reads served by the write cache (`accountsdb.cache_hit`).
    pub cache_hit: Counter,
    /// Reads the write cache missed, answered by the in-memory index
    /// (`accountsdb.cache_miss`).
    pub cache_miss: Counter,
    /// Write-cache flushes into a storage file (`accountsdb.flush`).
    pub flush: Counter,
    /// Snapshots written (`accountsdb.snapshot`).
    pub snapshot: Counter,
    /// Current write-cache depth in accounts (`accountsdb.cache_depth`).
    pub cache_depth: Gauge,
    /// Blocks between the head and the last flushed height
    /// (`accountsdb.flush_lag`).
    pub flush_lag: Gauge,
}

/// The process-wide cached handle set.
pub fn metrics() -> &'static AccountsDbMetrics {
    static METRICS: OnceLock<AccountsDbMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = mtpu_telemetry::global();
        AccountsDbMetrics {
            cache_hit: reg.counter("accountsdb.cache_hit"),
            cache_miss: reg.counter("accountsdb.cache_miss"),
            flush: reg.counter("accountsdb.flush"),
            snapshot: reg.counter("accountsdb.snapshot"),
            cache_depth: reg.gauge("accountsdb.cache_depth"),
            flush_lag: reg.gauge("accountsdb.flush_lag"),
        }
    })
}
