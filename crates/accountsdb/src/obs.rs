//! Telemetry wiring for the flat accounts store: cached handles into the
//! global [`mtpu_telemetry`] registry, gated on
//! [`mtpu_telemetry::enabled`]. Metric names are documented in
//! DESIGN.md §7.

use mtpu_telemetry::{Counter, Gauge};
use std::sync::OnceLock;

/// Cached handles for the accounts-DB metrics.
pub struct AccountsDbMetrics {
    /// Flushes, one storage file each (`accountsdb.flush`).
    pub flush: Counter,
    /// Snapshots written (`accountsdb.snapshot`).
    pub snapshot: Counter,
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
            flush: reg.counter("accountsdb.flush"),
            snapshot: reg.counter("accountsdb.snapshot"),
            flush_lag: reg.gauge("accountsdb.flush_lag"),
        }
    })
}
