//! Telemetry wiring for the read layer: cached handles into the global
//! [`mtpu_telemetry`] registry, gated on [`mtpu_telemetry::enabled`].
//! Metric names are documented in DESIGN.md §13.

use mtpu_telemetry::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Cached handles for the read-layer metrics.
pub struct ReadserveMetrics {
    /// `get_balance`/`get_nonce` latency in ns (`readserve.balance_ns`).
    pub balance_ns: Histogram,
    /// `get_storage` latency in ns (`readserve.storage_ns`).
    pub storage_ns: Histogram,
    /// Batched `get_many` latency in ns (`readserve.get_many_ns`).
    pub get_many_ns: Histogram,
    /// `get_code` latency in ns (`readserve.code_ns`).
    pub code_ns: Histogram,
    /// Read-only `call` simulation latency in ns (`readserve.call_ns`).
    pub call_ns: Histogram,
    /// Receipt-by-hash lookup latency in ns (`readserve.receipt_ns`).
    pub receipt_ns: Histogram,
    /// Snapshots currently retained in the window (`readserve.retained`).
    pub retained: Gauge,
    /// Worst subscriber lag in blocks (`readserve.feed_lag`).
    pub feed_lag: Gauge,
    /// Snapshots published over the chain's lifetime
    /// (`readserve.published`).
    pub published: Counter,
    /// Snapshots pruned out of the window (`readserve.pruned`).
    pub pruned: Counter,
    /// Feed events shed to slow subscribers (`readserve.dropped`).
    pub feed_dropped: Counter,
}

/// The process-wide cached handle set.
pub fn metrics() -> &'static ReadserveMetrics {
    static METRICS: OnceLock<ReadserveMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = mtpu_telemetry::global();
        ReadserveMetrics {
            balance_ns: reg.histogram("readserve.balance_ns"),
            storage_ns: reg.histogram("readserve.storage_ns"),
            get_many_ns: reg.histogram("readserve.get_many_ns"),
            code_ns: reg.histogram("readserve.code_ns"),
            call_ns: reg.histogram("readserve.call_ns"),
            receipt_ns: reg.histogram("readserve.receipt_ns"),
            retained: reg.gauge("readserve.retained"),
            feed_lag: reg.gauge("readserve.feed_lag"),
            published: reg.counter("readserve.published"),
            pruned: reg.counter("readserve.pruned"),
            feed_dropped: reg.counter("readserve.dropped"),
        }
    })
}
