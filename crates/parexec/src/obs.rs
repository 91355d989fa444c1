//! Telemetry wiring for the parallel executor: cached handles into the
//! global [`mtpu_telemetry`] registry.
//!
//! All recording is gated on [`mtpu_telemetry::enabled`]; the lane and
//! speculator hot paths pay one relaxed atomic load per instrumented point
//! when disabled.

use mtpu_evm::overlay::StaleRead;
use mtpu_telemetry::{Counter, Histogram};
use std::sync::OnceLock;

/// Cached handles for the parallel executor's metrics.
pub struct ParexecMetrics {
    /// Transactions committed by the lane (`parexec.commit`).
    pub commits: Counter,
    /// Commits the lane executed in place, first run or fallback
    /// (`parexec.commit.in_place`).
    pub commit_in_place: Counter,
    /// Commits of a validated speculative outcome
    /// (`parexec.commit.speculated`).
    pub commit_speculated: Counter,
    /// Read-set validations that failed (`parexec.abort`).
    pub aborts: Counter,
    /// Bounded speculative re-executions before parking
    /// (`parexec.reexec.speculative`).
    pub spec_retries: Counter,
    /// The lane's in-place re-executions of stale parked outcomes
    /// (`parexec.reexec.fallback`).
    pub fallbacks: Counter,
    /// Ready-heap entries left after each speculator claim
    /// (`parexec.queue_depth`).
    pub queue_depth: Histogram,
    /// Nanoseconds speculators slept waiting for ready work and the lane
    /// slept on a held head (`parexec.worker.idle_ns`).
    pub idle_ns: Counter,
    /// Nanoseconds workers spent executing, validating and committing
    /// (`parexec.worker.busy_ns`).
    pub busy_ns: Counter,
    /// Validation failures by stale-key kind
    /// (`parexec.validation_fail.<label>`).
    vfail: [Counter; 6],
}

impl ParexecMetrics {
    /// The failure counter for one stale-read kind.
    pub fn validation_fail(&self, kind: StaleRead) -> &Counter {
        let i = match kind {
            StaleRead::Poisoned => 0,
            StaleRead::Exists => 1,
            StaleRead::Balance => 2,
            StaleRead::Nonce => 3,
            StaleRead::Code => 4,
            StaleRead::Storage => 5,
        };
        &self.vfail[i]
    }
}

/// The process-wide cached handle set.
pub fn metrics() -> &'static ParexecMetrics {
    static METRICS: OnceLock<ParexecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = mtpu_telemetry::global();
        let vfail = [
            StaleRead::Poisoned,
            StaleRead::Exists,
            StaleRead::Balance,
            StaleRead::Nonce,
            StaleRead::Code,
            StaleRead::Storage,
        ]
        .map(|k| reg.counter(&format!("parexec.validation_fail.{}", k.label())));
        ParexecMetrics {
            commits: reg.counter("parexec.commit"),
            commit_in_place: reg.counter("parexec.commit.in_place"),
            commit_speculated: reg.counter("parexec.commit.speculated"),
            aborts: reg.counter("parexec.abort"),
            spec_retries: reg.counter("parexec.reexec.speculative"),
            fallbacks: reg.counter("parexec.reexec.fallback"),
            queue_depth: reg.histogram("parexec.queue_depth"),
            idle_ns: reg.counter("parexec.worker.idle_ns"),
            busy_ns: reg.counter("parexec.worker.busy_ns"),
            vfail,
        }
    })
}
