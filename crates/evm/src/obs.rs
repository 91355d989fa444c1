//! Telemetry wiring for the interpreter: cached handles into the global
//! [`mtpu_telemetry`] registry.
//!
//! Everything here is gated on [`mtpu_telemetry::enabled`]; when disabled
//! the interpreter pays one relaxed atomic load per instrumented point
//! (see the crate-level cost contract in `mtpu-telemetry`).

use crate::opcode::OpCategory;
use mtpu_telemetry::{Counter, Histogram};
use std::sync::OnceLock;

/// Cached handles for the EVM's hot-path metrics.
pub struct EvmMetrics {
    /// Executed-opcode count per Table 3 category
    /// (`evm.ops.<category>`), the opcode-mix view.
    pub ops_by_category: [Counter; OpCategory::ALL.len()],
    /// Gas consumed by committed transactions (`evm.gas_used`).
    pub gas_used: Counter,
    /// Memory-expansion events — word growth that charged quadratic gas
    /// (`evm.mem.expansions`).
    pub mem_expansions: Counter,
    /// Frame depth observed at every call/create entry
    /// (`evm.call_depth`).
    pub call_depth: Histogram,
    /// Frames that halted with `REVERT` (`evm.frame.reverts`).
    pub reverts: Counter,
    /// Frames that halted exceptionally (`evm.frame.exceptions`).
    pub exceptions: Counter,
    /// Transactions executed to completion (`evm.tx.executed`).
    pub tx_executed: Counter,
    /// Completed transactions whose receipt is a failure
    /// (`evm.tx.failed`).
    pub tx_failed: Counter,
    /// Code-analysis cache lookups served from the cache
    /// (`evm.analysis.hit`).
    pub analysis_hits: Counter,
    /// Code-analysis cache lookups that analyzed fresh bytecode
    /// (`evm.analysis.miss`).
    pub analysis_misses: Counter,
    /// Code-analysis cache entries dropped at capacity
    /// (`evm.analysis.evict`).
    pub analysis_evictions: Counter,
    /// Fused superinstruction sites discovered at analysis time
    /// (`evm.fusion.sites`).
    pub fusion_sites: Counter,
    /// Fused sites dispatched by the interpreter (`evm.fusion.hits`).
    pub fusion_hits: Counter,
    /// Constant-folded regions discovered at analysis time
    /// (`evm.fusion.folded_consts`).
    pub fusion_folded_consts: Counter,
}

fn category_key(cat: OpCategory) -> &'static str {
    match cat {
        OpCategory::Arithmetic => "evm.ops.arithmetic",
        OpCategory::Logic => "evm.ops.logic",
        OpCategory::Sha => "evm.ops.sha",
        OpCategory::FixedAccess => "evm.ops.fixed_access",
        OpCategory::StateQuery => "evm.ops.state_query",
        OpCategory::Memory => "evm.ops.memory",
        OpCategory::Storage => "evm.ops.storage",
        OpCategory::Branch => "evm.ops.branch",
        OpCategory::Stack => "evm.ops.stack",
        OpCategory::Control => "evm.ops.control",
        OpCategory::ContextSwitching => "evm.ops.context_switching",
    }
}

/// The process-wide cached handle set.
pub fn metrics() -> &'static EvmMetrics {
    static METRICS: OnceLock<EvmMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = mtpu_telemetry::global();
        EvmMetrics {
            ops_by_category: OpCategory::ALL.map(|c| reg.counter(category_key(c))),
            gas_used: reg.counter("evm.gas_used"),
            mem_expansions: reg.counter("evm.mem.expansions"),
            call_depth: reg.histogram("evm.call_depth"),
            reverts: reg.counter("evm.frame.reverts"),
            exceptions: reg.counter("evm.frame.exceptions"),
            tx_executed: reg.counter("evm.tx.executed"),
            tx_failed: reg.counter("evm.tx.failed"),
            analysis_hits: reg.counter("evm.analysis.hit"),
            analysis_misses: reg.counter("evm.analysis.miss"),
            analysis_evictions: reg.counter("evm.analysis.evict"),
            fusion_sites: reg.counter("evm.fusion.sites"),
            fusion_hits: reg.counter("evm.fusion.hits"),
            fusion_folded_consts: reg.counter("evm.fusion.folded_consts"),
        }
    })
}

/// Records a frame outcome (revert/exception counters).
pub(crate) fn frame_halt(halt: &crate::interpreter::Halt) {
    match halt {
        crate::interpreter::Halt::Revert => metrics().reverts.inc(),
        crate::interpreter::Halt::Exception(_) => metrics().exceptions.inc(),
        _ => {}
    }
}
