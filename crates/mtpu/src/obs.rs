//! Telemetry wiring for the MTPU timing model: cached handles into the
//! global [`mtpu_telemetry`] registry.
//!
//! All recording is gated on [`mtpu_telemetry::enabled`]; the simulator
//! pays one relaxed atomic load per instrumented point when disabled.

use mtpu_telemetry::{Counter, Histogram};
use std::sync::OnceLock;

/// Cached handles for the MTPU simulator's metrics.
pub struct MtpuMetrics {
    /// DB-cache tag matches (`mtpu.db.hit`). A matched line that then
    /// fails validation against the stream issues as a miss but is
    /// still counted here.
    pub db_hit: Counter,
    /// DB-cache lookups that missed (`mtpu.db.miss`).
    pub db_miss: Counter,
    /// Lines inserted by the fill unit (`mtpu.db.insert`).
    pub db_insert: Counter,
    /// Micro-ops per stored line (`mtpu.db.line_ops`) — line occupancy.
    pub db_line_ops: Histogram,
    /// Fill unit closed a line on a functional-unit slot conflict
    /// (`mtpu.db.fill_stop.unit_conflict`).
    pub fill_stop_unit_conflict: Counter,
    /// Fill unit closed a line on an unforwardable RAW dependency
    /// (`mtpu.db.fill_stop.raw`).
    pub fill_stop_raw: Counter,
    /// Fill unit closed a line at a control-transfer boundary
    /// (`mtpu.db.fill_stop.block_end`).
    pub fill_stop_block_end: Counter,
    /// State-Buffer probe hits — slot reuse (`mtpu.sb.hit`).
    pub sb_hit: Counter,
    /// State-Buffer probe misses (`mtpu.sb.miss`).
    pub sb_miss: Counter,
    /// Context bytes loaded from main memory (`mtpu.ctx.bytes`).
    pub ctx_bytes: Counter,
    /// Cycles spent on context loads (`mtpu.ctx.cycles`).
    pub ctx_cycles: Counter,
    /// Original instructions retired (`mtpu.pu.instructions`).
    pub instructions: Counter,
    /// Issue events — lines or single ops (`mtpu.pu.issue_events`).
    pub issue_events: Counter,
    /// Total simulated cycles (`mtpu.pu.cycles`).
    pub cycles: Counter,
    /// SLOADs served by the prefetched data cache
    /// (`mtpu.pu.prefetch_hits`).
    pub prefetch_hits: Counter,
    /// Idle PU found the candidate window empty
    /// (`mtpu.sched.stall.window_empty`).
    pub stall_window_empty: Counter,
    /// Idle PU saw candidates but none selectable — dependencies still
    /// running (`mtpu.sched.stall.deps_unresolved`).
    pub stall_deps: Counter,
    /// Idle PU fast-forwarded to the next completion — starvation
    /// (`mtpu.sched.stall.starved`).
    pub stall_starved: Counter,
}

/// The process-wide cached handle set.
pub fn metrics() -> &'static MtpuMetrics {
    static METRICS: OnceLock<MtpuMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = mtpu_telemetry::global();
        MtpuMetrics {
            db_hit: reg.counter("mtpu.db.hit"),
            db_miss: reg.counter("mtpu.db.miss"),
            db_insert: reg.counter("mtpu.db.insert"),
            db_line_ops: reg.histogram("mtpu.db.line_ops"),
            fill_stop_unit_conflict: reg.counter("mtpu.db.fill_stop.unit_conflict"),
            fill_stop_raw: reg.counter("mtpu.db.fill_stop.raw"),
            fill_stop_block_end: reg.counter("mtpu.db.fill_stop.block_end"),
            sb_hit: reg.counter("mtpu.sb.hit"),
            sb_miss: reg.counter("mtpu.sb.miss"),
            ctx_bytes: reg.counter("mtpu.ctx.bytes"),
            ctx_cycles: reg.counter("mtpu.ctx.cycles"),
            instructions: reg.counter("mtpu.pu.instructions"),
            issue_events: reg.counter("mtpu.pu.issue_events"),
            cycles: reg.counter("mtpu.pu.cycles"),
            prefetch_hits: reg.counter("mtpu.pu.prefetch_hits"),
            stall_window_empty: reg.counter("mtpu.sched.stall.window_empty"),
            stall_deps: reg.counter("mtpu.sched.stall.deps_unresolved"),
            stall_starved: reg.counter("mtpu.sched.stall.starved"),
        }
    })
}

/// Records one fill-unit line termination by rule.
pub(crate) fn fill_stop(reason: crate::dbcache::FillStop) {
    let m = metrics();
    match reason {
        crate::dbcache::FillStop::UnitConflict => m.fill_stop_unit_conflict.inc(),
        crate::dbcache::FillStop::RawDependency => m.fill_stop_raw.inc(),
        crate::dbcache::FillStop::BlockEnd => m.fill_stop_block_end.inc(),
    }
}
