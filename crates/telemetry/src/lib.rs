//! Zero-dependency observability for the MTPU workspace.
//!
//! Three pieces, all behind a single process-wide on/off switch:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   [`Histogram`]s with atomic hot paths and percentile summaries;
//! * scoped [`Span`]s that record wall-clock nanoseconds (and, via
//!   [`Registry::add_event`], simulated cycles) into a bounded ring-buffer
//!   event log;
//! * exporters: a human-readable table, machine-readable JSON, and Chrome
//!   `trace_event` JSON loadable in `about:tracing` / Perfetto.
//!
//! # Disabled-mode cost contract
//!
//! Telemetry is **off by default**. Every recording call
//! ([`Counter::inc`], [`Histogram::record`], [`span()`], …) first performs
//! one `Relaxed` atomic bool load and returns immediately when disabled —
//! no locks, no allocation, no time syscalls. Instrumented hot loops pay
//! one predictable branch per event, which is why the wired binaries stay
//! within noise of their un-instrumented baselines.
//!
//! ```
//! use mtpu_telemetry as tel;
//!
//! tel::set_enabled(true);
//! let c = tel::global().counter("demo.requests");
//! c.inc();
//! let h = tel::global().histogram("demo.latency_ns");
//! h.record(1500);
//! {
//!     let _span = tel::span("demo.work", "demo");
//! } // span end recorded here
//! assert_eq!(c.get(), 1);
//! assert!(tel::global().to_json().contains("demo.requests"));
//! tel::set_enabled(false);
//! ```

pub mod export;
pub mod json;
pub mod metrics;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use span::{Span, TraceArg, TraceEvent, SIM_PID, WALL_PID};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on or off process-wide (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// `true` when telemetry is recording. One `Relaxed` load — cheap enough
/// for per-opcode hot loops.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Opens a wall-clock span on the global registry; the returned guard
/// records a complete trace event (and a `span.<name>` histogram sample)
/// when dropped. Inert when telemetry is disabled.
pub fn span(name: &'static str, cat: &'static str) -> Span {
    Span::enter(global(), name, cat)
}

/// Labels the calling thread in Chrome-trace exports (worker names).
pub fn name_thread(name: &str) {
    if enabled() {
        global().name_current_thread(name);
    }
}
