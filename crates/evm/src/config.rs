//! Process-global interpreter switches.
//!
//! Fusion is semantics-preserving by construction (receipts, logs and
//! roots are bit-identical either way — see DESIGN.md §14). It is always
//! on outside tests; the setter exists because the unfused path is the
//! reference the differential tests compare against.
//!
//! The flag is process-global rather than per-`Evm` because the analysis
//! cache (which carries the fusion tables) is shared across sequential and
//! parallel executors; tables are always built, and the dispatch loop
//! decides per frame whether to consult them, so flipping the flag needs
//! no cache invalidation.

use std::sync::atomic::{AtomicBool, Ordering};

static FUSION: AtomicBool = AtomicBool::new(true);

/// Whether fused dispatch is currently enabled (one relaxed load; read
/// once per frame by the interpreter).
#[inline]
pub fn fusion_enabled() -> bool {
    FUSION.load(Ordering::Relaxed)
}

/// Forces fused dispatch on or off. Used by the differential tests to run
/// both modes in-process.
pub fn set_fusion_enabled(on: bool) {
    FUSION.store(on, Ordering::Relaxed);
}

/// Always `false`: no backend prefetches, so there is nothing to hint. It
/// stays only because `spine/`'s staged loop asks it whether to forward
/// admission hints; answering `false` makes that loop run what
/// `NodeDriver::run_flat` runs (DESIGN.md §15).
pub fn prefetch_enabled() -> bool {
    false
}
