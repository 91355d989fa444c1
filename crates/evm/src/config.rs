//! Process-global interpreter switches.
//!
//! Fusion and prefetch are semantics-preserving by construction
//! (receipts, logs and roots are bit-identical either way — see DESIGN.md
//! §14/§15). Both are always on outside tests; the setters exist because
//! the unfused and unprefetched paths are the reference the differential
//! tests compare against.
//!
//! The flags are process-global rather than per-`Evm` because the analysis
//! cache (which carries the fusion tables) is shared across sequential and
//! parallel executors; tables are always built, and the dispatch loop
//! decides per frame whether to consult them, so flipping a flag needs
//! no cache invalidation.

use std::sync::atomic::{AtomicBool, Ordering};

static FUSION: AtomicBool = AtomicBool::new(true);
static PREFETCH: AtomicBool = AtomicBool::new(true);

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

/// Whether frame-entry storage prefetch is currently enabled (one relaxed
/// load; read once per frame by the interpreter).
#[inline]
pub fn prefetch_enabled() -> bool {
    PREFETCH.load(Ordering::Relaxed)
}

/// Forces frame-entry prefetch on or off. Used by the differential tests
/// to run both modes in-process.
pub fn set_prefetch_enabled(on: bool) {
    PREFETCH.store(on, Ordering::Relaxed);
}
