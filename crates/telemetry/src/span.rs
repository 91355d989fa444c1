//! Scoped spans and the bounded trace-event ring buffer.
//!
//! A [`Span`] measures wall-clock time between construction and drop and
//! records a Chrome `"ph":"X"` complete event on the calling thread's
//! lane. Nested spans on one thread render as nested slices in Perfetto
//! purely by timestamp containment — no parent pointers needed.
//!
//! Simulated-cycle timelines (scheduler traces) are built by pushing
//! hand-made [`TraceEvent`]s with [`crate::Registry::add_event`] under
//! [`SIM_PID`], keeping the two time domains on separate process lanes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Registry;

/// Chrome-trace process id used for wall-clock events.
pub const WALL_PID: u32 = 1;
/// Chrome-trace process id used for simulated-cycle events (1 cycle is
/// rendered as 1 ns).
pub const SIM_PID: u32 = 2;

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Small dense thread id of the calling thread (assigned on first use).
pub fn current_tid() -> u32 {
    TID.with(|t| *t)
}

/// A typed trace-event argument (rendered into the Chrome `args` object).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceArg {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
}

impl From<u64> for TraceArg {
    fn from(v: u64) -> Self {
        TraceArg::U64(v)
    }
}

impl From<usize> for TraceArg {
    fn from(v: usize) -> Self {
        TraceArg::U64(v as u64)
    }
}

impl From<f64> for TraceArg {
    fn from(v: f64) -> Self {
        TraceArg::F64(v)
    }
}

impl From<&str> for TraceArg {
    fn from(v: &str) -> Self {
        TraceArg::Str(v.to_string())
    }
}

impl From<String> for TraceArg {
    fn from(v: String) -> Self {
        TraceArg::Str(v)
    }
}

/// One complete (`"ph":"X"`) Chrome trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Slice label.
    pub name: String,
    /// Category (comma-separated in Chrome's UI filter).
    pub cat: &'static str,
    /// Process lane ([`WALL_PID`] or [`SIM_PID`]).
    pub pid: u32,
    /// Thread lane within the process.
    pub tid: u32,
    /// Start timestamp in nanoseconds (registry-epoch relative for wall
    /// events; cycle number for simulated events).
    pub ts_ns: u64,
    /// Duration in nanoseconds (or cycles).
    pub dur_ns: u64,
    /// Extra key/value payload.
    pub args: Vec<(String, TraceArg)>,
}

/// Fixed-capacity ring buffer of trace events plus thread labels.
#[derive(Debug)]
pub struct EventLog {
    inner: Mutex<LogInner>,
    dropped: AtomicU64,
}

#[derive(Debug)]
struct LogInner {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    thread_names: BTreeMap<u32, String>,
}

impl EventLog {
    pub(crate) fn new(capacity: usize) -> Self {
        EventLog {
            inner: Mutex::new(LogInner {
                events: VecDeque::with_capacity(capacity.min(4096)),
                capacity: capacity.max(1),
                thread_names: BTreeMap::new(),
            }),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, ev: TraceEvent) {
        let mut inner = self.inner.lock().expect("event log poisoned");
        if inner.events.len() >= inner.capacity {
            inner.events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.events.push_back(ev);
    }

    pub(crate) fn name_thread(&self, tid: u32, name: &str) {
        let mut inner = self.inner.lock().expect("event log poisoned");
        inner.thread_names.insert(tid, name.to_string());
    }

    pub(crate) fn counts(&self) -> (usize, u64) {
        let inner = self.inner.lock().expect("event log poisoned");
        (inner.events.len(), self.dropped.load(Ordering::Relaxed))
    }

    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().expect("event log poisoned");
        inner.events.clear();
        inner.thread_names.clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Events sorted by start timestamp (then pid/tid for stability) plus
    /// the thread-name table — the exporter's input.
    pub(crate) fn sorted(&self) -> (Vec<TraceEvent>, BTreeMap<u32, String>) {
        let inner = self.inner.lock().expect("event log poisoned");
        let mut events: Vec<TraceEvent> = inner.events.iter().cloned().collect();
        events.sort_by_key(|e| (e.ts_ns, e.pid, e.tid));
        (events, inner.thread_names.clone())
    }
}

/// RAII wall-clock span; see [`crate::span()`].
#[derive(Debug)]
pub struct Span {
    registry: Option<&'static Registry>,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(String, TraceArg)>,
}

impl Span {
    /// Opens a span on `registry`; inert when telemetry is disabled at
    /// entry.
    pub fn enter(registry: &'static Registry, name: &'static str, cat: &'static str) -> Span {
        if crate::enabled() {
            Span {
                registry: Some(registry),
                name,
                cat,
                start_ns: registry.now_ns(),
                args: Vec::new(),
            }
        } else {
            Span {
                registry: None,
                name,
                cat,
                start_ns: 0,
                args: Vec::new(),
            }
        }
    }

    /// Attaches a key/value payload to the recorded event (no-op on an
    /// inert span).
    pub fn arg(mut self, key: &str, value: impl Into<TraceArg>) -> Span {
        if self.registry.is_some() {
            self.args.push((key.to_string(), value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(registry) = self.registry else {
            return;
        };
        // Disabled mid-span: drop silently rather than record a torn event.
        if !crate::enabled() {
            return;
        }
        let end = registry.now_ns();
        registry.events.push(TraceEvent {
            name: self.name.to_string(),
            cat: self.cat,
            pid: WALL_PID,
            tid: current_tid(),
            ts_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            args: std::mem::take(&mut self.args),
        });
        registry
            .histogram(&format!("span.{}", self.name))
            .record(end.saturating_sub(self.start_ns));
    }
}
