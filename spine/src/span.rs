//! Bench-side spans around the calls into each layer. They stay in memory
//! while the workload runs and are written out as Chrome-trace JSON after
//! it ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: what ran, when, under which span, for which block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub height: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; the innermost open span is its
    /// parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        height: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            height,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count summed per span name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let e = out.entry(span.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args", Json::obj([("height", Json::Num(s.height as f64))])),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children of one parent recorded on one thread
/// never overlap, but the union is taken anyway so an overlap can not
/// count twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            height: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span("block", 0, 100, None),
            span("pack", 10, 30, Some(0)),
            span("execute", 30, 80, Some(0)),
            span("read", 40, 50, Some(2)),
        ];
        // block: 100 - (20 + 50); execute: 50 - 10; leaves keep all.
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // Self times sum to the root's duration: parts equal the whole.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a by 10
            span("c", 190, 230, Some(0)), // overhangs the parent by 30
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::default();
        for h in 1..=2 {
            t.span("block", h, |t| {
                t.span("pack", h, |_| std::hint::black_box(1 + 1));
                t.span("execute", h, |_| ());
            });
        }
        let s = t.spans();
        assert_eq!(s.len(), 6);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[4].parent, Some(3));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[5].height, 2);
        let by = t.self_ns_by_name();
        assert_eq!(by["pack"].1, 2);
        let whole: u64 = s
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(by.values().map(|v| v.0).sum::<u64>(), whole);
        let trace = t.chrome_trace().emit();
        assert!(trace.contains("\"traceEvents\"") && trace.contains("\"execute\""));
    }
}
