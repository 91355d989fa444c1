//! The order statistics every reported number rests on.

/// Median of `values` (mean of the two middle values for an even count).
/// Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` by nearest rank, or `None` when fewer than
/// ten samples lie beyond it — a tail percentile read off a handful of
/// samples is one scheduler stall, not a property of the program.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Throughput of a session as the median over `segments` equal runs of
/// consecutive blocks, each run's rate being its transactions divided by
/// the time from the event before its first block to its last block.
/// `stamps_ns[i]` is when block `i` completed, `start_ns` when block 0
/// began. One stalled segment moves the median by nothing.
pub fn segment_median_rate(start_ns: u64, stamps_ns: &[u64], txs: &[u64], segments: usize) -> f64 {
    assert_eq!(stamps_ns.len(), txs.len());
    let per = stamps_ns.len() / segments.max(1);
    if per == 0 {
        return 0.0;
    }
    let rates: Vec<f64> = (0..segments)
        .map(|s| {
            let (lo, hi) = (s * per, (s + 1) * per);
            let from = if lo == 0 { start_ns } else { stamps_ns[lo - 1] };
            let done: u64 = txs[lo..hi].iter().sum();
            done as f64 / ((stamps_ns[hi - 1] - from) as f64 / 1e9)
        })
        .collect();
    median(&rates)
}

/// The three timings one session's blocks reduce to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTimings {
    pub tx_per_s: f64,
    pub block_ms_p50: f64,
    pub block_ms_p95: f64,
}

/// Reduces one session: block `i` completed at `stamps_ns[i]` carrying
/// `txs[i]` transactions, the first began at `start_ns`. Panics when the
/// session is too short for p95 to have ten samples beyond it.
pub fn session_timings(
    start_ns: u64,
    stamps_ns: &[u64],
    txs: &[u64],
    segments: usize,
) -> SessionTimings {
    let mut from = start_ns;
    let ms: Vec<f64> = stamps_ns
        .iter()
        .map(|&at| {
            let took = (at - from) as f64 / 1e6;
            from = at;
            took
        })
        .collect();
    SessionTimings {
        tx_per_s: segment_median_rate(start_ns, stamps_ns, txs, segments),
        block_ms_p50: median(&ms),
        block_ms_p95: percentile(&ms, 0.95).expect("a session has ten blocks beyond p95"),
    }
}

/// Completion stamps of blocks that ran back to back for `took_ns` each.
pub fn cumulative(took_ns: &[u64]) -> Vec<u64> {
    took_ns
        .iter()
        .scan(0u64, |clock, ns| {
            *clock += ns;
            Some(*clock)
        })
        .collect()
}

/// The least-disturbed of repeated measurements of one quantity: the
/// smallest time, or the largest rate. On a shared sandbox interference
/// only ever adds time, so across identical repetitions the extreme on the
/// undisturbed side repeats from run to run far better than their median
/// (measured on this box: 1–5 % between runs against 4–14 %).
pub fn least_disturbed(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Geometric mean; zero for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 is rank 190: exactly ten samples beyond it.
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        // p99 of 200 leaves two samples beyond: refused.
        assert_eq!(percentile(&v, 0.99), None);
        // One sample fewer and p95 is refused too.
        assert_eq!(percentile(&v[..199], 0.95), None);
        // The median is always supported.
        assert_eq!(percentile(&v[..3], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn segment_median_ignores_one_stalled_segment() {
        // 6 blocks of 10 txs, 1 ms apart, except block 2 stalls 100 ms.
        let ms = 1_000_000u64;
        let stamps = [ms, 2 * ms, 102 * ms, 103 * ms, 104 * ms, 105 * ms];
        let txs = [10u64; 6];
        let rate = segment_median_rate(0, &stamps, &txs, 3);
        // Segments: [0,2ms], (2ms,103ms], (103ms,105ms] -> 10k, ~198, 10k tx/s.
        assert!((rate - 10_000.0).abs() < 1e-6, "rate {rate}");
        // The whole-session mean would have been ~571 tx/s.
        let mean = 60.0 / (105.0 / 1e3);
        assert!(mean < 600.0);
    }

    #[test]
    fn segment_median_uses_start_for_first_segment() {
        let stamps = [2_000_000_000u64, 3_000_000_000];
        let rate = segment_median_rate(1_000_000_000, &stamps, &[100, 100], 1);
        assert!((rate - 100.0).abs() < 1e-9);
    }

    #[test]
    fn session_reduces_to_rate_median_and_p95() {
        // 240 blocks of 128 txs, 2 ms each, every 16th takes 10 ms.
        let took: Vec<u64> = (0..240)
            .map(|i| if i % 16 == 15 { 10_000_000 } else { 2_000_000 })
            .collect();
        let stamps = cumulative(&took);
        assert_eq!(stamps[1], 4_000_000);
        let t = session_timings(0, &stamps, &[128; 240], 5);
        assert_eq!(t.block_ms_p50, 2.0);
        assert_eq!(t.block_ms_p95, 10.0);
        // Each segment of 48 blocks holds three slow ones: 120 ms for 6144 txs.
        assert!((t.tx_per_s - 51_200.0).abs() < 1e-6, "{}", t.tx_per_s);
        // A later start shifts only the first block.
        let shifted: Vec<u64> = stamps.iter().map(|s| s + 7).collect();
        assert_eq!(session_timings(7, &shifted, &[128; 240], 5), t);
    }

    #[test]
    fn least_disturbed_takes_the_undisturbed_extreme() {
        assert_eq!(least_disturbed(&[7.1, 6.4, 9.9], false), 6.4);
        assert_eq!(least_disturbed(&[18e3, 19.5e3, 12e3], true), 19.5e3);
        assert_eq!(least_disturbed(&[], true), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
