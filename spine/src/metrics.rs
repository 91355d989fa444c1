//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is this
//! table rendered (`spine --manifest`), and a unit test holds the two
//! together.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
    /// Simulated values and counts that must repeat exactly for one seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        better: Better::Higher,
        ..lo(name, unit)
    }
}

const fn exact(m: Metric) -> Metric {
    Metric { exact: true, ..m }
}

/// Seconds one run measures for; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "node_hot",
        "Zipf default over 256 senders, read server attached: everything fits the caches; the node's reference number",
    ),
    (
        "node_wide",
        "100k-account universe, 8192 senders: working set beyond the write cache and a wide dirty set, so trie commit and flat-store reads dominate and the interpreter barely shows",
    ),
    (
        "node_contended",
        "theta 1.3, 80% of calls to one hot slot: admission and packing dominate and execution runs DAG-serial, so pool/packer changes show and parallel-execution gains do not",
    ),
    (
        "node_readers",
        "node_hot plus one closed-loop reader thread on the read server: reads beside writes, so a read-side gain that costs the writer shows",
    ),
    (
        "interp_seq",
        "six call-heavy contract shapes interleaved in pre-built blocks, executed sequentially in memory: evm and primitives do all the work, every node layer is bypassed",
    ),
    (
        "sim_block",
        "the paper's axis: dependent-ratio sweep through trace, DAG, and the 1-PU and 4-PU timing model; simulated values repeat exactly, host time is the simulator's cost",
    ),
];

/// What a user of the system sees, defined on every workload: the time to
/// be ready, transactions through the workload's pipeline per host second,
/// the time one 128-transaction block takes, and memory.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("tx_per_s", "1/s", Better::Higher, 0.25),
    e2e("block_ms_p50", "ms", Better::Lower, 0.25),
    e2e("block_ms_p95", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// Per-layer metrics, `<crate>.<what>`. A layer a workload bypasses
/// reports 0 there.
pub const PER_LAYER: [Metric; 72] = [
    lo("primitives.keccak_ns_per_byte", "ns/B"),
    lo("primitives.u256_mul_ns", "ns"),
    lo("primitives.u256_div_ns", "ns"),
    lo("primitives.u256_mulmod_ns", "ns"),
    lo("primitives.u256_exp_ns", "ns"),
    lo("primitives.rlp_encode_ns_per_byte", "ns/B"),
    lo("evm.usdt_transfer_ns_per_tx", "ns/tx"),
    lo("evm.proxy_dispatch_ns_per_tx", "ns/tx"),
    lo("evm.weth9_storm_ns_per_tx", "ns/tx"),
    lo("evm.router_swap_ns_per_tx", "ns/tx"),
    lo("evm.create2_factory_ns_per_tx", "ns/tx"),
    lo("evm.churn_loop_ns_per_tx", "ns/tx"),
    exact(lo("evm.gas_per_tx", "gas/tx")),
    lo("evm.analyze_us_per_kb", "us/KB"),
    lo("evm.call_readonly_us", "us"),
    lo("parexec.execute_ns_per_tx", "ns/tx"),
    lo("parexec.par_over_seq", "ratio"),
    hi("parexec.utilization", "ratio"),
    lo("parexec.reexec_ratio", "ratio"),
    lo("parexec.conflicts_per_block", "count"),
    lo("parexec.fallbacks", "count"),
    lo("mempool.admit_ns_per_tx", "ns/tx"),
    lo("mempool.pack_ns_per_tx", "ns/tx"),
    lo("mempool.observe_ns_per_block", "ns/block"),
    exact(hi("mempool.independent_ratio", "ratio")),
    exact(lo("mempool.conflict_skips_per_block", "count")),
    exact(lo("mempool.parked_share", "ratio")),
    exact(lo("mempool.rejected_share", "ratio")),
    exact(lo("mempool.pool_depth_mean", "count")),
    lo("statedb.commit_ns_per_tx", "ns/tx"),
    exact(lo("statedb.dirty_accounts_per_block", "count")),
    exact(lo("statedb.nodes_hashed_per_block", "count")),
    hi("statedb.node_cache_hit_ratio", "ratio"),
    lo("statedb.genesis_commit_s", "s"),
    lo("statedb.root_lag_ms_p50", "ms"),
    lo("accountsdb.read_ns_per_tx", "ns/tx"),
    lo("accountsdb.reads_per_tx", "count"),
    hi("accountsdb.cache_hit_ratio", "ratio"),
    lo("accountsdb.absorb_ns_per_tx", "ns/tx"),
    lo("accountsdb.flush_ns_per_block", "ns/block"),
    exact(lo("accountsdb.flushed_bytes_per_tx", "B/tx")),
    exact(lo("accountsdb.files", "count")),
    lo("accountsdb.flush_lag_max", "count"),
    lo("accountsdb.bootstrap_s", "s"),
    lo("accountsdb.snapshot_ms", "ms"),
    lo("accountsdb.restore_ms", "ms"),
    hi("readserve.reads_per_s", "1/s"),
    lo("readserve.publish_ns_per_block", "ns/block"),
    lo("readserve.point_read_ns_p50", "ns"),
    lo("readserve.point_read_ns_p99", "ns"),
    lo("readserve.call_us_p50", "us"),
    lo("readserve.call_us_p99", "us"),
    lo("readserve.retained_snapshots", "count"),
    lo("readserve.write_degradation", "ratio"),
    lo("driver.stage_sum_ns_per_tx", "ns/tx"),
    lo("driver.overlap_ratio", "ratio"),
    lo("driver.first_block_s", "s"),
    exact(hi("mtpu.sim_speedup", "x")),
    exact(lo("mtpu.sim_cycles_per_tx", "cycles/tx")),
    hi("mtpu.sim_minstr_per_s", "Minstr/s"),
    exact(lo("mtpu.seq_cycles_per_tx", "cycles/tx")),
    exact(hi("mtpu.ipc", "ratio")),
    exact(hi("mtpu.dbcache_hit_ratio", "ratio")),
    exact(hi("mtpu.pu_utilization", "ratio")),
    exact(lo("mtpu.ctx_load_cycle_share", "ratio")),
    exact(hi("mtpu.prefetch_hits_per_tx", "count")),
    exact(hi("mtpu.skipped_preexec_share", "ratio")),
    exact(hi("mtpu.speedup_dep0", "x")),
    exact(hi("mtpu.speedup_dep100", "x")),
    lo("mtpu.trace_ns_per_tx", "ns/tx"),
    lo("mtpu.sim_ns_per_instr", "ns"),
    lo("mtpu.hotspot_learn_ms", "ms"),
];

/// The metrics one pass prints: end-to-end with `trace` off, per-layer
/// with it on.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Values measured by one pass, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be a declared metric: a
    /// number nobody declared is a number nobody reads.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of a result line: every metric of the pass,
    /// 0 for those this workload's layers never touched.
    pub fn to_json(&self, trace: bool) -> Json {
        Json::obj(table(trace).iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(self.get(m.name).unwrap_or(0.0))),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        }))
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::Str(m.name.into())),
            ("unit", Json::Str(m.unit.into())),
            (
                "better",
                Json::Str(
                    if m.better == Better::Lower {
                        "lower"
                    } else {
                        "higher"
                    }
                    .into(),
                ),
            ),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs).emit()
    };
    let lines = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"spine/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"spine\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        lines(
            WORKLOADS
                .iter()
                .map(|(name, why)| Json::obj([
                    ("name", Json::Str((*name).into())),
                    ("why", Json::Str((*why).into()))
                ])
                .emit())
                .collect()
        ),
        lines(END_TO_END.iter().map(metric).collect()),
        lines(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (name, why) in WORKLOADS {
            assert!(well_formed(name, 64) && seen.insert(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
    }

    #[test]
    fn benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `spine --manifest`");
        let parsed = crate::json::parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_pass() {
        let mut v = Values::default();
        v.set("tx_per_s", 1234.5);
        let e2e = v.to_json(false);
        assert_eq!(e2e.as_obj().unwrap().len(), END_TO_END.len());
        assert_eq!(
            e2e.get("tx_per_s").unwrap().get("value").unwrap().as_f64(),
            Some(1234.5)
        );
        assert_eq!(
            e2e.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        assert_eq!(v.to_json(true).as_obj().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metrics_are_refused() {
        Values::default().set("made.up", 1.0);
    }
}
