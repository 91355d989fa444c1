//! `spine`: one benchmark for the node, the interpreter and the MTPU
//! model. See `README.md` beside `Cargo.toml` for the metric glossary and
//! why each workload exists.
//!
//! Two ways in:
//!
//! * `spine --workload W --seed N --seconds S --trace 0|1` runs one pass of
//!   one workload in this process and prints, as its last line, the JSON
//!   result object `BENCHMARK.json` promises.
//! * `spine [--seed N] [--workload W] [--seconds S] [--json PATH]
//!   [--trace-out PATH] [--selfcheck]` runs both passes of every (or the
//!   named) workload, each in a process of its own so peak memory and the
//!   process-global analysis cache are per pass, and prints every metric.

mod interp;
mod json;
mod metrics;
mod node;
mod sim;
mod span;
mod stats;
mod timed_read;

use json::Json;
use metrics::{Metric, Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{least_disturbed, median, SessionTimings};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    /// Operations attempted: transactions offered, reads issued, checks made.
    pub attempted: u64,
    /// Of those, the ones refused, evicted, unserved or wrong.
    pub failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts one correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what.to_string());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end timings of a pass from its sessions: the median
    /// set-up, and the least-disturbed session for the rest.
    pub fn set_end_to_end(&mut self, setup_s: &[f64], sessions: &[SessionTimings]) {
        let each = |f: fn(&SessionTimings) -> f64| sessions.iter().map(f).collect::<Vec<_>>();
        let v = &mut self.values;
        v.set("setup_s", median(setup_s));
        v.set("tx_per_s", least_disturbed(&each(|s| s.tx_per_s), true));
        v.set(
            "block_ms_p50",
            least_disturbed(&each(|s| s.block_ms_p50), false),
        );
        v.set(
            "block_ms_p95",
            least_disturbed(&each(|s| s.block_ms_p95), false),
        );
    }
}

/// A directory for the stores a pass opens, beside the executable — inside
/// the checkout and ignored by git — removed when the pass ends, also by a
/// panic's unwinding.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let root = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("spine-scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A path under the scratch root; nothing is created.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Cores this process may run on; recorded with every thread-dependent
/// number.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    selfcheck: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        json: None,
        trace_out: None,
        selfcheck: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--json" => a.json = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--selfcheck" => a.selfcheck = true,
            "--manifest" => a.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One pass of one workload, in this process.
fn run_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&Path>,
) -> ExitCode {
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spine: no scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = match (workload, trace) {
        ("interp_seq", false) => interp::end_to_end(seed, seconds),
        ("interp_seq", true) => interp::traced(seed, seconds),
        ("sim_block", false) => sim::end_to_end(seed, seconds),
        ("sim_block", true) => sim::traced(seed, seconds),
        (node, false) => node::end_to_end(node, seed, seconds, &scratch),
        (node, true) => node::traced(node, seed, seconds, &scratch, trace_out),
    };
    drop(scratch);
    if !trace {
        out.values.set("peak_rss_mb", peak_rss_mb());
    }

    println!("spine {workload} seed={seed} trace={}", trace as u8);
    for note in &out.notes {
        println!("  # {note}");
    }
    for m in metrics::table(trace) {
        println!(
            "  {:<36} {:>16.4} {}",
            m.name,
            out.values.get(m.name).unwrap_or(0.0),
            m.unit
        );
    }
    for e in &out.errors {
        eprintln!("spine: FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(out.attempted.max(1) as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", out.values.to_json(trace)),
        ])
        .emit()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Both passes of one workload as parsed result objects.
struct WorkloadResult {
    end_to_end: Json,
    per_layer: Json,
}

impl WorkloadResult {
    fn metric(&self, m: &Metric) -> f64 {
        let pass = if m.bound.is_some() {
            &self.end_to_end
        } else {
            &self.per_layer
        };
        pass.get("metrics")
            .and_then(|ms| ms.get(m.name))
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn correct(&self) -> bool {
        [&self.end_to_end, &self.per_layer]
            .iter()
            .all(|p| p.get("correct").and_then(Json::as_bool) == Some(true))
    }
}

/// Re-executes this program for one pass and parses its last line.
fn child_pass(a: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if let (true, Some(path)) = (trace, &a.trace_out) {
        cmd.arg("--trace-out")
            .arg(path.with_extension(format!("{workload}.json")));
    }
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{body}");
    json::parse(last).map_err(|e| format!("{workload} trace={}: no result line ({e})", trace as u8))
}

fn run_suite(a: &Args) -> Result<BTreeMap<&'static str, WorkloadResult>, String> {
    let mut results = BTreeMap::new();
    for (name, _) in WORKLOADS {
        if a.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        let r = WorkloadResult {
            end_to_end: child_pass(a, name, false)?,
            per_layer: child_pass(a, name, true)?,
        };
        let e = |n: &str| r.metric(END_TO_END.iter().find(|m| m.name == n).expect("declared"));
        println!(
            "== {name}: {:.0} tx/s, block p50 {:.3} ms p95 {:.3} ms, setup {:.3} s, {:.0} MB, {}",
            e("tx_per_s"),
            e("block_ms_p50"),
            e("block_ms_p95"),
            e("setup_s"),
            e("peak_rss_mb"),
            if r.correct() { "correct" } else { "INCORRECT" }
        );
        results.insert(name, r);
    }
    Ok(results)
}

fn suite_json(a: &Args, results: &BTreeMap<&'static str, WorkloadResult>) -> Json {
    Json::obj([
        ("schema", Json::Str("spine/v1".into())),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("host_cores", Json::Num(cores() as f64)),
        // This file measures; it claims no gain over anything.
        ("claim", Json::Null),
        (
            "workloads",
            Json::obj(results.iter().map(|(name, r)| {
                (
                    *name,
                    Json::obj([
                        ("end_to_end", r.end_to_end.clone()),
                        ("per_layer", r.per_layer.clone()),
                    ]),
                )
            })),
        ),
    ])
}

/// Two runs of the same code on the same seed must agree: end-to-end
/// metrics within their bounds, exact metrics to the last digit.
fn selfcheck(a: &Args) -> Result<bool, String> {
    let (first, second) = (run_suite(a)?, run_suite(a)?);
    let mut ok = true;
    println!(
        "{:<16} {:<36} {:>16} {:>16}  verdict",
        "workload", "metric", "first", "second"
    );
    for (name, r1) in &first {
        let r2 = &second[name];
        ok &= r1.correct() && r2.correct();
        for m in END_TO_END
            .iter()
            .chain(PER_LAYER.iter().filter(|m| m.exact))
        {
            let (x, y) = (r1.metric(m), r2.metric(m));
            let agree = match m.bound {
                Some(b) => (x - y).abs() <= b * x.min(y),
                None => x == y,
            };
            ok &= agree;
            let verdict = match (agree, m.exact) {
                (true, true) => "same",
                (true, false) => "within bound",
                (false, true) => "DIFFERS",
                (false, false) => "BEYOND BOUND",
            };
            println!("{name:<16} {:<36} {x:>16.4} {y:>16.4}  {verdict}", m.name);
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spine: {e}");
            return ExitCode::from(2);
        }
    };
    if a.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some(trace) = a.trace {
        let Some(workload) = &a.workload else {
            eprintln!("spine: --trace needs --workload");
            return ExitCode::from(2);
        };
        return run_pass(workload, a.seed, a.seconds, trace, a.trace_out.as_deref());
    }
    let ok = if a.selfcheck {
        selfcheck(&a)
    } else {
        run_suite(&a).and_then(|results| {
            if let Some(path) = &a.json {
                std::fs::write(path, suite_json(&a, &results).emit() + "\n")
                    .map_err(|e| e.to_string())?;
            }
            Ok(results.values().all(WorkloadResult::correct))
        })
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("spine: a check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::FAILURE
        }
    }
}
