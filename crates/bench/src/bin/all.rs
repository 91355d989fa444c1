//! Runs every experiment in sequence — regenerates all tables and figures.
//! Reports go to stdout (the text `crates/bench/golden/all.txt` pins,
//! byte for byte), progress lines to stderr.
//!
//! Flags:
//!   --only NAME[,NAME..]   run only the named experiments
use mtpu_bench::experiments::*;

type Experiment = (&'static str, fn() -> String);

const EXPERIMENTS: &[Experiment] = &[
    ("table1", stat::table1),
    ("table2", stat::table2),
    ("table3", stat::table3),
    ("table5", stat::table5),
    ("table6", stat::table6),
    ("fig12", ilp::fig12),
    ("fig13", ilp::fig13),
    ("fig13-single", ilp::fig13_single_tx),
    ("table7", ilp::table7),
    ("fig14", sched::fig14),
    ("fig15", sched::fig15),
    ("fig16", sched::fig16),
    ("table8", compare::table8),
    ("table9", compare::table9),
    ("hotspot", stat::hotspot_loading),
    ("hotspot-drift", drift::hotspot_drift),
    ("ablations", ablation::all),
];

fn main() {
    let mut only: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--only" => {
                let list = args.next().unwrap_or_else(|| {
                    eprintln!("--only requires a comma-separated experiment list");
                    std::process::exit(2);
                });
                only = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: all [--only NAME[,NAME..]]");
                std::process::exit(2);
            }
        }
    }
    if let Some(names) = &only {
        for n in names {
            if !EXPERIMENTS.iter().any(|(name, _)| name == n) {
                eprintln!("unknown experiment {n:?}; available:");
                for (name, _) in EXPERIMENTS {
                    eprintln!("  {name}");
                }
                std::process::exit(2);
            }
        }
    }

    for (name, f) in EXPERIMENTS {
        if let Some(names) = &only {
            if !names.iter().any(|n| n == name) {
                continue;
            }
        }
        eprintln!("[running {name}]");
        println!("{}", f());
    }
}
