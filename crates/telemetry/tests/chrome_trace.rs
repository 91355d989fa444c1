//! Golden-file test for the Chrome trace exporter: the emitted document
//! must be byte-identical to the checked-in golden, parse as valid JSON,
//! and keep its `"ph":"X"` events sorted by timestamp.

use mtpu_telemetry as tel;
use std::sync::Mutex;
use tel::json;
use tel::{Registry, TraceArg, TraceEvent, SIM_PID, WALL_PID};

/// Both tests build the fixture by flipping the process-wide enabled
/// flag; held while it is on so one test cannot disable recording under
/// the other's `add_event`.
static ENABLED_GATE: Mutex<()> = Mutex::new(());

fn fixture_registry() -> Registry {
    let _gate = ENABLED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    tel::set_enabled(true);
    let r = Registry::new();
    // Deliberately pushed out of timestamp order: the exporter must sort.
    r.add_event(TraceEvent {
        name: "commit".into(),
        cat: "parexec",
        pid: WALL_PID,
        tid: 1,
        ts_ns: 5_000,
        dur_ns: 1_500,
        args: vec![("tx".into(), TraceArg::U64(2))],
    });
    r.add_event(TraceEvent {
        name: "exec".into(),
        cat: "parexec",
        pid: WALL_PID,
        tid: 0,
        ts_ns: 1_000,
        dur_ns: 3_000,
        args: vec![
            ("tx".into(), TraceArg::U64(0)),
            ("ipc".into(), TraceArg::F64(2.5)),
            ("contract".into(), TraceArg::Str("\"Dai\"".into())),
        ],
    });
    r.add_event(TraceEvent {
        name: "tx1".into(),
        cat: "sched",
        pid: SIM_PID,
        tid: 3,
        ts_ns: 2_000,
        dur_ns: 4_000,
        args: Vec::new(),
    });
    r.set_thread_name(0, "worker0");
    r.set_thread_name(1, "worker1");
    tel::set_enabled(false);
    r
}

#[test]
fn chrome_trace_matches_golden() {
    let got = fixture_registry().chrome_trace_json();
    let golden = include_str!("golden/chrome_trace.json");
    assert_eq!(
        got,
        golden.trim_end(),
        "exporter output drifted from tests/golden/chrome_trace.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn chrome_trace_is_valid_sorted_trace_event_json() {
    let doc = fixture_registry().chrome_trace_json();
    let v = json::parse(&doc).expect("trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts = f64::NEG_INFINITY;
    let mut complete = 0;
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph field");
        match ph {
            "M" => {
                // Metadata rows carry a pid and a name payload.
                assert!(e.get("pid").is_some());
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" => {
                complete += 1;
                let ts = e.get("ts").and_then(|t| t.as_num()).expect("ts number");
                let dur = e.get("dur").and_then(|d| d.as_num()).expect("dur number");
                assert!(dur >= 0.0);
                assert!(ts >= last_ts, "complete events sorted by ts");
                last_ts = ts;
                for field in ["name", "cat", "pid", "tid"] {
                    assert!(e.get(field).is_some(), "X event has {field}");
                }
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(complete, 3, "all fixture events exported");
}
