//! The metric catalogue cannot drift from the code: every name an
//! `obs.rs` registers has a row in DESIGN.md §7 with the right kind and a
//! unit, and every §7 row names a registered metric or a span.

use std::collections::{BTreeMap, BTreeSet};

const DESIGN: &str = include_str!("../DESIGN.md");

/// Every `crates/*/src/obs.rs`; `obs_list_is_complete` keeps it honest.
const OBS: &[(&str, &str)] = &[
    (
        "accountsdb",
        include_str!("../crates/accountsdb/src/obs.rs"),
    ),
    ("evm", include_str!("../crates/evm/src/obs.rs")),
    ("mempool", include_str!("../crates/mempool/src/obs.rs")),
    ("mtpu", include_str!("../crates/mtpu/src/obs.rs")),
    ("parexec", include_str!("../crates/parexec/src/obs.rs")),
    ("readserve", include_str!("../crates/readserve/src/obs.rs")),
    ("statedb", include_str!("../crates/statedb/src/obs.rs")),
];

/// The sources that open the spans §7 documents.
const SPAN_SOURCES: &[&str] = &[
    include_str!("../crates/mempool/src/driver.rs"),
    include_str!("../crates/parexec/src/lib.rs"),
    include_str!("../crates/statedb/src/committer.rs"),
];

/// Replaces every `{..}` (a `format!` argument) or `<..>` (its catalogue
/// spelling) with `*`, so the two spellings of one name compare equal.
fn normalize(name: &str) -> String {
    let mut out = String::new();
    let mut depth = 0;
    for c in name.chars() {
        match c {
            '{' | '<' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' | '>' => depth -= 1,
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// The string literal at the start of `s` (after whitespace and an
/// optional `&format!(`), if any.
fn leading_literal(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let s = s.strip_prefix("&format!(").unwrap_or(s).trim_start();
    let s = s.strip_prefix('"')?;
    Some(&s[..s.find('"')?])
}

/// Normalized name → kind, for every metric registered in `src`.
fn registered(src: &str, out: &mut BTreeMap<String, &'static str>) {
    for kind in ["counter", "gauge", "histogram"] {
        let call = format!("reg.{kind}(");
        for (at, _) in src.match_indices(&call) {
            if let Some(name) = leading_literal(&src[at + call.len()..]) {
                out.insert(normalize(name), kind);
            }
        }
    }
    // The opcode-category counters are registered through a lookup table.
    for (at, _) in src.match_indices("\"evm.ops.") {
        let name = leading_literal(&src[at..]).expect("closed literal");
        out.insert(name.to_string(), "counter");
    }
}

struct Row {
    names: Vec<String>,
    kind: String,
    unit: String,
}

/// The body of DESIGN.md §7.
fn section_7() -> &'static str {
    let start = DESIGN.find("\n## 7. ").expect("DESIGN.md has a §7");
    let end = DESIGN[start + 1..]
        .find("\n## ")
        .map_or(DESIGN.len(), |e| start + 1 + e);
    &DESIGN[start..end]
}

/// Every metric row of §7's tables.
fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for line in section_7().lines() {
        if line.starts_with("| Metric") {
            assert_eq!(
                line, "| Metric | Kind | Unit | Meaning |",
                "every §7 metric table carries kind and unit"
            );
        }
        if !line.starts_with("| `") {
            continue;
        }
        let cells: Vec<&str> = line.split(" | ").collect();
        assert!(cells.len() >= 4, "short §7 row: {line}");
        let names = cells[0]
            .split('`')
            .skip(1)
            .step_by(2)
            .map(normalize)
            .collect();
        rows.push(Row {
            names,
            kind: cells[1].trim().to_string(),
            unit: cells[2].trim().to_string(),
        });
    }
    rows
}

fn all_registered() -> BTreeMap<String, &'static str> {
    let mut names = BTreeMap::new();
    for (_, src) in OBS {
        registered(src, &mut names);
    }
    names
}

#[test]
fn obs_list_is_complete() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .filter_map(|e| {
            let e = e.ok()?;
            e.path()
                .join("src/obs.rs")
                .is_file()
                .then(|| e.file_name().to_string_lossy().into_owned())
        })
        .collect();
    let listed: BTreeSet<String> = OBS.iter().map(|(c, _)| c.to_string()).collect();
    assert_eq!(on_disk, listed, "add the new obs.rs to OBS");
}

#[test]
fn every_registered_metric_has_a_row() {
    let names = all_registered();
    assert!(names.len() > 50, "parsed only {} names", names.len());
    let rows = rows();
    for (name, kind) in &names {
        let row = rows
            .iter()
            .find(|r| r.kind == *kind && r.names.contains(name))
            .unwrap_or_else(|| panic!("`{name}` ({kind}) has no DESIGN.md §7 row"));
        assert!(!row.unit.is_empty(), "`{name}` has no unit");
    }
}

#[test]
fn every_row_names_a_metric_or_span() {
    let names = all_registered();
    for row in rows() {
        assert!(!row.unit.is_empty(), "{:?}: no unit", row.names);
        for name in &row.names {
            if row.kind.starts_with("span") {
                let literal = format!("\"{name}\"");
                assert!(
                    SPAN_SOURCES.iter().any(|src| src.contains(&literal)),
                    "span `{name}` is opened nowhere"
                );
            } else {
                assert_eq!(
                    names.get(name).copied(),
                    Some(row.kind.as_str()),
                    "§7 lists `{name}` as a {}, the code does not",
                    row.kind
                );
            }
        }
    }
}

#[test]
fn latencies_are_recorded_in_ns() {
    for name in all_registered().keys() {
        assert!(!name.ends_with("_us"), "`{name}`: record latencies in ns");
    }
}
