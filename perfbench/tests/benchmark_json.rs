//! `BENCHMARK.json` (at the repository root) has its fixed form, names
//! exactly the workloads and metrics the benchmark reports, and the
//! small-input mode prints exactly those metrics for every workload.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;
use wiclean_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn names(list: &Value) -> Vec<&str> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name"))
        .collect()
}

#[test]
fn benchmark_json_has_its_fixed_form() {
    let b = benchmark_json();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = b["command"].as_array().expect("command list");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command strings");
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }
    let paths = b["paths"].as_array().expect("paths list");
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().expect("path strings");
        assert!(
            p.len() <= 200 && !p.starts_with('/') && !p.contains(".."),
            "{p}"
        );
        assert!(
            p.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)),
            "{p}"
        );
    }
    let run_seconds = b["run_seconds"].as_u64().expect("whole run_seconds");
    assert!((1..=60).contains(&run_seconds));

    let workloads = b["workloads"].as_array().expect("workloads list");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w["why"].as_str().expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let end_to_end = b["end_to_end"].as_array().expect("end_to_end list");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m["bound"].as_f64().expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| m["name"] == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (setup["unit"].as_str(), setup["better"].as_str()),
        (Some("s"), Some("lower"))
    );
    let largest = end_to_end
        .iter()
        .filter_map(|m| m["bound"].as_f64())
        .fold(0.0, f64::max);
    assert_eq!(
        setup["bound"].as_f64(),
        Some(largest),
        "setup_s has the largest bound"
    );

    let per_layer = b["per_layer"].as_array().expect("per_layer list");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }

    let mut seen = BTreeSet::new();
    for list in [&b["workloads"], &b["end_to_end"], &b["per_layer"]] {
        for name in names(list) {
            assert!(is_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_unit(m["unit"].as_str().expect("unit")), "{m:?}");
        assert!(m["better"] == "lower" || m["better"] == "higher", "{m:?}");
    }

    for w in names(&b["workloads"]) {
        assert!(WORKLOADS.contains(&w), "{w} is not a workload");
    }
    let declared = |list: &Value| -> Vec<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_owned(),
                    m["unit"].as_str().unwrap().to_owned(),
                )
            })
            .collect()
    };
    let expected = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(&b["end_to_end"]), expected(&END_TO_END));
    assert_eq!(declared(&b["per_layer"]), expected(&PER_LAYER));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "mines 1000-seed corpora: run with --release"
)]
fn small_mode_prints_exactly_the_declared_metrics() {
    let b = benchmark_json();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--small", "--seed", "3"])
        .output()
        .expect("run perfbench --small");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "small mode failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last: Value = serde_json::from_str(stdout.lines().last().expect("output")).expect("json");
    assert_eq!(last["ok"].as_bool(), Some(true));
    for workload in WORKLOADS {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let run = &last["runs"][format!("{workload}/trace{trace}").as_str()];
            assert_eq!(
                run["correct"].as_bool(),
                Some(true),
                "{workload} trace {trace}"
            );
            assert_eq!(run["failed"].as_u64(), Some(0));
            assert!(run["attempted"].as_u64().unwrap_or(0) >= 1);
            let printed: BTreeSet<&str> = keys(&run["metrics"]).into_iter().collect();
            let declared: BTreeSet<&str> = names(&b[list]).into_iter().collect();
            assert_eq!(printed, declared, "{workload} trace {trace}");
        }
        let e2e = &last["runs"][format!("{workload}/trace0").as_str()]["metrics"];
        for (name, _) in END_TO_END {
            let v = e2e[name]["value"].as_f64().expect("a number");
            assert!(v > 0.0, "{workload}: {name} reads {v}");
        }
    }
}
