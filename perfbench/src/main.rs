//! `perfbench` — runs one WiClean benchmark workload and prints its result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --small [--workload NAME] [--seed N]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. A traced run also writes its
//! spans as Chrome trace-event JSON to `perfbench/out/trace-NAME.json` and
//! prints each layer's self time to standard error.
//!
//! `--small` runs every workload (or the one named) on small inputs with
//! every check on, traced and untraced, in seconds; its numbers are printed
//! for inspection and are not benchmark results.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use wiclean_perfbench::measure::json_number;
use wiclean_perfbench::trace::Tracer;
use wiclean_perfbench::{run_workload, Outcome, Params, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     perfbench --small [--workload NAME] [--seed N]";

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args() -> Result<(HashMap<String, String>, bool), String> {
    let mut flags = HashMap::new();
    let mut small = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.insert(arg[2..].to_owned(), value);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((flags, small))
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}"))
        })
        .transpose()
}

/// Runs one workload in a private scratch directory, removed afterwards.
fn run_one(name: &str, params: &Params, tracer: &Tracer) -> Result<Outcome, String> {
    let outcome = run_workload(name, params, tracer);
    let _ = std::fs::remove_dir_all(&params.work_dir);
    let outcome = outcome?;
    for failure in &outcome.checks.failures {
        eprintln!("{name}: check failed: {failure}");
    }
    if tracer.enabled() {
        let path = out_dir().join(format!("trace-{name}.json"));
        tracer
            .write_chrome(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let ranked = tracer.self_times();
        let total: f64 = ranked.iter().map(|(_, s)| s).sum();
        eprintln!("{name}: spans written to {}", path.display());
        eprintln!("{name}: self time by layer (traced run)");
        for (layer, s) in ranked {
            eprintln!(
                "  {layer:<28} {s:>10.4} s  {:>5.1}%",
                100.0 * s / total.max(1e-12)
            );
        }
        eprintln!(
            "{name}: traced run_s {} s",
            json_number(outcome.end_to_end.get("run_s").unwrap_or(0.0))
        );
    }
    Ok(outcome)
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted,
        outcome.checks.failed,
        metrics.to_json()
    )
}

fn run() -> Result<bool, String> {
    let (flags, small) = parse_args()?;
    let seed: u64 = flag(&flags, "seed")?.unwrap_or(1);
    let work_dir = |name: &str| out_dir().join(format!("work-{name}-{}", std::process::id()));
    if small {
        let names: Vec<String> = match flags.get("workload") {
            Some(w) => vec![w.clone()],
            None => WORKLOADS.iter().map(|w| (*w).to_owned()).collect(),
        };
        let mut all_ok = true;
        let mut lines = Vec::new();
        for name in &names {
            for trace in [false, true] {
                let params = Params {
                    seed,
                    seconds: 0.0,
                    small: true,
                    work_dir: work_dir(name),
                };
                let outcome = run_one(name, &params, &Tracer::new(trace))?;
                all_ok &= outcome.checks.failed == 0 && outcome.checks.attempted > 0;
                let line = result_line(&outcome, trace);
                println!("small {name} trace={}: {line}", u8::from(trace));
                lines.push(format!("\"{name}/trace{}\":{line}", u8::from(trace)));
            }
        }
        println!(
            "{{\"small\":true,\"ok\":{all_ok},\"runs\":{{{}}}}}",
            lines.join(",")
        );
        return Ok(all_ok);
    }

    let name: String = flag(&flags, "workload")?.ok_or("--workload is required")?;
    let seconds: f64 = flag(&flags, "seconds")?.ok_or("--seconds is required")?;
    let trace = match flag::<u8>(&flags, "trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let params = Params {
        seed,
        seconds,
        small: false,
        work_dir: work_dir(&name),
    };
    let outcome = run_one(&name, &params, &Tracer::new(trace))?;
    println!("{}", result_line(&outcome, trace));
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
