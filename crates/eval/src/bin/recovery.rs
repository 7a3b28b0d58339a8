//! Crash-recovery sweep: the sharded store under fault class × sync
//! policy, auditing every cell against clean in-memory ingestion.
//!
//! Usage: `recovery [seeds] [fault_seed]` (defaults: 40 seeds, a fixed
//! fault seed — the whole sweep is deterministic). Exits nonzero if any
//! cell accepted corrupt data as valid, so CI can run it as a smoke test.

use std::process::ExitCode;
use wiclean_eval::recovery::{render_recovery, run_recovery};
use wiclean_synth::{scenarios, SynthConfig};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let seeds: usize = args.next().map_or(40, |a| a.parse().expect("seed count"));
    let fault_seed: u64 = args
        .next()
        .map_or(0x000D_ECAF, |a| a.parse().expect("fault seed"));

    println!("crash-recovery sweep ({seeds} seeds, fault seed {fault_seed})\n");
    let mut corrupt = false;
    for domain in [scenarios::soccer(), scenarios::politics()] {
        let synth = SynthConfig {
            seed_count: seeds,
            rng_seed: 20210401,
            ..SynthConfig::tiny(1)
        };
        let report = run_recovery(domain, synth, fault_seed);
        println!("{}", render_recovery(&report));
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        );
        println!();
        corrupt |= report.any_undetected_corruption();
    }

    if corrupt {
        eprintln!("FAIL: at least one cell accepted corrupt data as valid");
        return ExitCode::FAILURE;
    }
    println!("ok: every injected fault was either recovered exactly or loudly reported");
    ExitCode::SUCCESS
}
