//! End-to-end WiClean benchmark.
//!
//! Four workloads, each run in its own process by the `perfbench` binary:
//!
//! * [`paper_quality`] — the paper's §6.3 experiment as one batch job over
//!   three domains (Algorithm 2, Algorithm 3, index build);
//! * [`disk_bulk`] — a bulk corpus larger than the snapshot-cache budget,
//!   ingested into the sharded store and mined from disk;
//! * [`stream_soccer`] — a soccer corpus replayed chronologically into the
//!   streaming miner;
//! * [`serve_pipelined`] — pipelined `suggest` traffic against the
//!   suggestion server, with in-process index swaps.
//!
//! Every workload calls the layers through their public functions, checks
//! the program's outputs against the generator's ground truth or against
//! properties the method must have, and reports the end-to-end metrics of
//! [`END_TO_END`] (untraced run) or the per-layer metrics of [`PER_LAYER`]
//! (traced run, see [`trace`]).

pub mod disk_bulk;
pub mod measure;
pub mod paper_quality;
pub mod serve_pipelined;
pub mod stream_soccer;
pub mod trace;

use measure::{Checks, Metrics};
use std::path::PathBuf;
use trace::Tracer;

/// The workloads, by the name `--workload` takes. `BENCHMARK.json` gates on
/// `disk-bulk`, `stream-soccer` and `serve-pipelined`: `paper-quality`'s
/// `run_s` follows how long Algorithm 2's refinement loop runs on each
/// seed's corpora and spread across seeds by more than the largest bound
/// the benchmark may set (see README.md).
pub const WORKLOADS: [&str; 4] = [
    "paper-quality",
    "disk-bulk",
    "stream-soccer",
    "serve-pipelined",
];

/// End-to-end metrics every workload reports from an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pattern_recall", "ratio"),
];

/// Per-layer metrics every workload reports from a traced run (zero where
/// the workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 47] = [
    ("revstore.load_s", "s"),
    ("revstore.extract.bytes_parsed", "B"),
    ("revstore.extract.bytes_skipped", "B"),
    ("revstore.action_cache.hits", "count"),
    ("revstore.action_cache.composed", "count"),
    ("revstore.action_cache.misses", "count"),
    ("revstore.shard.ingest_mb_per_s", "MiB/s"),
    ("revstore.shard.bytes_per_revision", "B"),
    ("revstore.shard.frames_full", "count"),
    ("revstore.shard.frames_delta", "count"),
    ("revstore.shard.open_s", "s"),
    ("revstore.shard.snapshot_cache_misses", "count"),
    ("revstore.shard.snapshot_cache_evictions", "count"),
    ("revstore.shard.delta_chain_replays", "count"),
    ("revstore.shard.map_residency_releases", "count"),
    ("core.windows.s", "s"),
    ("core.windows.iterations", "count"),
    ("core.miner.preprocess_s", "s"),
    ("core.miner.mine_s", "s"),
    ("core.miner.candidates", "count"),
    ("core.miner.joins", "count"),
    ("core.miner.tables_materialized", "count"),
    ("core.miner.tables_pruned", "count"),
    ("core.miner.realization_cache_hits", "count"),
    ("core.miner.realization_cache_misses", "count"),
    ("core.miner.window_p50_s", "s"),
    ("core.miner.window_max_s", "s"),
    ("rel.rows_probed", "count"),
    ("rel.pairs_matched", "count"),
    ("rel.plan_cache_hits", "count"),
    ("rel.replans", "count"),
    ("rel.picks_hash", "count"),
    ("rel.picks_other", "count"),
    ("core.partial.s", "s"),
    ("core.partial.flags", "count"),
    ("core.stream.ingest_s", "s"),
    ("core.stream.seal_p50_us", "us"),
    ("core.stream.seal_max_us", "us"),
    ("core.stream.windows_sealed", "count"),
    ("core.stream.delta_rows", "count"),
    ("core.stream.fallbacks", "count"),
    ("serve.index.build_s", "s"),
    ("serve.index.suggestions", "count"),
    ("serve.rtt_p50_us", "us"),
    ("serve.rtt_p99_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.swap_us", "us"),
];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase: whole rounds run until it has passed.
    pub seconds: f64,
    /// Small-input mode: tiny inputs, every check on, numbers not results.
    pub small: bool,
    /// Scratch directory for corpora and stores (removed by the caller).
    pub work_dir: PathBuf,
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted and failed (checked outputs).
    pub checks: Checks,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Metrics,
    /// Per-layer metrics, in [`PER_LAYER`] order (meaningful only when the
    /// tracer was on: layer times come from its spans).
    pub per_layer: Metrics,
}

/// Runs the workload called `name`.
pub fn run_workload(name: &str, params: &Params, tracer: &Tracer) -> Result<Outcome, String> {
    std::fs::create_dir_all(&params.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", params.work_dir.display()))?;
    match name {
        "paper-quality" => Ok(paper_quality::run(params, tracer)),
        "disk-bulk" => Ok(disk_bulk::run(params, tracer)),
        "stream-soccer" => Ok(stream_soccer::run(params, tracer)),
        "serve-pipelined" => Ok(serve_pipelined::run(params, tracer)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// A per-input seed derived from the run seed, so each generated input
/// differs with `--seed` while staying a pure function of it.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    wiclean_revstore::mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
