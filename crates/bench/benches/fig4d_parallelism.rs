//! Figure 4(d) extended: the two-level mining parallelism.
//!
//! Three axes, each timed against its own one-thread baseline:
//!
//! * **single-window / crawl-latency** — the headline axis. One window,
//!   candidate evaluation and entity preprocessing fanned out over the
//!   intra-window pool, against a store that injects a fixed per-fetch
//!   latency (the paper's setting: revision logs come from a network
//!   crawl, so fetches are latency-bound). Overlapping fetches yields
//!   real wall-clock speedup even on a single-core host.
//! * **single-window / compute-only** — the same mining run on the clean
//!   in-memory store. Scales with physical cores; on a one-core host both
//!   configurations measure alike and the axis documents that the pool
//!   carries no significant overhead.
//! * **multi-window** — the embarrassingly parallel all-windows run of the
//!   original Figure 4(d), over the same latency-injecting store, with the
//!   window-level pool shared by the intra-window tasks (auto mode).
//!
//! Every configuration's pattern output is asserted byte-identical to the
//! sequential run — the determinism contract of the generation-based
//! miner. Results land in `BENCH_parallelism.json` at the repo root.

use serde::Serialize;
use std::time::Instant;
use wiclean_bench::{bench_miner_config, soccer_world, transfer_window};
use wiclean_core::parallel::mine_windows;
use wiclean_core::{MiningPool, WindowMiner};
use wiclean_revstore::{FaultPlan, FaultyStore};
use wiclean_synth::SynthWorld;
use wiclean_types::{Window, WEEK, YEAR};

/// Seed-entity count of the benchmark world.
const SEEDS: usize = 150;
/// Injected per-fetch latency (µs) for the crawl-bound axes. Deliberately
/// conservative: a real MediaWiki API round-trip is tens of milliseconds.
const CRAWL_LATENCY_US: u64 = 1500;
/// Timed repetitions per configuration (median is reported).
const REPS: usize = 3;

#[derive(Serialize)]
struct Point {
    threads: usize,
    wall_ms: f64,
    /// Wall-clock of the one-thread run divided by this run's.
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    /// Cores visible to this process — interpret `compute_only` with it.
    host_cores: usize,
    seeds: usize,
    crawl_latency_us: u64,
    /// One window, intra-window pool of `threads`, latency-injecting store.
    single_window_crawl: Vec<Point>,
    /// One window, intra-window pool of `threads`, clean in-memory store.
    single_window_compute_only: Vec<Point>,
    /// All windows of the year on a shared two-level pool of `threads`.
    multi_window_crawl: Vec<Point>,
    /// Whether every configuration produced byte-identical patterns.
    outputs_identical: bool,
}

fn median_ms(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times `run` `REPS` times; returns (median ms, output digest).
fn timed(run: &mut dyn FnMut() -> String) -> (f64, String) {
    let mut times = Vec::with_capacity(REPS);
    let mut digest = String::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        digest = run();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (median_ms(times), digest)
}

/// Mines the transfer window once with an intra-window pool of `threads`
/// (1 = sequential); returns the pattern digest.
fn mine_single(world: &SynthWorld, latency_us: u64, threads: usize) -> String {
    let faulty = FaultyStore::new(
        &world.store,
        FaultPlan {
            latency_us,
            ..FaultPlan::default()
        },
    );
    let mut config = bench_miner_config(0.41);
    config.intra_window_threads = threads;
    let miner = WindowMiner::new(&faulty, &world.universe, config);
    let result = miner.mine_window(world.seed_type, &transfer_window());
    format!("{:?}", result.patterns)
}

/// Mines every window of the year on a shared two-level pool of `threads`;
/// returns the all-windows pattern digest.
fn mine_multi(world: &SynthWorld, windows: &[Window], latency_us: u64, threads: usize) -> String {
    let faulty = FaultyStore::new(
        &world.store,
        FaultPlan {
            latency_us,
            ..FaultPlan::default()
        },
    );
    let pool = std::sync::Arc::new(MiningPool::new(threads));
    let miner = WindowMiner::new(&faulty, &world.universe, bench_miner_config(0.41))
        .with_pool(pool.clone());
    let results = mine_windows(&miner, world.seed_type, windows, &pool);
    let patterns: Vec<_> = results
        .iter()
        .map(|r| &r.as_ref().expect("window mined").patterns)
        .collect();
    format!("{patterns:?}")
}

/// Sweeps `threads` over one axis, checking digests against the sequential
/// baseline.
fn sweep(
    name: &str,
    thread_counts: &[usize],
    identical: &mut bool,
    mut run: impl FnMut(usize) -> String,
) -> Vec<Point> {
    let mut points = Vec::new();
    let mut baseline_ms = 0.0;
    let mut baseline_digest = String::new();
    for &threads in thread_counts {
        let (wall_ms, digest) = timed(&mut || run(threads));
        if threads == thread_counts[0] {
            baseline_ms = wall_ms;
            baseline_digest = digest.clone();
        } else if digest != baseline_digest {
            eprintln!("{name}: output at {threads} threads diverges from sequential!");
            *identical = false;
        }
        let speedup = baseline_ms / wall_ms;
        println!("{name:>28} {threads:>2} threads  {wall_ms:>9.1} ms  {speedup:>5.2}x");
        points.push(Point {
            threads,
            wall_ms,
            speedup,
        });
    }
    points
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let world = soccer_world(SEEDS, 0x41D);
    let windows = Window::split_span(2 * WEEK, YEAR, 2 * WEEK);
    let mut identical = true;

    let single_window_crawl = sweep("single-window crawl", &[1, 2, 4, 8], &mut identical, |t| {
        mine_single(&world, CRAWL_LATENCY_US, t)
    });
    let single_window_compute_only = sweep(
        "single-window compute-only",
        &[1, 2, 4, 8],
        &mut identical,
        |t| mine_single(&world, 0, t),
    );
    let multi_window_crawl = sweep("multi-window crawl", &[1, 4], &mut identical, |t| {
        mine_multi(&world, &windows, CRAWL_LATENCY_US, t)
    });

    assert!(identical, "parallel output must match sequential");
    let four = single_window_crawl
        .iter()
        .find(|p| p.threads == 4)
        .expect("4-thread point");
    println!(
        "single-window crawl speedup at 4 threads: {:.2}x",
        four.speedup
    );

    let report = Report {
        host_cores,
        seeds: SEEDS,
        crawl_latency_us: CRAWL_LATENCY_US,
        single_window_crawl,
        single_window_compute_only,
        multi_window_crawl,
        outputs_identical: identical,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallelism.json");
    std::fs::write(path, json + "\n").expect("write BENCH_parallelism.json");
    println!("wrote {path}");
}
