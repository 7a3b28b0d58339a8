//! Figure 4 — running-time experiments.
//!
//! All four sub-figures run over the soccer domain, as the paper does
//! ("as the results for the different domains show similar trends, we
//! present a representative set of experiments for the soccer domain").
//! Defaults mirror the paper — 500 seeds and the two-week transfer window
//! (the paper's "month of August" analog; our planted transfer window is
//! days 210–224) — except the mining threshold: the paper's real-data
//! patterns reach frequency 0.8 while the synthetic corpus calibrates them
//! at ≈ 0.5, so the fixed-threshold experiments mine at τ = 0.4.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use wiclean_baselines::{run_variant, Variant};
use wiclean_core::config::MinerConfig;
use wiclean_core::parallel::mine_windows;
use wiclean_core::{MiningPool, WindowMiner};
use wiclean_synth::{generate, scenarios, SynthConfig, SynthWorld};
use wiclean_types::{Window, DAY, WEEK, YEAR};

/// One bar of a Figure-4 plot: an algorithm variant's preprocessing and
/// mining time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimedRun {
    /// Row label (seed size, threshold, or window width).
    pub label: String,
    /// Algorithm name (`PM` or `PM-join`).
    pub algorithm: String,
    /// Revision-log crawling/parsing/reduction time.
    pub preprocess: Duration,
    /// Pattern-mining time.
    pub mine: Duration,
    /// Related entities (graph nodes) processed.
    pub entities: usize,
    /// Most specific patterns found (sanity: both variants must agree).
    pub patterns: usize,
    /// Left-side rows fed through candidate-join pair stages.
    #[serde(default)]
    pub rows_probed: usize,
    /// Candidate joins whose output table was gathered.
    #[serde(default)]
    pub tables_materialized: usize,
    /// Candidate joins pruned off the pair stream (distinct-source fast
    /// path) — their tables were never built.
    #[serde(default)]
    pub tables_pruned: usize,
    /// `tables_pruned / (tables_materialized + tables_pruned)` — the
    /// materialization saving of the fast path.
    #[serde(default)]
    pub prune_rate: f64,
}

/// The planted transfer window (first two weeks of "August").
pub fn transfer_window() -> Window {
    Window::new(210 * DAY, 224 * DAY)
}

pub(crate) fn base_miner_config(tau: f64) -> MinerConfig {
    MinerConfig {
        tau,
        max_abstraction_height: 1,
        max_pattern_actions: 4,
        mine_relative: false,
        ..MinerConfig::default()
    }
}

fn soccer_world(seeds: usize, rng: u64) -> SynthWorld {
    let config = SynthConfig {
        seed_count: seeds,
        rng_seed: rng,
        ..SynthConfig::default()
    };
    generate(scenarios::soccer(), config)
}

fn timed_variant(
    world: &SynthWorld,
    variant: Variant,
    tau: f64,
    window: &Window,
    label: &str,
) -> TimedRun {
    let result = run_variant(
        variant,
        &world.store,
        &world.universe,
        base_miner_config(tau),
        world.seed_type,
        window,
        2,
    );
    TimedRun {
        label: label.to_owned(),
        algorithm: variant.name().to_owned(),
        preprocess: result.stats.preprocess,
        mine: result.stats.mine,
        entities: result.stats.entities_processed,
        patterns: result.stats.most_specific_found,
        rows_probed: result.stats.rows_probed,
        tables_materialized: result.stats.tables_materialized,
        tables_pruned: result.stats.tables_pruned,
        prune_rate: result.stats.join_prune_rate(),
    }
}

/// Figure 4(a): runtime vs. seed-set size (paper: 100 / 500 / 1000),
/// PM vs PM−join over the transfer window. The paper mines at τ = 0.8
/// because its real-data patterns reach that frequency; the synthetic
/// corpus calibrates patterns at ≈ 0.5 (see DESIGN.md), so the runtime
/// experiments mine at τ = 0.4 — the band where the planted patterns live
/// and the mining stage does representative work.
pub fn fig4a(sizes: &[usize], rng: u64) -> Vec<TimedRun> {
    let mut out = Vec::new();
    for &n in sizes {
        let world = soccer_world(n, rng);
        let label = format!("{n}");
        out.push(timed_variant(
            &world,
            Variant::PmNoJoin,
            0.4,
            &transfer_window(),
            &label,
        ));
        out.push(timed_variant(
            &world,
            Variant::Pm,
            0.4,
            &transfer_window(),
            &label,
        ));
    }
    out
}

/// Figure 4(b): runtime vs. frequency threshold (paper: 0.7 / 0.4 / 0.2),
/// 500 seeds, transfer window.
pub fn fig4b(thresholds: &[f64], seeds: usize, rng: u64) -> Vec<TimedRun> {
    let world = soccer_world(seeds, rng);
    let mut out = Vec::new();
    for &tau in thresholds {
        let label = format!("{tau}");
        out.push(timed_variant(
            &world,
            Variant::PmNoJoin,
            tau,
            &transfer_window(),
            &label,
        ));
        out.push(timed_variant(
            &world,
            Variant::Pm,
            tau,
            &transfer_window(),
            &label,
        ));
    }
    out
}

/// Figure 4(c): runtime vs. window size (paper: 2 / 4 / 8 weeks), 500
/// seeds, τ = 0.4 (see [`fig4a`] on the threshold choice). Wider windows
/// extend backwards so the transfer window stays covered.
pub fn fig4c(weeks: &[u64], seeds: usize, rng: u64) -> Vec<TimedRun> {
    let world = soccer_world(seeds, rng);
    let mut out = Vec::new();
    for &w in weeks {
        // Wider windows extend backwards so the transfer window stays
        // covered (the paper: two weeks of August, the whole month, then
        // July + August).
        let end = 224 * DAY;
        let start = end.saturating_sub(w * WEEK);
        let window = Window::new(start, end);
        let label = format!("{w}W");
        out.push(timed_variant(
            &world,
            Variant::PmNoJoin,
            0.4,
            &window,
            &label,
        ));
        out.push(timed_variant(&world, Variant::Pm, 0.4, &window, &label));
    }
    out
}

/// One point of Figure 4(d): wall-clock time of mining every window of the
/// year at the given thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelRun {
    /// Seed-set size label.
    pub label: String,
    /// Related entities processed in total.
    pub entities: usize,
    /// Worker threads.
    pub threads: usize,
    /// The [`MinerConfig::intra_window_threads`] knob: 1 pins candidate
    /// evaluation sequential (window-level parallelism only), 0 lets the
    /// intra-window work share the window pool (two-level).
    #[serde(default)]
    pub intra: usize,
    /// Wall-clock time for all windows.
    pub wall: Duration,
}

/// Figure 4(d): the embarrassingly parallel multi-window computation, one
/// worker vs. `max_threads` workers, for growing seed sets (paper: 500 /
/// 1K / 2K / 3K on 1 vs 16 cores) — extended with the intra-window axis:
/// each thread count runs once with intra-window parallelism pinned off
/// (`intra = 1`) and once sharing the window pool (`intra = 0`, auto).
/// Pattern output is identical in all four cells.
pub fn fig4d(sizes: &[usize], max_threads: usize, rng: u64) -> Vec<ParallelRun> {
    let mut out = Vec::new();
    for &n in sizes {
        let world = soccer_world(n, rng);
        let windows = Window::split_span(2 * WEEK, YEAR, 2 * WEEK);
        for &threads in &[1usize, max_threads] {
            for &intra in &[1usize, 0] {
                let mut config = base_miner_config(0.3);
                config.intra_window_threads = intra;
                let t0 = Instant::now();
                let pool = std::sync::Arc::new(MiningPool::new(threads));
                let miner =
                    WindowMiner::new(&world.store, &world.universe, config).with_pool(pool.clone());
                let results = mine_windows(&miner, world.seed_type, &windows, &pool);
                let wall = t0.elapsed();
                let entities: usize = results
                    .iter()
                    .map(|r| r.as_ref().expect("window mined").stats.entities_processed)
                    .sum();
                out.push(ParallelRun {
                    label: format!("{n}"),
                    entities,
                    threads,
                    intra,
                    wall,
                });
            }
        }
    }
    out
}

/// Renders timed runs as the paper's stacked-bar data (text table), with
/// the join engine's materialization-saving columns appended.
pub fn render_timed(rows: &[TimedRun], axis: &str) -> String {
    let mut s = format!(
        "{axis:>10} {:>12} {:>10} {:>12} {:>12} {:>9} {:>10} {:>8} {:>7} {:>7}\n",
        "algorithm",
        "entities",
        "preproc(s)",
        "mining(s)",
        "patterns",
        "probed",
        "mat",
        "pruned",
        "save"
    );
    for r in rows {
        s.push_str(&format!(
            "{:>10} {:>12} {:>10} {:>12.3} {:>12.3} {:>9} {:>10} {:>8} {:>7} {:>6.0}%\n",
            r.label,
            r.algorithm,
            r.entities,
            r.preprocess.as_secs_f64(),
            r.mine.as_secs_f64(),
            r.patterns,
            r.rows_probed,
            r.tables_materialized,
            r.tables_pruned,
            r.prune_rate * 100.0
        ));
    }
    s
}

/// Renders parallel runs (Figure 4(d)).
pub fn render_parallel(rows: &[ParallelRun]) -> String {
    let mut s = format!(
        "{:>8} {:>12} {:>8} {:>8} {:>10}\n",
        "seeds", "entities", "threads", "intra", "wall(s)"
    );
    for r in rows {
        s.push_str(&format!(
            "{:>8} {:>12} {:>8} {:>8} {:>10.3}\n",
            r.label,
            r.entities,
            r.threads,
            if r.intra == 1 { "off" } else { "shared" },
            r.wall.as_secs_f64()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wiclean_core::pattern::Pattern;
    use wiclean_core::windows::{find_windows_and_patterns, WcResult};
    use wiclean_core::{ingest_sharded, open_sharded_corpus};
    use wiclean_revstore::{
        FetchSource, MemFs, MemoryBudget, ShardPolicy, ShardedStore, SyncPolicy,
    };

    #[test]
    fn transfer_window_matches_planted_slot() {
        let w = transfer_window();
        assert_eq!(w.start, 210 * DAY);
        assert_eq!(w.len(), 14 * DAY);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "mining run — run with --release")]
    fn fig4a_pm_is_not_slower_than_nested_loop() {
        let rows = fig4a(&[150], 0x41A);
        assert_eq!(rows.len(), 2);
        let (no_join, pm) = (&rows[0], &rows[1]);
        assert_eq!(no_join.algorithm, "PM-join");
        assert_eq!(pm.algorithm, "PM");
        assert_eq!(pm.patterns, no_join.patterns, "identical discoveries");
        // Allow generous noise: PM must not be dramatically slower.
        assert!(pm.mine.as_secs_f64() <= no_join.mine.as_secs_f64() * 1.5 + 0.005);
        assert!(render_timed(&rows, "seeds").contains("PM"));
    }

    /// The patterns a search discovered, in discovery order.
    fn patterns(r: &WcResult) -> Vec<&Pattern> {
        r.discovered.iter().map(|d| &d.pattern).collect()
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "mining run — run with --release")]
    fn preprocess_cache_cuts_preprocessing_not_patterns() {
        let world = soccer_world(150, 0xCACE);
        let search = |use_action_cache| {
            let mut wc = crate::quality::default_wc_config(2);
            wc.use_action_cache = use_action_cache;
            find_windows_and_patterns(&world.store, &world.universe, world.seed_type, &wc)
        };
        let (cached, uncached) = (search(true), search(false));
        assert_eq!(
            patterns(&cached),
            patterns(&uncached),
            "identical discoveries"
        );
        let (cached, uncached) = (&cached.stats, &uncached.stats);
        assert!(
            cached.action_cache_hits + cached.action_cache_composed > 0,
            "refinement must reuse preprocessing: {cached:?}"
        );
        assert!(cached.action_cache_hit_rate() > 0.0);
        assert_eq!(uncached.action_cache_hit_rate(), 0.0);
        // The whole point: the cached run spends measurably less time in
        // preprocessing (refinement re-extracts everything otherwise).
        assert!(
            cached.preprocess < uncached.preprocess,
            "cached {:?} vs uncached {:?}",
            cached.preprocess,
            uncached.preprocess
        );
        // Incremental extraction is on by default: both runs splice some
        // revision bytes through unchanged.
        assert!(cached.extract_skip_rate() > 0.0, "cached {cached:?}");
        assert!(uncached.extract_skip_rate() > 0.0, "uncached {uncached:?}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "mining run — run with --release")]
    fn backend_comparison_finds_identical_patterns() {
        let world = soccer_world(150, 0xD15C);
        let wc = crate::quality::default_wc_config(2);
        let fetched_before = world.store.stats().pages_fetched;
        let memory = find_windows_and_patterns(&world.store, &world.universe, world.seed_type, &wc);
        let memory_pages = world.store.stats().pages_fetched - fetched_before;

        let fs = Arc::new(MemFs::new());
        let dir = std::path::PathBuf::from("/corpus");
        let policy = ShardPolicy {
            sync: SyncPolicy::Never,
            ..ShardPolicy::default()
        };
        // A budget small enough to force evictions on a 150-seed world.
        let budget = Arc::new(MemoryBudget::new(1 << 20));
        let dest = ShardedStore::create(fs.clone(), &dir, policy, budget.clone()).unwrap();
        ingest_sharded(&MiningPool::new(2), &world.store, &dest).unwrap();
        drop(dest);
        let corpus = open_sharded_corpus(fs, &dir, policy, budget).unwrap();
        let mut disk =
            find_windows_and_patterns(&corpus.store, &world.universe, world.seed_type, &wc);
        corpus.stamp_stats(&mut disk.stats);

        assert_eq!(patterns(&memory), patterns(&disk), "identical discoveries");
        assert!(disk.stats.bytes_on_disk > 0);
        // Extraction reads window-scoped chain replays, which bypass the
        // snapshot cache: the read work shows as pages fetched and delta
        // frames decoded.
        assert!(
            corpus.store.crawl_stats().pages_fetched > 0,
            "the disk backend fetched pages"
        );
        assert!(memory_pages > 0, "the memory backend fetched pages");
        assert!(
            disk.stats.delta_chain_replays > 0,
            "delta frames were decoded"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "mining run — run with --release")]
    fn fig4d_parallel_matches_sequential_results() {
        let rows = fig4d(&[100], 2, 0x41D);
        // 2 thread counts × 2 intra-window settings.
        assert_eq!(rows.len(), 4);
        assert!(
            rows.iter().all(|r| r.entities == rows[0].entities),
            "same work in every cell"
        );
        assert_eq!(rows.iter().filter(|r| r.intra == 0).count(), 2);
        let rendered = render_parallel(&rows);
        assert!(rendered.contains("intra"));
        assert!(rendered.contains("shared"));
    }
}
