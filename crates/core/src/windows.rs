//! Algorithm 2 — finding windows and thresholds.
//!
//! The timeline is split into consecutive non-overlapping windows of width
//! `W_min` and each window is mined (possibly in parallel). Window width
//! and frequency threshold are then iteratively refined — the default
//! policy alternates between doubling the window and reducing τ by 20% —
//! as long as refinement keeps discovering new patterns, bounded by a
//! one-year window and τ ≥ 0.2. (The paper's §6.4 grid search selected
//! exactly this policy.)

use crate::cache::{MiningCaches, WindowMemo};
use crate::config::WcConfig;
use crate::degraded::DegradedCoverage;
use crate::miner::{MineStats, RelPattern, WindowMiner, WindowResult};
use crate::parallel::{run_windows, WindowFailure};
use crate::pattern::{most_specific, Pattern, WorkingPattern};
use crate::pool::MiningPool;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wiclean_revstore::FetchSource;
use wiclean_types::{Taxonomy, TypeId, Universe, Window};

/// A pattern discovered by the window/threshold search, with the discovery
/// context the cleaning phase needs.
#[derive(Debug, Clone)]
pub struct DiscoveredPattern {
    /// Canonical form.
    pub pattern: Pattern,
    /// Construction-order form (for realization tables / Algorithm 3).
    pub working: WorkingPattern,
    /// The window in which the pattern was (first) discovered.
    pub window: Window,
    /// Window width of the discovering iteration.
    pub window_width: u64,
    /// Threshold τ of the discovering iteration.
    pub tau: f64,
    /// Frequency at discovery.
    pub frequency: f64,
    /// Support (distinct seed entities) at discovery.
    pub support: usize,
    /// Relative frequent patterns attached at discovery.
    pub rel_patterns: Vec<RelPattern>,
}

/// Output of Algorithm 2.
#[derive(Debug, Clone)]
pub struct WcResult {
    /// The seed type.
    pub seed: TypeId,
    /// All most specific patterns discovered across iterations, filtered
    /// once more for cross-iteration specificity.
    pub discovered: Vec<DiscoveredPattern>,
    /// Refinement iterations executed.
    pub iterations: usize,
    /// Final window width.
    pub final_width: u64,
    /// Final threshold.
    pub final_tau: f64,
    /// Aggregated mining statistics.
    pub stats: MineStats,
    /// The last iteration's full per-window results.
    pub window_results: Vec<WindowResult>,
    /// Coverage lost to fetch failures, aggregated across every window of
    /// every iteration (empty on a healthy source).
    pub degraded: DegradedCoverage,
    /// Windows whose workers panicked, across all iterations (deduplicated
    /// by window). The rest of the search completed without them.
    pub failed_windows: Vec<WindowFailure>,
}

impl WcResult {
    /// Discovered patterns sorted by descending frequency.
    pub fn by_frequency(&self) -> Vec<&DiscoveredPattern> {
        let mut v: Vec<&DiscoveredPattern> = self.discovered.iter().collect();
        v.sort_by(|a, b| b.frequency.total_cmp(&a.frequency));
        v
    }
}

/// What Algorithm 2 gathers from mined windows: each most specific
/// pattern's first discovery, and the windows' counters and coverage. The
/// batch search and an assembled stream share it, so both apply the same
/// rules.
#[derive(Default)]
pub(crate) struct Discoveries {
    found: HashMap<Pattern, DiscoveredPattern>,
    pub(crate) stats: MineStats,
    pub(crate) degraded: DegradedCoverage,
}

impl Discoveries {
    /// Folds in windows mined at `width` and `tau`: counters, coverage, and
    /// every most specific pattern not discovered before (first discovery
    /// wins). Returns how many patterns were new.
    pub(crate) fn absorb(&mut self, results: &[WindowResult], width: u64, tau: f64) -> usize {
        let mut new_found = 0;
        for r in results {
            self.stats.absorb(&r.stats);
            self.degraded.absorb(&r.degraded);
            for p in r.most_specific() {
                if self.found.contains_key(&p.pattern) {
                    continue;
                }
                new_found += 1;
                self.found.insert(
                    p.pattern.clone(),
                    DiscoveredPattern {
                        pattern: p.pattern.clone(),
                        working: p.working.clone(),
                        window: r.window,
                        window_width: width,
                        tau,
                        frequency: p.frequency,
                        support: p.support,
                        rel_patterns: p.rel_patterns.clone(),
                    },
                );
            }
        }
        new_found
    }

    /// The discoveries minus every pattern another one found in any window
    /// or iteration is more specific than (Def. 3.3 across the whole
    /// search), by descending frequency. Without a taxonomy nothing is
    /// filtered.
    pub(crate) fn most_specific(&mut self, taxonomy: Option<&Taxonomy>) -> Vec<DiscoveredPattern> {
        let all: Vec<Pattern> = self.found.keys().cloned().collect();
        let kept = match taxonomy {
            Some(taxonomy) => most_specific(&all, taxonomy),
            None => all,
        };
        let mut kept: Vec<DiscoveredPattern> = kept
            .into_iter()
            .map(|p| self.found.remove(&p).expect("kept pattern was discovered"))
            .collect();
        kept.sort_by(|a, b| {
            b.frequency
                .total_cmp(&a.frequency)
                .then_with(|| a.pattern.cmp(&b.pattern))
        });
        kept
    }
}

/// Trace helper: renders the most specific patterns discovered this
/// iteration (only used when `WICLEAN_TRACE` is set).
fn last_trace_buffer(
    results: &[WindowResult],
    discovered: &HashMap<Pattern, DiscoveredPattern>,
) -> Vec<String> {
    let mut out = Vec::new();
    for r in results {
        for p in r.most_specific() {
            if discovered
                .get(&p.pattern)
                .is_some_and(|d| d.window == r.window)
            {
                out.push(format!(
                    "f={:.3} win={} len={} pattern#{:?}",
                    p.frequency,
                    r.window,
                    p.pattern.len(),
                    p.pattern
                        .actions()
                        .iter()
                        .map(|a| (a.op.sigil(), a.rel))
                        .collect::<Vec<_>>()
                ));
            }
        }
    }
    out
}

/// Algorithm 2: mines windows of increasing width / decreasing threshold
/// until the discovered pattern set stabilizes.
pub fn find_windows_and_patterns(
    source: &dyn FetchSource,
    universe: &Universe,
    seed: TypeId,
    config: &WcConfig,
) -> WcResult {
    let mut width = config.w_min;
    let mut tau = config.tau0;
    let mut discovered = Discoveries::default();
    let mut failed: Vec<WindowFailure> = Vec::new();
    let mut iterations = 0usize;
    #[allow(unused_assignments)]
    let mut last_results: Vec<WindowResult> = Vec::new();
    // Alternation state: 0 → widen window next, 1 → lower threshold next.
    let mut step = 0u8;
    // Barren-iteration counter: because refinement alternates between two
    // dimensions, one dimension's step may add nothing while the other's
    // next step would; stop only after both consecutive steps are barren.
    let mut barren = 0usize;
    // Preprocessing outcomes survive across refinement iterations; widened
    // windows tile exactly from the previous iteration's sub-windows
    // (split_span always starts at timeline_start), so the action cache
    // composes them without re-diffing any wikitext.
    let caches = MiningCaches::from_config(config);
    // Each window's candidate memo, kept into the next iteration only when
    // that iteration lowers τ over the same windows. A window whose worker
    // panicked never puts its memo back, so it starts the next iteration
    // empty.
    let mut memos: Mutex<HashMap<Window, WindowMemo>> = Mutex::default();
    // One pool for the whole search: its workers serve both window-level
    // tasks and the miners' intra-window candidate batches, across every
    // refinement iteration.
    let pool = Arc::new(MiningPool::new(config.threads.max(1)));

    loop {
        iterations += 1;
        let windows = Window::split_span(config.timeline_start, config.timeline_end, width);
        let mut miner_config = config.miner;
        miner_config.tau = tau;
        let miner = WindowMiner::new(source, universe, miner_config)
            .with_caches(caches.clone())
            .with_pool(Arc::clone(&pool));
        let outcomes = run_windows(&windows, seed, &pool, |w| {
            let mut memo = memos.lock().remove(w).unwrap_or_default();
            let result = miner.mine_window_with(seed, w, &mut memo);
            memos.lock().insert(*w, memo);
            result
        });
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(f) => failed.push(f),
            }
        }

        let new_found = discovered.absorb(&results, width, tau);
        let trace = std::env::var_os("WICLEAN_TRACE").is_some();
        if trace {
            eprintln!(
                "[wc] iter {iterations}: width {}d tau {tau:.3} → {new_found} new",
                width / 86_400
            );
            for r in &last_trace_buffer(&results, &discovered.found) {
                eprintln!("[wc]   {r}");
            }
        }
        last_results = results;

        // Stop when refinement stops adding patterns — but only once
        // something has been found (Algorithm 2 line 10 refines both "if
        // patterns == []" and while refinement keeps discovering), and only
        // after both alternating dimensions came up empty in a row.
        if new_found == 0 {
            barren += 1;
        } else {
            barren = 0;
        }
        if iterations > 1 && barren >= 2 && !discovered.found.is_empty() {
            break;
        }

        // Choose the next refinement step (alternating), skipping a
        // dimension already at its bound; stop when both are exhausted,
        // when a degenerate policy makes no progress, or at the iteration
        // cap.
        if iterations >= config.max_iterations {
            break;
        }
        // A dimension is refinable if it is inside its bound AND the policy
        // actually changes it (window factor 1.0 / zero τ-reduction are
        // no-op dimensions — Table 1's degenerate policies — and the
        // alternation must fall through to the other dimension).
        let can_widen = width < config.max_window && config.policy.window_factor > 1.0;
        let can_lower = tau > config.min_tau && config.policy.tau_reduction > 0.0;
        if !can_widen && !can_lower {
            break;
        }
        let (prev_width, prev_tau) = (width, tau);
        if (step == 0 && can_widen) || !can_lower {
            width = ((width as f64) * config.policy.window_factor).round() as u64;
            width = width.min(config.max_window);
            memos.get_mut().clear();
        } else {
            tau *= 1.0 - config.policy.tau_reduction;
            tau = tau.max(config.min_tau);
        }
        step ^= 1;
        if width == prev_width && (tau - prev_tau).abs() < 1e-12 && new_found == 0 {
            break; // degenerate policy: parameters frozen and nothing new
        }
    }

    // Cross-iteration most-specific filter: a pattern discovered at a high
    // threshold may be generalized by one found later.
    let final_patterns = discovered.most_specific(Some(universe.taxonomy()));
    failed.sort_by_key(|f| f.window);
    failed.dedup_by_key(|f| f.window);

    WcResult {
        seed,
        discovered: final_patterns,
        iterations,
        final_width: width,
        final_tau: tau,
        stats: discovered.stats,
        window_results: last_results,
        degraded: discovered.degraded,
        failed_windows: failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::soccer_fixture;

    fn fixture_config(fx: &crate::testutil::Fixture) -> WcConfig {
        WcConfig {
            w_min: fx.window.len(),
            tau0: 0.8,
            max_window: fx.window.len() * 4,
            min_tau: 0.2,
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            threads: 2,
            ..WcConfig::default()
        }
    }

    #[test]
    fn discovers_planted_pattern_end_to_end() {
        let fx = soccer_fixture();
        let config = fixture_config(&fx);
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        assert!(
            result
                .discovered
                .iter()
                .any(|d| d.pattern == fx.expected_pair_pattern()),
            "planted pattern not discovered; got {:?}",
            result
                .discovered
                .iter()
                .map(|d| d.pattern.display(&fx.universe))
                .collect::<Vec<_>>()
        );
        assert!(result.iterations >= 1);
        assert!(result.stats.entities_processed > 0);
    }

    #[test]
    fn refinement_terminates_at_bounds() {
        let fx = soccer_fixture();
        let mut config = fixture_config(&fx);
        // Nothing will ever be frequent: τ can't go below min and windows
        // can't grow beyond max, so the loop must stop.
        config.miner.tau = 1.5;
        config.tau0 = 1.5;
        config.min_tau = 1.4;
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        assert!(result.discovered.is_empty());
        assert!(result.iterations < 50, "terminates promptly");
    }

    #[test]
    fn degraded_search_reports_losses_without_aborting() {
        use wiclean_revstore::{FaultPlan, FaultyStore, ResilientFetcher, RetryPolicy};
        let fx = soccer_fixture();
        let config = fixture_config(&fx);
        let faulty = FaultyStore::new(&fx.store, FaultPlan::transient_only(0.9, 11));
        let fetcher = ResilientFetcher::new(&faulty, RetryPolicy::no_retries());
        let result = find_windows_and_patterns(&fetcher, &fx.universe, fx.player_ty, &config);
        assert!(
            !result.degraded.lost.is_empty(),
            "90% faults without retries must lose coverage"
        );
        assert!(result.failed_windows.is_empty(), "losses are not panics");
    }

    #[test]
    fn by_frequency_is_sorted() {
        let fx = soccer_fixture();
        let config = fixture_config(&fx);
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        let freqs: Vec<f64> = result.by_frequency().iter().map(|d| d.frequency).collect();
        for pair in freqs.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::pattern::Pattern as P;
    use crate::testutil::soccer_fixture;

    /// A search over the fixture whose last iteration lowers τ over the
    /// windows the previous one mined: half-width windows at τ 0.8, then
    /// the full window (the width bound), then τ 0.64 at that width.
    fn tau_lowering_config(fx: &crate::testutil::Fixture, threads: usize) -> WcConfig {
        WcConfig {
            w_min: fx.window.len() / 2,
            tau0: 0.8,
            max_window: fx.window.len(),
            min_tau: 0.2,
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            threads,
            ..WcConfig::default()
        }
    }

    /// Everything a window's mining produced but its counters: patterns,
    /// their tables, supports and relative patterns, and the coverage.
    fn digest(r: &WindowResult) -> String {
        format!("{:?} {:?} {:?}", r.window, r.patterns, r.degraded)
    }

    #[test]
    fn memo_kept_across_tau_lowering_equals_fresh_mining() {
        let fx = soccer_fixture();
        let config = tau_lowering_config(&fx, 1);
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        assert_eq!(result.iterations, 3);
        assert_eq!(result.final_width, config.max_window);
        assert!(
            result.final_tau < config.tau0,
            "the last iteration lowers τ"
        );

        // Every window of the last iteration equals a memo-free mine at the
        // final τ, which runs more joins: the memos kept from the previous
        // iteration served some of its candidates.
        let mut final_config = config.miner;
        final_config.tau = result.final_tau;
        let miner = WindowMiner::new(&fx.store, &fx.universe, final_config);
        assert!(!result.window_results.is_empty());
        let (mut kept_joins, mut fresh_joins) = (0, 0);
        for kept in &result.window_results {
            let fresh = miner.mine_window(fx.player_ty, &kept.window);
            assert_eq!(digest(kept), digest(&fresh));
            kept_joins += kept.stats.joins_executed;
            fresh_joins += fresh.stats.joins_executed;
        }
        assert!(kept_joins < fresh_joins, "{kept_joins} vs {fresh_joins}");
        let pinned = [132, 68, 46, 68, 8, 60, 308, 48, 68, 0, 0, 24, 3];
        assert_eq!(crate::testutil::work_counters(&result.stats), pinned);
    }

    #[test]
    fn search_is_identical_at_any_thread_count() {
        // Memos kept across iterations are written back on the pool's
        // threads: the search's output and counters must not notice.
        let fx = soccer_fixture();
        let untimed = |s: &MineStats| MineStats {
            preprocess: Default::default(),
            mine: Default::default(),
            ..s.clone()
        };
        let run = |threads| {
            let config = tau_lowering_config(&fx, threads);
            let r = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
            let windows: Vec<(String, MineStats)> = r
                .window_results
                .iter()
                .map(|w| (digest(w), untimed(&w.stats)))
                .collect();
            (format!("{:?}", r.discovered), windows, untimed(&r.stats))
        };
        let one = run(1);
        assert!(one.1.iter().any(|(_, s)| s.cache_hits > 0));
        for threads in [2, 8] {
            assert_eq!(run(threads), one, "threads {threads}");
        }
    }

    #[test]
    fn action_cached_search_equals_uncached_search() {
        let fx = soccer_fixture();
        let base = tau_lowering_config(&fx, 1);
        let mut with_cache = base;
        with_cache.use_action_cache = true;
        let mut without_cache = base;
        without_cache.use_action_cache = false;

        let a = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &with_cache);
        let b = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &without_cache);

        // Identical search trajectory and output: the preprocessing cache
        // only changes *where* extractions come from, never their content.
        let pa: Vec<(P, usize)> = a
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        let pb: Vec<(P, usize)> = b
            .discovered
            .iter()
            .map(|d| (d.pattern.clone(), d.support))
            .collect();
        assert_eq!(pa, pb, "action caching must not change the discovered set");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.stats.joins_executed, b.stats.joins_executed);
        assert_eq!(a.stats.candidates_considered, b.stats.candidates_considered);
        assert_eq!(a.stats.entities_processed, b.stats.entities_processed);
        assert_eq!(a.stats.actions_extracted, b.stats.actions_extracted);
        assert_eq!(a.stats.reduced_actions, b.stats.reduced_actions);

        // Refinement re-extracts the same entities each iteration: the
        // cache must serve a measurable share of those lookups (exact hits
        // on repeated windows, compositions on widened ones).
        let served = a.stats.action_cache_hits + a.stats.action_cache_composed;
        assert!(
            served > 0,
            "refinement must reuse preprocessing: {:?}",
            a.stats
        );
        assert!(a.stats.action_cache_hit_rate() > 0.0);
        assert_eq!(
            (
                b.stats.action_cache_hits,
                b.stats.action_cache_composed,
                b.stats.action_cache_misses
            ),
            (0, 0, 0),
            "ablated run must not touch the action cache"
        );
    }
}
