//! Serializable reports of mining runs (JSON export for dashboards and the
//! experiment harness).

use crate::miner::MineStats;
use crate::windows::WcResult;
use serde::{Deserialize, Serialize};
use wiclean_revstore::ShardLoss;
use wiclean_types::{Universe, Window};

/// One pattern in a serialized report.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PatternReport {
    /// Human-readable pattern text, e.g.
    /// `+ (SoccerPlayer_1, current_club, SoccerClub_1); …`.
    pub display: String,
    /// Frequency at discovery.
    pub frequency: f64,
    /// Distinct seed entities supporting it.
    pub support: usize,
    /// The discovering window.
    pub window: Window,
    /// Window width of the discovering iteration (seconds).
    pub window_width: u64,
    /// Threshold of the discovering iteration.
    pub tau: f64,
    /// Relative frequent refinements: (display, relative frequency).
    pub rel_patterns: Vec<(String, f64)>,
}

/// One entity a run could not fetch, rendered for humans.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct LostEntityReport {
    /// Entity name.
    pub entity: String,
    /// Terminal fetch error, rendered.
    pub reason: String,
    /// Revisions known to be lost (0 when unknown).
    pub revisions_lost: u64,
}

/// The degraded-coverage section of a report: exactly what the run lost.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct DegradedReport {
    /// Entities skipped because their histories could not be fetched.
    pub entities_lost: Vec<LostEntityReport>,
    /// Total revisions known lost with them.
    pub revisions_lost: u64,
    /// Recoverable markup defects healed by the parser.
    pub parse_issues: u64,
    /// Whether a lost entity belongs to the seed type, biasing frequency
    /// denominators.
    pub denominator_affected: bool,
    /// Windows whose workers panicked: (window, panic message).
    pub failed_windows: Vec<(Window, String)>,
    /// Revisions that arrived after their stream window sealed.
    #[serde(default)]
    pub late_revisions: u64,
    /// Per-shard tail losses of an out-of-core corpus recovery.
    #[serde(default)]
    pub shard_losses: Vec<ShardLoss>,
}

impl DegradedReport {
    /// Whether the run had full coverage.
    pub fn is_empty(&self) -> bool {
        self.entities_lost.is_empty()
            && self.parse_issues == 0
            && self.failed_windows.is_empty()
            && self.late_revisions == 0
            && self.shard_losses.is_empty()
    }
}

/// A full serialized WiClean run.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WcReport {
    /// Seed type name.
    pub seed_type: String,
    /// Refinement iterations executed.
    pub iterations: usize,
    /// Final window width (seconds).
    pub final_width: u64,
    /// Final threshold.
    pub final_tau: f64,
    /// Discovered most specific patterns.
    pub patterns: Vec<PatternReport>,
    /// Aggregated statistics.
    pub stats: MineStats,
    /// What the run lost to fetch failures (empty on a healthy source).
    #[serde(default)]
    pub degraded: DegradedReport,
}

impl WcReport {
    /// Builds a report from a [`WcResult`].
    pub fn from_result(result: &WcResult, universe: &Universe) -> Self {
        Self {
            seed_type: universe.type_name(result.seed).to_owned(),
            iterations: result.iterations,
            final_width: result.final_width,
            final_tau: result.final_tau,
            patterns: result
                .discovered
                .iter()
                .map(|d| PatternReport {
                    display: d.pattern.display(universe),
                    frequency: d.frequency,
                    support: d.support,
                    window: d.window,
                    window_width: d.window_width,
                    tau: d.tau,
                    rel_patterns: d
                        .rel_patterns
                        .iter()
                        .map(|r| (r.pattern.display(universe), r.rel_frequency))
                        .collect(),
                })
                .collect(),
            stats: result.stats.clone(),
            degraded: DegradedReport {
                entities_lost: result
                    .degraded
                    .lost
                    .iter()
                    .map(|l| LostEntityReport {
                        entity: universe.entity_name(l.entity).to_owned(),
                        reason: l.error.to_string(),
                        revisions_lost: l.revisions_lost,
                    })
                    .collect(),
                revisions_lost: result.degraded.revisions_lost(),
                parse_issues: result.degraded.parse_issues,
                denominator_affected: result.degraded.denominator_affected,
                failed_windows: result
                    .failed_windows
                    .iter()
                    .map(|f| {
                        (
                            f.window,
                            format!("seed {}: {}", universe.type_name(f.seed), f.panic),
                        )
                    })
                    .collect(),
                late_revisions: result.degraded.late_revisions,
                shard_losses: result.degraded.shard_losses.clone(),
            },
        }
    }

    /// Pretty JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report back from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WcConfig;
    use crate::testutil::soccer_fixture;
    use crate::windows::find_windows_and_patterns;

    #[test]
    fn report_round_trips_through_json() {
        let fx = soccer_fixture();
        let config = WcConfig {
            w_min: fx.window.len(),
            max_window: fx.window.len(),
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            ..WcConfig::default()
        };
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        let report = WcReport::from_result(&result, &fx.universe);
        assert_eq!(report.seed_type, "SoccerPlayer");
        assert!(!report.patterns.is_empty());
        let json = report.to_json();
        let back = WcReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn degraded_section_round_trips() {
        use wiclean_revstore::{FaultPlan, FaultyStore, ResilientFetcher, RetryPolicy};
        let fx = soccer_fixture();
        let config = WcConfig {
            w_min: fx.window.len(),
            max_window: fx.window.len(),
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            ..WcConfig::default()
        };
        let faulty = FaultyStore::new(&fx.store, FaultPlan::transient_only(0.9, 5));
        let fetcher = ResilientFetcher::new(&faulty, RetryPolicy::no_retries());
        let result = find_windows_and_patterns(&fetcher, &fx.universe, fx.player_ty, &config);
        let report = WcReport::from_result(&result, &fx.universe);
        assert!(!report.degraded.is_empty(), "faulty run must report losses");
        assert_eq!(
            report.degraded.entities_lost.len(),
            result.degraded.entities_lost()
        );
        let back = WcReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_carries_action_cache_hit_rate() {
        let fx = soccer_fixture();
        let config = WcConfig {
            w_min: fx.window.len(),
            max_window: fx.window.len(),
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            ..WcConfig::default()
        };
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        let report = WcReport::from_result(&result, &fx.universe);
        // Refinement re-mines the same windows, so the default-on
        // preprocessing cache must have served lookups — and the counters
        // ride into the serialized report through `stats`.
        assert!(
            report.stats.action_cache_hits + report.stats.action_cache_composed > 0,
            "stats: {:?}",
            report.stats
        );
        assert!(report.stats.action_cache_hit_rate() > 0.0);
        assert!(report.to_json().contains("action_cache_hits"));
    }

    #[test]
    fn report_carries_planner_counters() {
        let fx = soccer_fixture();
        let config = WcConfig {
            w_min: fx.window.len(),
            max_window: fx.window.len(),
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            ..WcConfig::default()
        };
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        let report = WcReport::from_result(&result, &fx.universe);
        // The adaptive planner defaults on: every candidate join picked a
        // strategy, and the pick/cache counters ride into the serialized
        // report through `stats`.
        let picks = report.stats.plan_picks_hash
            + report.stats.plan_picks_sort_merge
            + report.stats.plan_picks_nested
            + report.stats.plan_picks_partitioned;
        assert!(picks > 0, "stats: {:?}", report.stats);
        // The fixture's joins are tiny, so they ride the small-join fast
        // path without cache traffic — the counters still serialize.
        let json = report.to_json();
        assert!(json.contains("replans"));
        assert!(json.contains("plan_cache_hits"));
        assert!(json.contains("plan_cache_misses"));
        assert!(json.contains("plan_picks_hash"));
    }

    #[test]
    fn report_carries_extract_skip_rate() {
        let fx = soccer_fixture();
        let config = WcConfig {
            w_min: fx.window.len(),
            max_window: fx.window.len(),
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            ..WcConfig::default()
        };
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        let report = WcReport::from_result(&result, &fx.universe);
        // Extraction defaults to the incremental parser; the fixture's
        // histories repeat most of each page between revisions, so some
        // bytes must have been spliced through instead of re-parsed — and
        // the counters ride into the serialized report.
        assert!(report.stats.bytes_parsed > 0, "stats: {:?}", report.stats);
        assert!(report.stats.bytes_skipped > 0, "stats: {:?}", report.stats);
        assert!(report.stats.extract_skip_rate() > 0.0);
        assert!(report.to_json().contains("bytes_skipped"));
    }

    #[test]
    fn report_display_is_readable() {
        let fx = soccer_fixture();
        let config = WcConfig {
            w_min: fx.window.len(),
            max_window: fx.window.len(),
            timeline_start: 0,
            timeline_end: fx.window.end,
            miner: fx.config(),
            ..WcConfig::default()
        };
        let result = find_windows_and_patterns(&fx.store, &fx.universe, fx.player_ty, &config);
        let report = WcReport::from_result(&result, &fx.universe);
        assert!(report
            .patterns
            .iter()
            .any(|p| p.display.contains("current_club")));
    }
}
