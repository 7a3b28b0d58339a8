//! Configuration of the miner and of the window/threshold search.

use serde::{Deserialize, Serialize};
use wiclean_types::{Timestamp, HOUR, WEEK, YEAR};

/// Which join implementation computes pattern realizations.
///
/// The paper's `PM` uses dedicated join-based queries (hash joins here);
/// the `PM−join` ablation computes the identical relation "via conventional
/// main memory nested loop".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinImpl {
    /// Hash equijoin with inequality post-filters (WiClean's optimized path).
    Hash,
    /// Nested loop over the cross product (`PM−join`).
    NestedLoop,
}

/// Ignored; kept because the frozen benchmark sets it; goes with ROADMAP
/// item 2. Every join runs the fixed hash pair stage (or the nested loop
/// under [`JoinImpl::NestedLoop`]) whatever it holds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerPolicy {
    /// Ignored; kept because the frozen benchmark sets it; goes with
    /// ROADMAP item 2.
    pub enabled: bool,
}

impl Default for PlannerPolicy {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// How the edits graph is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpansionMode {
    /// WiClean's incremental construction: only revision histories of
    /// entity types reachable through frequent patterns are fetched.
    Incremental,
    /// Conventional graph mining: the caller materializes the full window
    /// edits graph up front ([`crate::miner::WindowMiner::mine_window_materialized`]);
    /// candidate singletons are seeded from *every* type in it (`PM−inc`).
    Materialized,
}

/// Parameters of one [`crate::miner::WindowMiner`] run (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinerConfig {
    /// Frequency threshold τ (Def. 3.3).
    pub tau: f64,
    /// Relative frequency threshold τ_rel (Def. 3.5).
    pub tau_rel: f64,
    /// Maximum number of abstract actions per pattern. The paper's
    /// discovered patterns have a handful of edges; bounding the size keeps
    /// the grow-and-store expansion finite.
    pub max_pattern_actions: usize,
    /// How many taxonomy levels above the concrete entity type abstraction
    /// may climb (`u32::MAX` = unbounded, up to the root).
    pub max_abstraction_height: u32,
    /// Maximum number of same-type variables per pattern, bounding the
    /// new-variable gluing fan-out.
    pub max_vars_per_type: u8,
    /// Join implementation for realization tables.
    pub join_impl: JoinImpl,
    /// Graph construction strategy.
    pub expansion: ExpansionMode,
    /// Whether relative frequent patterns are mined for each found pattern.
    pub mine_relative: bool,
    /// Ignored; kept because the frozen benchmark sets it; goes with
    /// ROADMAP item 2. Extraction always runs the incremental pipeline.
    #[serde(default)]
    pub full_reparse_extract: bool,
    /// Ignored; kept because the frozen benchmark sets it; goes with
    /// ROADMAP item 2.
    #[serde(default)]
    pub planner: PlannerPolicy,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            tau: 0.8,
            tau_rel: 0.5,
            max_pattern_actions: 4,
            max_abstraction_height: 1,
            max_vars_per_type: 2,
            join_impl: JoinImpl::Hash,
            expansion: ExpansionMode::Incremental,
            mine_relative: true,
            full_reparse_extract: false,
            planner: PlannerPolicy::default(),
        }
    }
}

/// The refinement policy of Algorithm 2: how window width and threshold
/// change between iterations. The paper's default — arrived at by the grid
/// search its Table 1 samples — multiplies the window by 2 and reduces the
/// threshold by 20%, alternating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefinePolicy {
    /// Multiplier applied to the window width on window-refinement steps.
    pub window_factor: f64,
    /// Fractional reduction applied to τ on threshold-refinement steps
    /// (0.2 = "reduce by 20%").
    pub tau_reduction: f64,
}

impl Default for RefinePolicy {
    fn default() -> Self {
        Self {
            window_factor: 2.0,
            tau_reduction: 0.2,
        }
    }
}

/// Watermark/seal knobs of the streaming miner
/// ([`crate::stream::StreamMiner`]).
///
/// A window seals once the watermark — the maximum event time seen so far
/// minus `grace` — passes the window's end. The grace period is how long
/// the stream tolerates out-of-order arrival before declaring a revision
/// late; revisions landing in an already-sealed window are counted in
/// [`crate::DegradedCoverage::late_revisions`], never silently dropped.
///
/// `Deserialize` is hand-written (below) so invalid values are rejected at
/// config-load time with a clear message instead of misbehaving (a zero
/// grace would seal a window the instant its last second ticks past, making
/// *every* out-of-order arrival late).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StreamPolicy {
    /// Watermark grace period in seconds (≥ 1): how far behind the maximum
    /// observed event time the stream still accepts arrivals.
    pub grace: u64,
    /// Revisions ingested into a dirty window between incremental delta
    /// refreshes (≥ 1). `1` refreshes after every revision; larger values
    /// batch deltas and amortize join work.
    pub refresh_revisions: u64,
}

impl Default for StreamPolicy {
    fn default() -> Self {
        Self {
            grace: HOUR,
            refresh_revisions: 64,
        }
    }
}

impl StreamPolicy {
    /// Validates the knob values.
    pub fn validate(&self) -> Result<(), String> {
        if self.grace == 0 {
            return Err("stream policy: grace must be at least 1 second".to_owned());
        }
        if self.refresh_revisions == 0 {
            return Err("stream policy: refresh_revisions must be at least 1".to_owned());
        }
        Ok(())
    }
}

impl<'de> serde::Deserialize<'de> for StreamPolicy {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{content_into_fields, take_field};
        const NAME: &str = "StreamPolicy";
        let content = serde::Deserializer::deserialize_content(deserializer)?;
        let mut fields = content_into_fields::<D::Error>(content, NAME)?;
        let policy = Self {
            grace: take_field(&mut fields, "grace", NAME)?,
            refresh_revisions: take_field(&mut fields, "refresh_revisions", NAME)?,
        };
        policy.validate().map_err(serde::de::Error::custom)?;
        Ok(policy)
    }
}

/// Full configuration of Algorithm 2 (window and threshold search).
///
/// `Deserialize` is hand-written (below) so that keys added after a config
/// was saved load with their defaults, and nested policies are validated
/// at load time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WcConfig {
    /// Initial (minimal) window width `W_min`; system default two weeks.
    pub w_min: u64,
    /// Initial frequency threshold; system default 0.8.
    pub tau0: f64,
    /// Maximal window width; default one year.
    pub max_window: u64,
    /// Minimal threshold value; default 0.2.
    pub min_tau: f64,
    /// Refinement policy.
    pub policy: RefinePolicy,
    /// Start of the observed timeline.
    pub timeline_start: Timestamp,
    /// End of the observed timeline.
    pub timeline_end: Timestamp,
    /// Per-window miner parameters (τ/τ_rel fields are overridden by the
    /// refinement loop).
    pub miner: MinerConfig,
    /// Width of the one work pool a run shares between window-level tasks
    /// and each miner's intra-window candidate and extraction batches
    /// (1 = sequential). Output is byte-identical at any width.
    pub threads: usize,
    /// Hard cap on refinement iterations (degenerate policies — window
    /// factor 1.0 or zero threshold reduction, as Table 1's grid samples —
    /// would otherwise never exhaust their bounds).
    pub max_iterations: usize,
    /// Reuse per-entity preprocessing (parse → diff → extract) outcomes
    /// across refinement iterations via the shared
    /// [`wiclean_revstore::ActionCache`]; widened windows are assembled
    /// from cached sub-window extractions instead of re-diffing wikitext.
    /// Disable for ablation. Batch mining only: the streaming miner never
    /// attaches it (see [`crate::stream::StreamConfig::from_wc`]).
    pub use_action_cache: bool,
    /// Ignored; kept because the frozen benchmark sets it; goes with
    /// ROADMAP item 2. Extraction always runs the incremental pipeline.
    pub use_incremental_extract: bool,
    /// Ignored; kept because the frozen benchmark sets it; goes with
    /// ROADMAP item 2.
    pub use_adaptive_planner: bool,
    /// Watermark/seal knobs of the streaming miner. Only consulted by
    /// `wiclean stream` and [`crate::stream::StreamMiner`]; values are
    /// validated at deserialize time by [`StreamPolicy`].
    pub stream: StreamPolicy,
}

impl<'de> serde::Deserialize<'de> for WcConfig {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{content_into_fields, take_field, take_field_or_default};
        const NAME: &str = "WcConfig";
        let content = serde::Deserializer::deserialize_content(deserializer)?;
        let mut fields = content_into_fields::<D::Error>(content, NAME)?;
        Ok(Self {
            w_min: take_field(&mut fields, "w_min", NAME)?,
            tau0: take_field(&mut fields, "tau0", NAME)?,
            max_window: take_field(&mut fields, "max_window", NAME)?,
            min_tau: take_field(&mut fields, "min_tau", NAME)?,
            policy: take_field(&mut fields, "policy", NAME)?,
            timeline_start: take_field(&mut fields, "timeline_start", NAME)?,
            timeline_end: take_field(&mut fields, "timeline_end", NAME)?,
            miner: take_field(&mut fields, "miner", NAME)?,
            threads: take_field(&mut fields, "threads", NAME)?,
            max_iterations: take_field(&mut fields, "max_iterations", NAME)?,
            use_action_cache: take_field(&mut fields, "use_action_cache", NAME)?,
            // Absent in configs written before the flag existed; those
            // load with the default.
            use_incremental_extract: take_field_or_default::<Option<bool>, D::Error>(
                &mut fields,
                "use_incremental_extract",
                NAME,
            )?
            .unwrap_or(true),
            // Absent in configs written before the flag existed; those
            // load with the default.
            use_adaptive_planner: take_field_or_default::<Option<bool>, D::Error>(
                &mut fields,
                "use_adaptive_planner",
                NAME,
            )?
            .unwrap_or(true),
            // Absent in configs written before the streaming miner existed;
            // those get the defaults. Present values go through
            // `StreamPolicy`'s validating deserializer.
            stream: take_field_or_default::<Option<StreamPolicy>, D::Error>(
                &mut fields,
                "stream",
                NAME,
            )?
            .unwrap_or_default(),
        })
    }
}

impl Default for WcConfig {
    fn default() -> Self {
        Self {
            w_min: 2 * WEEK,
            tau0: 0.8,
            max_window: YEAR,
            min_tau: 0.2,
            policy: RefinePolicy::default(),
            timeline_start: 0,
            timeline_end: YEAR,
            miner: MinerConfig::default(),
            threads: 1,
            max_iterations: 64,
            use_action_cache: true,
            use_incremental_extract: true,
            use_adaptive_planner: true,
            stream: StreamPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WcConfig::default();
        assert_eq!(c.w_min, 2 * WEEK);
        assert!((c.tau0 - 0.8).abs() < 1e-9);
        assert_eq!(c.max_window, YEAR);
        assert!((c.min_tau - 0.2).abs() < 1e-9);
        assert!((c.policy.window_factor - 2.0).abs() < 1e-9);
        assert!((c.policy.tau_reduction - 0.2).abs() < 1e-9);
    }

    #[test]
    fn miner_defaults() {
        let m = MinerConfig::default();
        assert_eq!(m.join_impl, JoinImpl::Hash);
        assert_eq!(m.expansion, ExpansionMode::Incremental);
        assert!(m.mine_relative);
        assert!(m.max_pattern_actions >= 2);
    }

    #[test]
    fn configs_serialize() {
        let c = WcConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: WcConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn saved_configs_with_a_durability_key_still_load() {
        // Configs saved while the config carried a `durability` section
        // (the retired checkpoint store's knobs) must keep loading: the
        // key, like any unknown key, is ignored.
        let full = serde_json::to_string(&WcConfig::default()).unwrap();
        assert!(!full.contains("durability"));
        let legacy_json = format!(
            "{},\"durability\":{{\"sync\":{{\"EveryN\":64}},\"checkpoint_every\":4096,\"delta_encode\":true}}}}",
            &full[..full.len() - 1]
        );
        let legacy: WcConfig = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy, WcConfig::default());
        // Even a value the old validator rejected no longer matters.
        let zero = legacy_json.replace("\"checkpoint_every\":4096", "\"checkpoint_every\":0");
        assert_eq!(
            serde_json::from_str::<WcConfig>(&zero).unwrap(),
            WcConfig::default()
        );

        // Configs saved while the miner carried the retired join planner's
        // knobs load too, even with values the old validator rejected.
        let planner = "\"planner\":{\"enabled\":true}";
        assert!(full.contains(planner));
        let legacy_json = full.replacen(
            planner,
            "\"planner\":{\"enabled\":true,\"replan_factor\":0.5},\"join_threads\":3,\
             \"forced_plan\":{\"strategy\":\"SortMerge\",\"build_side\":\"Left\",\"partitions\":4}",
            1,
        );
        let legacy: WcConfig = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy, WcConfig::default());

        // Configs saved while the miner carried its own intra-window thread
        // count load too; `threads` is the one thread setting now.
        let extract = "\"full_reparse_extract\":false";
        assert!(full.contains(extract));
        let legacy_json = full.replacen(
            extract,
            "\"intra_window_threads\":3,\"full_reparse_extract\":false",
            1,
        );
        let legacy: WcConfig = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy, WcConfig::default());

        // Configs saved before the extraction flag existed load with the
        // default.
        let legacy_json = full.replacen(",\"use_incremental_extract\":true", "", 1);
        assert!(!legacy_json.contains("use_incremental_extract"));
        let legacy: WcConfig = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy, WcConfig::default());

        // Configs saved while the config carried a `corpus` section (a
        // second, unread copy of the store flags) load too, even with
        // values the old validator rejected.
        assert!(!full.contains("\"corpus\""));
        let corpus = "\"corpus\":{\"backend\":\"Disk\",\"shards\":8,\"snapshot_every\":16,\
                      \"memory_budget\":268435456}";
        let legacy_json = format!("{},{corpus}}}", &full[..full.len() - 1]);
        let legacy: WcConfig = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy, WcConfig::default());
        let rejected = legacy_json
            .replace("\"shards\":8", "\"shards\":0")
            .replace("\"snapshot_every\":16", "\"snapshot_every\":0")
            .replace("\"memory_budget\":268435456", "\"memory_budget\":0");
        assert!(rejected.contains("\"shards\":0"));
        assert_eq!(
            serde_json::from_str::<WcConfig>(&rejected).unwrap(),
            WcConfig::default()
        );

        // Configs saved while the config carried the realization-cache
        // switch load too, whichever way it was set: every window's memo
        // is always on.
        assert!(!full.contains("\"use_cache\""));
        for value in [true, false] {
            let legacy_json = format!("{},\"use_cache\":{value}}}", &full[..full.len() - 1]);
            let legacy: WcConfig = serde_json::from_str(&legacy_json).unwrap();
            assert_eq!(legacy, WcConfig::default(), "use_cache {value}");
        }
    }

    #[test]
    fn stream_policy_defaults_for_legacy_configs_and_validates() {
        use wiclean_types::HOUR;
        let full = serde_json::to_string(&WcConfig::default()).unwrap();

        // Pre-streaming configs (no `stream` key) load with defaults.
        let start = full.find(",\"stream\"").unwrap();
        let legacy_json = format!("{}}}", &full[..start]);
        let legacy: WcConfig = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy.stream, StreamPolicy::default());
        assert_eq!(legacy.stream.grace, HOUR);
        assert_eq!(legacy.stream.refresh_revisions, 64);

        // Zero grace would make every out-of-order arrival late: rejected
        // at load time with a pointed message.
        let bad = full.replace(&format!("\"grace\":{HOUR}"), "\"grace\":0");
        let err = serde_json::from_str::<WcConfig>(&bad).unwrap_err();
        assert!(err.to_string().contains("at least 1 second"), "{err}");

        // Zero refresh cadence means "never refresh": rejected too.
        let bad = full.replace("\"refresh_revisions\":64", "\"refresh_revisions\":0");
        let err = serde_json::from_str::<WcConfig>(&bad).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");

        // Negative values never reach `validate`: u64 parsing rejects them.
        let bad = full.replace(&format!("\"grace\":{HOUR}"), "\"grace\":-5");
        assert!(serde_json::from_str::<WcConfig>(&bad).is_err());
    }
}
