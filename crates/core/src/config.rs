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
    /// Sort–merge join: an alternative optimized strategy, useful when the
    /// realization tables grow large enough that cache-friendly sorted
    /// merging beats hash probing.
    SortMerge,
}

/// Adaptive join-planner knobs ([`wiclean_rel::plan::Planner`]): whether
/// the cost-based planner chooses pair-stage strategy/build side/partition
/// count per join, and how tolerant the runtime re-planner is before it
/// aborts a join whose output overshoots the estimate.
///
/// `Deserialize` is hand-written (below) so invalid values are rejected at
/// config-load time with a clear message (a re-plan factor at or below 1.0
/// would bail out of joins whose estimates were *correct*).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PlannerPolicy {
    /// Whether joins are planned adaptively. `false` restores the fixed
    /// heuristics (hash build-right, `PARALLEL_MIN_*` parallel gate) —
    /// the ablation baseline. Normally driven from
    /// [`WcConfig::use_adaptive_planner`].
    pub enabled: bool,
    /// Re-plan when observed output cardinality exceeds the estimate by
    /// this factor (> 1.0).
    pub replan_factor: f64,
}

impl Default for PlannerPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            replan_factor: 4.0,
        }
    }
}

impl PlannerPolicy {
    /// Validates the knob values.
    pub fn validate(&self) -> Result<(), String> {
        // Written to reject NaN as well as values at or below 1.0.
        if self.replan_factor.is_nan() || self.replan_factor <= 1.0 {
            return Err("planner policy: replan_factor must be greater than 1.0".to_owned());
        }
        Ok(())
    }
}

impl<'de> serde::Deserialize<'de> for PlannerPolicy {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{content_into_fields, take_field_or_default};
        const NAME: &str = "PlannerPolicy";
        let content = serde::Deserializer::deserialize_content(deserializer)?;
        let mut fields = content_into_fields::<D::Error>(content, NAME)?;
        let default = Self::default();
        let policy = Self {
            enabled: take_field_or_default::<Option<bool>, D::Error>(&mut fields, "enabled", NAME)?
                .unwrap_or(default.enabled),
            replan_factor: take_field_or_default::<Option<f64>, D::Error>(
                &mut fields,
                "replan_factor",
                NAME,
            )?
            .unwrap_or(default.replan_factor),
        };
        policy.validate().map_err(serde::de::Error::custom)?;
        Ok(policy)
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
    /// Intra-window parallelism: candidate extensions of one window's
    /// frontier are evaluated on the shared work pool. `0` (auto) uses the
    /// pool attached to the miner when there is one (so a parallel driver's
    /// pool is shared between window-level and intra-window tasks), `1`
    /// forces sequential intra-window evaluation, and `n > 1` spins up a
    /// dedicated `n`-wide pool per mining call when none is attached.
    /// Output is byte-identical at any setting.
    #[serde(default)]
    pub intra_window_threads: usize,
    /// Intra-join parallelism for the [`JoinImpl::Hash`] pair stage: large
    /// joins are radix-partitioned by key hash and the partitions run as a
    /// batch. `0` (auto) runs join partitions on the pool attached to the
    /// miner when there is one, `1` forces serial joins, and `n > 1` spins
    /// up a dedicated `n`-wide pool per mining call when none is attached.
    /// The partitioned join is byte-identical to the serial hash join at
    /// any width; small inputs fall back to the serial path regardless.
    #[serde(default)]
    pub join_threads: usize,
    /// Run extraction through the frozen full-reparse pipeline instead of
    /// the interned incremental one
    /// ([`wiclean_revstore::ExtractMode::FullReparse`]). Output is
    /// byte-identical either way; set for ablation/debugging. Normally
    /// driven from [`WcConfig::use_incremental_extract`].
    #[serde(default)]
    pub full_reparse_extract: bool,
    /// Adaptive join-planner knobs. Only consulted on the
    /// [`JoinImpl::Hash`] path (the `NestedLoop`/`SortMerge` ablations
    /// keep forcing their strategy); absent in legacy configs → defaults
    /// (planner on). Mined output is byte-identical at any setting.
    #[serde(default)]
    pub planner: PlannerPolicy,
    /// Force every planned join through this exact plan, bypassing
    /// statistics, cache, and re-planning — the `ForcedPlan` hook the
    /// differential proptests drive. Mined output is byte-identical for
    /// every valid plan.
    #[serde(default)]
    pub forced_plan: Option<wiclean_rel::JoinPlan>,
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
            intra_window_threads: 0,
            join_threads: 0,
            full_reparse_extract: false,
            planner: PlannerPolicy::default(),
            forced_plan: None,
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

/// Which corpus backend serves revision histories to the miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorpusBackend {
    /// Everything resident: the in-memory [`wiclean_revstore::RevisionStore`].
    /// Fastest, but RSS grows with the corpus.
    Memory,
    /// Out-of-core: the sharded [`wiclean_revstore::ShardedStore`] —
    /// delta-encoded segment logs on disk, mmap-backed reads, and a
    /// byte-budgeted snapshot cache bounding resident text.
    Disk,
}

/// Out-of-core corpus knobs ([`CorpusBackend::Disk`]): how revision
/// histories are sharded, delta-encoded, and cached when the corpus does
/// not fit in memory.
///
/// `Deserialize` is hand-written (below) so invalid values are rejected at
/// config-load time with a clear message (zero shards would divide by zero
/// in shard routing; a zero snapshot interval would never emit a full
/// frame, making every materialization replay an unbounded delta chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CorpusPolicy {
    /// Which backend serves histories.
    pub backend: CorpusBackend,
    /// Segment files entity logs are hashed across (1..=4096).
    pub shards: u32,
    /// Full-text checkpoint frame every this many revisions per entity
    /// (≥ 1); 1 disables delta encoding entirely.
    pub snapshot_every: u32,
    /// Byte budget of the materialized-snapshot cache (≥ 1 MiB): the hot
    /// working set of decoded [`wiclean_revstore::PageHistory`] values the
    /// disk backend keeps resident between windows.
    pub memory_budget: u64,
}

impl Default for CorpusPolicy {
    fn default() -> Self {
        Self {
            backend: CorpusBackend::Memory,
            shards: 8,
            snapshot_every: 16,
            memory_budget: 256 << 20,
        }
    }
}

impl CorpusPolicy {
    /// Validates the knob values.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 || self.shards > 4096 {
            return Err("corpus policy: shards must be in 1..=4096".to_owned());
        }
        if self.snapshot_every == 0 {
            return Err("corpus policy: snapshot_every must be at least 1".to_owned());
        }
        if self.memory_budget < (1 << 20) {
            return Err("corpus policy: memory_budget must be at least 1 MiB".to_owned());
        }
        Ok(())
    }

    /// The [`wiclean_revstore::ShardPolicy`] these knobs describe, with the
    /// store's default sync cadence and ingest base budget.
    pub fn shard_policy(&self) -> wiclean_revstore::ShardPolicy {
        wiclean_revstore::ShardPolicy {
            shards: self.shards,
            snapshot_every: self.snapshot_every,
            ..wiclean_revstore::ShardPolicy::default()
        }
    }
}

impl<'de> serde::Deserialize<'de> for CorpusPolicy {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{content_into_fields, take_field, take_field_or_default};
        const NAME: &str = "CorpusPolicy";
        let content = serde::Deserializer::deserialize_content(deserializer)?;
        let mut fields = content_into_fields::<D::Error>(content, NAME)?;
        let default = Self::default();
        let policy = Self {
            backend: take_field(&mut fields, "backend", NAME)?,
            shards: take_field_or_default::<Option<u32>, D::Error>(&mut fields, "shards", NAME)?
                .unwrap_or(default.shards),
            snapshot_every: take_field_or_default::<Option<u32>, D::Error>(
                &mut fields,
                "snapshot_every",
                NAME,
            )?
            .unwrap_or(default.snapshot_every),
            memory_budget: take_field_or_default::<Option<u64>, D::Error>(
                &mut fields,
                "memory_budget",
                NAME,
            )?
            .unwrap_or(default.memory_budget),
        };
        policy.validate().map_err(serde::de::Error::custom)?;
        Ok(policy)
    }
}

/// Full configuration of Algorithm 2 (window and threshold search).
///
/// `Deserialize` is hand-written (below) so that configs serialized before
/// `use_incremental_extract` existed load with the flag *on* — the derive's
/// `#[serde(default)]` would silently turn the new extractor off.
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
    /// Worker threads for per-window parallelism (1 = sequential).
    pub threads: usize,
    /// Hard cap on refinement iterations (degenerate policies — window
    /// factor 1.0 or zero threshold reduction, as Table 1's grid samples —
    /// would otherwise never exhaust their bounds).
    pub max_iterations: usize,
    /// Reuse candidate realization tables across refinement iterations
    /// (the paper's caching optimization). Disable for ablation.
    pub use_cache: bool,
    /// Reuse per-entity preprocessing (parse → diff → extract) outcomes
    /// across refinement iterations via the shared
    /// [`wiclean_revstore::ActionCache`]; widened windows are assembled
    /// from cached sub-window extractions instead of re-diffing wikitext.
    /// Disable for ablation.
    pub use_action_cache: bool,
    /// Extract actions with the interned incremental parser (default):
    /// revision texts are line-diffed against their predecessor and only
    /// changed spans re-parsed. `false` routes every extraction through
    /// the frozen full-reparse reference pipeline — byte-identical output,
    /// ablation/debugging only.
    pub use_incremental_extract: bool,
    /// Plan joins adaptively (default): the cost-based planner picks
    /// pair-stage strategy, build side, and partition count from sampled
    /// statistics, re-planning at runtime when estimates drift. `false`
    /// restores the fixed heuristics — byte-identical output, ablation
    /// only. Fine-grained knobs live in [`MinerConfig::planner`].
    pub use_adaptive_planner: bool,
    /// Watermark/seal knobs of the streaming miner. Only consulted by
    /// `wiclean stream` and [`crate::stream::StreamMiner`]; values are
    /// validated at deserialize time by [`StreamPolicy`].
    pub stream: StreamPolicy,
    /// Corpus backend knobs: in-memory (default) or the out-of-core
    /// sharded store. Only consulted by drivers that open a corpus from
    /// disk; values are validated at deserialize time by [`CorpusPolicy`].
    pub corpus: CorpusPolicy,
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
            use_cache: take_field(&mut fields, "use_cache", NAME)?,
            use_action_cache: take_field(&mut fields, "use_action_cache", NAME)?,
            // Absent in configs written before the incremental extractor
            // existed; those must keep meaning "incremental on".
            use_incremental_extract: take_field_or_default::<Option<bool>, D::Error>(
                &mut fields,
                "use_incremental_extract",
                NAME,
            )?
            .unwrap_or(true),
            // Absent in configs written before the adaptive planner
            // existed; those must keep meaning "planner on".
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
            // Absent in configs written before the out-of-core corpus
            // existed; those get the in-memory default. Present values go
            // through `CorpusPolicy`'s validating deserializer.
            corpus: take_field_or_default::<Option<CorpusPolicy>, D::Error>(
                &mut fields,
                "corpus",
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
            use_cache: true,
            use_action_cache: true,
            use_incremental_extract: true,
            use_adaptive_planner: true,
            stream: StreamPolicy::default(),
            corpus: CorpusPolicy::default(),
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
    fn incremental_extract_defaults_on() {
        assert!(WcConfig::default().use_incremental_extract);
        assert!(!MinerConfig::default().full_reparse_extract);

        // A config serialized before the flag existed must load with the
        // incremental extractor on, not bool's false default.
        let mut json = serde_json::to_string(&WcConfig::default()).unwrap();
        json = json.replace(",\"use_incremental_extract\":true", "");
        assert!(!json.contains("use_incremental_extract"));
        let legacy: WcConfig = serde_json::from_str(&json).unwrap();
        assert!(legacy.use_incremental_extract);

        // And an explicit `false` survives the trip.
        let ablated = WcConfig {
            use_incremental_extract: false,
            ..WcConfig::default()
        };
        let back: WcConfig =
            serde_json::from_str(&serde_json::to_string(&ablated).unwrap()).unwrap();
        assert!(!back.use_incremental_extract);
    }

    #[test]
    fn adaptive_planner_defaults_on() {
        assert!(WcConfig::default().use_adaptive_planner);
        let policy = MinerConfig::default().planner;
        assert!(policy.enabled);
        assert!((policy.replan_factor - 4.0).abs() < 1e-9);
        assert!(MinerConfig::default().forced_plan.is_none());

        // A config serialized before the planner existed must load with
        // the planner on, not bool's false default.
        let mut json = serde_json::to_string(&WcConfig::default()).unwrap();
        json = json.replace(",\"use_adaptive_planner\":true", "");
        json = json.replace(
            ",\"planner\":{\"enabled\":true,\"replan_factor\":4.0},\"forced_plan\":null",
            "",
        );
        json = json.replace(
            ",\"planner\":{\"enabled\":true,\"replan_factor\":4},\"forced_plan\":null",
            "",
        );
        assert!(!json.contains("use_adaptive_planner"));
        assert!(!json.contains("replan_factor"));
        let legacy: WcConfig = serde_json::from_str(&json).unwrap();
        assert!(legacy.use_adaptive_planner);
        assert!(legacy.miner.planner.enabled);
        assert!((legacy.miner.planner.replan_factor - 4.0).abs() < 1e-9);

        // An explicit `false` survives the trip.
        let ablated = WcConfig {
            use_adaptive_planner: false,
            ..WcConfig::default()
        };
        let back: WcConfig =
            serde_json::from_str(&serde_json::to_string(&ablated).unwrap()).unwrap();
        assert!(!back.use_adaptive_planner);

        // A degenerate re-plan factor is rejected at load time: ≤ 1.0
        // would abort joins whose estimates were correct.
        let full = serde_json::to_string(&WcConfig::default()).unwrap();
        let bad = full.replace("\"replan_factor\":4", "\"replan_factor\":1.0");
        assert_ne!(bad, full, "replace must hit the serialized knob");
        let err = serde_json::from_str::<WcConfig>(&bad).unwrap_err();
        assert!(err.to_string().contains("greater than 1.0"), "{err}");
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
