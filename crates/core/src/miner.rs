//! Algorithm 1 — mining the most specific frequent connected patterns in a
//! time window.
//!
//! Follows the "grow and store" scheme of single-graph pattern miners,
//! adapted per the paper with:
//!
//! 1. **Join-based realization tables.** Each pattern's realizations live
//!    in a relational table; extending a pattern joins its table with the
//!    new abstract action's table (equi-join on the glued variable,
//!    inequality post-filter for the fresh variable). The `PM−join`
//!    ablation flips [`JoinImpl`] to a nested loop.
//! 2. **Incremental graph construction.** Only revision histories of
//!    entity types that occur in frequent patterns found so far are
//!    fetched, parsed and reduced (Algorithm 1 lines 4–8). The `PM−inc`
//!    ablation instead receives a fully materialized window graph
//!    ([`WindowMiner::mine_window_materialized`]) and seeds candidates
//!    from every type in it.
//! 3. **Type-hierarchy abstraction.** Every concrete action contributes
//!    realization rows to all its abstraction shapes within the configured
//!    height, so patterns are discovered at every abstraction level and
//!    the most specific frequent ones are selected at the end (Def. 3.3).

use crate::abstract_action::AbstractAction;
use crate::cache::RealizationCache;
use crate::config::{ExpansionMode, JoinImpl, MinerConfig};
use crate::degraded::DegradedCoverage;
use crate::interner::{PatternId, PatternInterner};
use crate::pattern::{Pattern, WorkingPattern};
use crate::pool::MiningPool;
use crate::realization::{
    action_realizations, frequency, frequency_from_support, relative_frequency, shape_of,
    support_count, support_from_distinct, Shape, ShapeRows,
};
use crate::var::Var;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wiclean_rel::{
    distinct_left_values, join_glue, join_glue_nested, join_glue_pairs, join_glue_pairs_nested,
    materialize_pairs, outer_join_glue, ColumnGlue, Table,
};
use wiclean_revstore::{
    reduce_actions, try_extract_actions, ActionCache, CacheLookup, ExtractOutcome, FetchError,
    FetchSource,
};
use wiclean_types::{EntityId, TypeId, Universe, Window};

/// Counters and timings of one window mining run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MineStats {
    /// Time spent crawling/parsing/reducing revision histories.
    pub preprocess: Duration,
    /// Time spent in pattern expansion (joins, frequency tests).
    pub mine: Duration,
    /// Pattern candidates considered (the paper's small-data metric).
    pub candidates_considered: usize,
    /// Realization joins executed.
    pub joins_executed: usize,
    /// Entities whose revision histories were fetched.
    pub entities_processed: usize,
    /// Raw actions extracted from revision histories.
    pub actions_extracted: usize,
    /// Actions surviving reduction.
    pub reduced_actions: usize,
    /// Frequent patterns found (all levels of abstraction).
    pub patterns_found: usize,
    /// Most specific frequent patterns among them.
    pub most_specific_found: usize,
    /// Realization-cache hits (0 when caching is off).
    pub cache_hits: usize,
    /// Realization-cache misses (0 when caching is off).
    pub cache_misses: usize,
    /// Preprocessing-cache exact hits: entity extractions served without
    /// touching wikitext (0 when the action cache is off).
    #[serde(default)]
    pub action_cache_hits: usize,
    /// Preprocessing-cache compositions: widened-window extractions
    /// assembled from cached sub-window outcomes (0 when off).
    #[serde(default)]
    pub action_cache_composed: usize,
    /// Preprocessing-cache misses: extractions that ran from raw text
    /// (every extraction, when the action cache is off — then counted as 0).
    #[serde(default)]
    pub action_cache_misses: usize,
    /// Left-side rows fed through candidate-join pair stages (probe volume).
    #[serde(default)]
    pub rows_probed: usize,
    /// Matching row-index pairs the pair stages emitted.
    #[serde(default)]
    pub pairs_matched: usize,
    /// Candidate joins whose output table was actually gathered: accepted
    /// candidates, plus cached-pruned candidates re-accepted under a lower
    /// threshold.
    #[serde(default)]
    pub tables_materialized: usize,
    /// Candidate joins pruned by the distinct-source fast path: support and
    /// frequency were counted straight off the pair stream and the output
    /// table was never materialized.
    #[serde(default)]
    pub tables_pruned: usize,
    /// Wikitext bytes actually fed through a parser during extraction
    /// (cache hits and compositions contribute nothing — their bytes were
    /// counted when the underlying extraction ran).
    #[serde(default)]
    pub bytes_parsed: u64,
    /// Wikitext bytes the incremental extractor skipped: unchanged
    /// prefix/suffix lines spliced through without re-parsing.
    #[serde(default)]
    pub bytes_skipped: u64,
    /// Cumulative seal-to-result lag of streamed windows: microseconds from
    /// the watermark passing a window's bound to its mined result being
    /// ready (0 for batch runs).
    #[serde(default)]
    pub stream_lag_us: u64,
    /// Windows sealed by the streaming miner (0 for batch runs).
    #[serde(default)]
    pub windows_sealed: u64,
    /// Row-index pairs emitted by delta-join stages — pairs touching at
    /// least one appended row, the work a full re-join would have spent on
    /// the whole window (0 for batch runs).
    #[serde(default)]
    pub delta_rows_joined: u64,
    /// Streamed window refreshes that fell back to a full re-mine because
    /// a delta was not append-only (action reduction retracted rows).
    #[serde(default)]
    pub full_remine_fallbacks: u64,
    /// Valid segment bytes of the on-disk sharded corpus backing this run
    /// (0 for in-memory corpora) — a gauge, not a rate.
    #[serde(default)]
    pub bytes_on_disk: u64,
    /// Delta frames decoded while reading page histories from a sharded
    /// store (the replay work `snapshot_every` bounds per revision).
    #[serde(default)]
    pub delta_chain_replays: u64,
    /// Times the sharded store handed its segments' resident pages back to
    /// the kernel because materializations had faulted in more than the
    /// memory budget (0 for in-memory corpora).
    #[serde(default)]
    pub map_residency_releases: u64,
    /// Always 0. Kept because the frozen benchmark reads it; goes with
    /// ROADMAP item 2.
    #[serde(default)]
    pub replans: usize,
    /// Always 0. Kept because the frozen benchmark reads it; goes with
    /// ROADMAP item 2.
    #[serde(default)]
    pub plan_cache_hits: usize,
    /// Hash pair stages run: candidate joins, and the streaming miner's
    /// delta joins.
    #[serde(default)]
    pub plan_picks_hash: usize,
    /// Always 0. Kept because the frozen benchmark reads it; goes with
    /// ROADMAP item 2.
    #[serde(default)]
    pub plan_picks_sort_merge: usize,
    /// Nested-loop pair stages run (the `PM−join` ablation).
    #[serde(default)]
    pub plan_picks_nested: usize,
    /// Always 0. Kept because the frozen benchmark reads it; goes with
    /// ROADMAP item 2.
    #[serde(default)]
    pub plan_picks_partitioned: usize,
}

impl MineStats {
    /// Merges another run's counters into this one (used when aggregating
    /// across windows).
    pub fn absorb(&mut self, other: &MineStats) {
        self.preprocess += other.preprocess;
        self.mine += other.mine;
        self.candidates_considered += other.candidates_considered;
        self.joins_executed += other.joins_executed;
        self.entities_processed += other.entities_processed;
        self.actions_extracted += other.actions_extracted;
        self.reduced_actions += other.reduced_actions;
        self.patterns_found += other.patterns_found;
        self.most_specific_found += other.most_specific_found;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.action_cache_hits += other.action_cache_hits;
        self.action_cache_composed += other.action_cache_composed;
        self.action_cache_misses += other.action_cache_misses;
        self.rows_probed += other.rows_probed;
        self.pairs_matched += other.pairs_matched;
        self.tables_materialized += other.tables_materialized;
        self.tables_pruned += other.tables_pruned;
        self.bytes_parsed += other.bytes_parsed;
        self.bytes_skipped += other.bytes_skipped;
        self.stream_lag_us += other.stream_lag_us;
        self.windows_sealed += other.windows_sealed;
        self.delta_rows_joined += other.delta_rows_joined;
        self.full_remine_fallbacks += other.full_remine_fallbacks;
        // A gauge (both sides describe the same on-disk corpus), not a sum.
        self.bytes_on_disk = self.bytes_on_disk.max(other.bytes_on_disk);
        self.delta_chain_replays += other.delta_chain_replays;
        self.map_residency_releases += other.map_residency_releases;
        self.replans += other.replans;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_picks_hash += other.plan_picks_hash;
        self.plan_picks_sort_merge += other.plan_picks_sort_merge;
        self.plan_picks_nested += other.plan_picks_nested;
        self.plan_picks_partitioned += other.plan_picks_partitioned;
    }

    /// Folds an out-of-core corpus' counter snapshot into this run's stats
    /// (called once, after mining, with the backing
    /// [`ShardedStore`](wiclean_revstore::ShardedStore)'s numbers).
    pub fn stamp_corpus(&mut self, corpus: &wiclean_revstore::CorpusStats) {
        self.bytes_on_disk = self.bytes_on_disk.max(corpus.bytes_on_disk);
        self.delta_chain_replays += corpus.delta_chain_replays;
        self.map_residency_releases += corpus.map_residency_releases;
    }

    /// Share of executed candidate joins whose output table was never
    /// materialized (the distinct-source fast path's saving); 0 when no
    /// joins ran.
    pub fn join_prune_rate(&self) -> f64 {
        let total = self.tables_materialized + self.tables_pruned;
        if total == 0 {
            0.0
        } else {
            self.tables_pruned as f64 / total as f64
        }
    }

    /// Share of revision bytes the prediff-gated incremental extractor
    /// skipped instead of parsing (over all bytes it looked at); 0 when
    /// nothing was extracted or extraction ran in full-reparse mode.
    pub fn extract_skip_rate(&self) -> f64 {
        let total = self.bytes_parsed + self.bytes_skipped;
        if total == 0 {
            0.0
        } else {
            self.bytes_skipped as f64 / total as f64
        }
    }

    /// Share of preprocessing lookups the action cache answered without
    /// re-parsing (exact hits plus compositions over all lookups); 0 when
    /// the cache is off or nothing was looked up.
    pub fn action_cache_hit_rate(&self) -> f64 {
        let served = self.action_cache_hits + self.action_cache_composed;
        let total = served + self.action_cache_misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// A relative frequent pattern (Def. 3.5) refined from a parent pattern.
#[derive(Debug, Clone)]
pub struct RelPattern {
    /// Canonical form.
    pub pattern: Pattern,
    /// Construction-order form (variable order = table columns).
    pub working: WorkingPattern,
    /// Distinct seed entities realizing it.
    pub support: usize,
    /// Absolute frequency w.r.t. the seed type.
    pub frequency: f64,
    /// Frequency relative to the parent pattern (Def. 3.4).
    pub rel_frequency: f64,
}

/// One discovered frequent pattern with its realization table.
#[derive(Debug, Clone)]
pub struct FoundPattern {
    /// Canonical form (identity).
    pub pattern: Pattern,
    /// Construction-order form matching `table`'s columns.
    pub working: WorkingPattern,
    /// Realization table (one column per variable).
    pub table: Table,
    /// Distinct seed entities appearing as the source variable.
    pub support: usize,
    /// Frequency (Def. 3.2).
    pub frequency: f64,
    /// Whether this pattern is most specific among the frequent set.
    pub most_specific: bool,
    /// Relative frequent patterns mined from this pattern.
    pub rel_patterns: Vec<RelPattern>,
}

/// Result of mining one window.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// The mined window.
    pub window: Window,
    /// The seed type.
    pub seed: TypeId,
    /// Every frequent pattern found (most specific ones flagged).
    pub patterns: Vec<FoundPattern>,
    /// Run counters.
    pub stats: MineStats,
    /// What this run lost to fetch failures and damaged text (empty on a
    /// healthy source).
    pub degraded: DegradedCoverage,
}

impl WindowResult {
    /// The most specific frequent patterns (the algorithm's output set).
    pub fn most_specific(&self) -> impl Iterator<Item = &FoundPattern> {
        self.patterns.iter().filter(|p| p.most_specific)
    }
}

/// Algorithm 1, bound to a fetch source and universe.
///
/// The source is any [`FetchSource`] — the plain in-memory store, a
/// fault-injecting decorator, or a [`wiclean_revstore::ResilientFetcher`];
/// `&RevisionStore` coerces, so happy-path callers are unaffected.
/// Entities whose histories cannot be fetched are skipped and recorded in
/// the result's [`DegradedCoverage`] rather than failing the run.
pub struct WindowMiner<'a> {
    source: &'a dyn FetchSource,
    universe: &'a Universe,
    config: MinerConfig,
    cache: Option<Arc<RealizationCache>>,
    action_cache: Option<Arc<ActionCache>>,
    interner: Arc<PatternInterner>,
    pool: Option<Arc<MiningPool>>,
}

/// Internal expansion node: a frequent pattern under construction.
/// `pub(crate)` so the streaming miner can drive the same expansion
/// skeleton with memoized candidate evaluation.
pub(crate) struct Node {
    pub(crate) id: PatternId,
    pub(crate) wp: WorkingPattern,
    pub(crate) canonical: Pattern,
    pub(crate) table: Table,
    pub(crate) support: usize,
    pub(crate) freq: f64,
}

/// One candidate extension of a frontier node: glue `action` onto
/// `nodes[parent]`, with the action's target either fresh or glued.
/// Candidates are collected serially (deterministic order), evaluated in
/// parallel, and merged deterministically.
pub(crate) struct CandidateSpec {
    pub(crate) parent: usize,
    pub(crate) action: AbstractAction,
    pub(crate) target_is_new: bool,
}

/// A fully evaluated candidate (pair-stage join or cache hit already done,
/// accept decision taken against the frozen frontier).
struct Evaluated {
    id: PatternId,
    canonical: Pattern,
    ext: WorkingPattern,
    /// Materialized realization table — `Some` whenever `accepted` (pruned
    /// candidates skip the gather entirely; cache hits may carry one even
    /// when rejected under the current threshold).
    table: Option<Table>,
    support: usize,
    freq: f64,
    via_cache: bool,
    /// Whether the score cleared the threshold (with nonzero support).
    accepted: bool,
    /// Whether a fresh gather ran for this evaluation.
    materialized: bool,
    /// Left rows fed through the pair stage (0 on cache hits).
    rows_probed: usize,
    /// Pairs the pair stage emitted (0 on cache hits).
    pairs_matched: usize,
}

/// What evaluating one [`CandidateSpec`] produced.
enum EvalOutcome {
    /// Canonical form was already accepted in an earlier generation.
    Known,
    /// Evaluated to a realization table (fresh join or cache hit).
    Done(Box<Evaluated>),
}

/// One entity's extraction: the preprocessing outcome plus how the action
/// cache answered (None when no cache is attached).
pub(crate) type Extracted = Result<(Arc<ExtractOutcome>, Option<CacheLookup>), FetchError>;

/// Mutable mining state for one window.
struct MineState {
    /// Concrete reduced pairs per abstraction shape (already lifted to all
    /// admissible heights).
    rows: HashMap<Shape, Vec<(EntityId, EntityId)>>,
    fetched_types: HashSet<TypeId>,
    fetched_entities: HashSet<EntityId>,
    stats: MineStats,
    degraded: DegradedCoverage,
}

impl<'a> WindowMiner<'a> {
    /// Creates a miner over `source`/`universe` with the given config.
    pub fn new(source: &'a dyn FetchSource, universe: &'a Universe, config: MinerConfig) -> Self {
        Self {
            source,
            universe,
            config,
            cache: None,
            action_cache: None,
            interner: Arc::new(PatternInterner::new()),
            pool: None,
        }
    }

    /// Attaches a shared realization cache (see [`RealizationCache`]);
    /// Algorithm 2 shares one across its refinement iterations.
    ///
    /// The cache is keyed by [`PatternId`], so a cache shared *across
    /// miners* must be paired with the same [`PatternInterner`] on every
    /// miner (attach both, or use [`WindowMiner::with_caches`], which keeps
    /// the pairing). Reusing this miner for several runs is always safe —
    /// its interner lives as long as the miner.
    pub fn with_cache(mut self, cache: Arc<RealizationCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a shared pattern interner (ids then stay comparable across
    /// every miner sharing it — required when sharing a realization cache).
    pub fn with_pattern_interner(mut self, interner: Arc<PatternInterner>) -> Self {
        self.interner = interner;
        self
    }

    /// Attaches a shared work pool: intra-window candidate evaluation and
    /// entity preprocessing then fan out over it; without one they run
    /// inline. The window-level driver shares one pool between window
    /// tasks and intra-window tasks. Output is byte-identical at any pool
    /// width.
    pub fn with_pool(mut self, pool: Arc<MiningPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a shared preprocessing cache (see
    /// [`wiclean_revstore::ActionCache`]): entity extractions are memoized
    /// by `(entity, history version, window)` and widened windows are
    /// composed from cached sub-window outcomes instead of re-parsing.
    pub fn with_action_cache(mut self, cache: Arc<ActionCache>) -> Self {
        self.action_cache = Some(cache);
        self
    }

    /// Attaches whatever caches `caches` carries (either cache may be
    /// absent; the pattern interner is always present and keeps the
    /// realization-cache/interner pairing consistent across miners).
    pub fn with_caches(mut self, caches: crate::cache::MiningCaches) -> Self {
        self.cache = caches.realizations;
        self.action_cache = caches.actions;
        self.interner = caches.patterns;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The pattern interner (shared across miners driving one cache).
    pub(crate) fn interner(&self) -> &Arc<PatternInterner> {
        &self.interner
    }

    /// Mines the most specific frequent (and relative frequent) patterns
    /// of `window` w.r.t. `seed`, constructing the edits graph
    /// incrementally from the seed type outward.
    pub fn mine_window(&self, seed: TypeId, window: &Window) -> WindowResult {
        assert_eq!(
            self.config.expansion,
            ExpansionMode::Incremental,
            "use mine_window_materialized for ExpansionMode::Materialized"
        );
        let t0 = Instant::now();
        let pool = self.pool.as_deref();
        let mut state = MineState::new();
        // Line 1: fetch + reduce + abstract the seed entities' actions.
        self.load_entities(&mut state, self.universe.entities_of(seed), window, pool);
        self.run_expansion(t0, state, seed, window, false, pool)
    }

    /// The `PM−inc` entry point: the caller supplies the full entity set of
    /// a pre-materialized window graph; everything is loaded up front and
    /// candidate singletons are seeded from every shape present (no
    /// incremental fetching).
    pub fn mine_window_materialized(
        &self,
        seed: TypeId,
        window: &Window,
        entities: impl IntoIterator<Item = EntityId>,
    ) -> WindowResult {
        let t0 = Instant::now();
        let pool = self.pool.as_deref();
        let mut state = MineState::new();
        self.load_entities(&mut state, entities, window, pool);
        self.run_expansion(t0, state, seed, window, true, pool)
    }

    /// Fetches and extracts one entity's actions — through the shared
    /// preprocessing cache when attached (errors take the same degraded
    /// path either way and are never cached). Pure per entity, so a batch
    /// of extractions can run in any order on the pool.
    pub(crate) fn extract_entity(&self, e: EntityId, window: &Window) -> Extracted {
        match &self.action_cache {
            Some(cache) => cache
                .extract(self.source, self.universe, e, window)
                .map(|(outcome, lookup)| (outcome, Some(lookup))),
            None => try_extract_actions(self.source, self.universe, e, window)
                .map(|outcome| (Arc::new(outcome), None)),
        }
    }

    /// Fetches, extracts, reduces and abstracts the actions of `entities`
    /// within `window`, extending the per-shape row store. Extraction fans
    /// out over `pool` when one is attached; all bookkeeping (counters,
    /// degraded-coverage records, row-store appends) folds the results back
    /// in entity order, so output is identical to a sequential load.
    fn load_entities(
        &self,
        state: &mut MineState,
        entities: impl IntoIterator<Item = EntityId>,
        window: &Window,
        pool: Option<&MiningPool>,
    ) {
        let t0 = Instant::now();
        let todo: Vec<EntityId> = entities
            .into_iter()
            .filter(|e| state.fetched_entities.insert(*e))
            .collect();
        let extracted: Vec<Extracted> = match pool {
            Some(pool) if todo.len() > 1 && pool.width() > 1 => {
                pool.map(&todo, |&e| self.extract_entity(e, window))
            }
            _ => todo
                .iter()
                .map(|&e| self.extract_entity(e, window))
                .collect(),
        };
        for (&e, extracted) in todo.iter().zip(extracted) {
            let outcome = match extracted {
                Ok((outcome, lookup)) => {
                    match lookup {
                        Some(CacheLookup::Hit) => state.stats.action_cache_hits += 1,
                        Some(CacheLookup::Composed) => state.stats.action_cache_composed += 1,
                        Some(CacheLookup::Miss) => state.stats.action_cache_misses += 1,
                        None => {}
                    }
                    // Byte counters only when the extraction actually ran:
                    // hits and compositions replay bytes already counted.
                    if matches!(lookup, Some(CacheLookup::Miss) | None) {
                        state.stats.bytes_parsed += outcome.bytes_parsed;
                        state.stats.bytes_skipped += outcome.bytes_skipped;
                    }
                    outcome
                }
                Err(err) => {
                    // Degrade, don't die: the entity contributes nothing to
                    // this window, and the loss is reported in the result.
                    state.degraded.record_loss(e, err);
                    continue;
                }
            };
            state.stats.entities_processed += 1;
            state.degraded.parse_issues += outcome.parse_issues;
            state.stats.actions_extracted += outcome.actions.len();
            let reduced = reduce_actions(&outcome.actions);
            state.stats.reduced_actions += reduced.len();
            for a in &reduced {
                self.lift_action(a, |shape, pair| {
                    state.rows.entry(shape).or_default().push(pair);
                });
            }
        }
        state.stats.preprocess += t0.elapsed();
    }

    /// Lifts one reduced action to every admissible abstraction shape
    /// (bounded by [`MinerConfig::max_abstraction_height`]), invoking
    /// `sink` per (shape, concrete pair) — the per-action inner loop of
    /// entity loading, shared with the streaming miner's per-entity
    /// contribution store.
    pub(crate) fn lift_action(
        &self,
        a: &wiclean_revstore::Action,
        mut sink: impl FnMut(Shape, (EntityId, EntityId)),
    ) {
        let tax = self.universe.taxonomy();
        let base = shape_of(a, self.universe);
        let pair = (a.source, a.target);
        for (i, s) in tax.ancestors(base.1).enumerate() {
            if i as u32 > self.config.max_abstraction_height {
                break;
            }
            for (j, t) in tax.ancestors(base.3).enumerate() {
                if j as u32 > self.config.max_abstraction_height {
                    break;
                }
                sink((base.0, s, base.2, t), pair);
            }
        }
    }

    /// Whether a singleton with source type `s` is eligible w.r.t. `seed`:
    /// the types are comparable, so seed entities can realize the source.
    pub(crate) fn seed_comparable(&self, s: TypeId, seed: TypeId) -> bool {
        let tax = self.universe.taxonomy();
        tax.is_subtype(seed, s) || tax.is_subtype(s, seed)
    }

    /// The main expansion loop shared by both entry points. `t0` is when
    /// the entry point started: `stats.mine` is the time since then minus
    /// every entity load (`stats.preprocess`), the seed load included.
    fn run_expansion(
        &self,
        t0: Instant,
        mut state: MineState,
        seed: TypeId,
        window: &Window,
        materialized: bool,
        pool: Option<&MiningPool>,
    ) -> WindowResult {
        let mut nodes: Vec<Node> = Vec::new();
        let mut found: HashSet<PatternId> = HashSet::new();
        let mut tested: HashSet<(PatternId, Shape)> = HashSet::new();

        // Line 2: frequent singleton patterns.
        self.seed_singletons(&mut state, seed, &mut nodes, &mut found, materialized);

        // Lines 4–15: interleave type fetching with pattern expansion.
        loop {
            {
                let MineState {
                    rows,
                    stats,
                    fetched_types,
                    ..
                } = &mut state;
                let fetched: BTreeSet<TypeId> = fetched_types.iter().copied().collect();
                self.expand_generations(
                    rows,
                    stats,
                    seed,
                    Some((window, &fetched)),
                    pool,
                    &mut nodes,
                    &mut found,
                    &mut tested,
                    &|_support, _parent_support, freq, _| freq,
                    self.config.tau,
                );
            }
            if materialized {
                break; // everything was loaded up front
            }
            // Which variable types in frequent patterns are new?
            let mentioned: BTreeSet<TypeId> =
                nodes.iter().flat_map(|n| n.canonical.types()).collect();
            let new_types: Vec<TypeId> = mentioned
                .into_iter()
                .filter(|t| !state.fetched_types.contains(t))
                .collect();
            if new_types.is_empty() {
                break;
            }
            for ty in new_types {
                state.fetched_types.insert(ty);
                self.load_entities(&mut state, self.universe.entities_of(ty), window, pool);
            }
        }

        // Line 16: select the most specific frequent patterns.
        let all_patterns: Vec<Pattern> = nodes.iter().map(|n| n.canonical.clone()).collect();
        let keep = crate::pattern::most_specific(&all_patterns, self.universe.taxonomy());
        let keep: HashSet<Pattern> = keep.into_iter().collect();

        let mut patterns: Vec<FoundPattern> = Vec::new();
        for node in &nodes {
            let most = keep.contains(&node.canonical);
            patterns.push(FoundPattern {
                pattern: node.canonical.clone(),
                working: node.wp.clone(),
                table: node.table.clone(),
                support: node.support,
                frequency: node.freq,
                most_specific: most,
                rel_patterns: Vec::new(),
            });
        }

        // Relative frequent patterns, mined from each most specific pattern.
        if self.config.mine_relative {
            for p in &mut patterns {
                if !p.most_specific {
                    continue;
                }
                let (rels, rel_stats) = self.mine_relative(&state.rows, seed, p, pool);
                state.stats.absorb(&rel_stats);
                p.rel_patterns = rels;
            }
        }

        let mut stats = state.stats;
        stats.patterns_found = patterns.len();
        stats.most_specific_found = patterns.iter().filter(|p| p.most_specific).count();
        stats.mine = t0.elapsed().saturating_sub(stats.preprocess);

        let mut degraded = state.degraded;
        degraded.normalize();
        degraded.denominator_affected = degraded
            .lost
            .iter()
            .any(|l| self.universe.entity_has_type(l.entity, seed));

        WindowResult {
            window: *window,
            seed,
            patterns,
            stats,
            degraded,
        }
    }

    /// Builds the frequent singleton patterns (Algorithm 1 line 2).
    fn seed_singletons(
        &self,
        state: &mut MineState,
        seed: TypeId,
        nodes: &mut Vec<Node>,
        found: &mut HashSet<PatternId>,
        materialized: bool,
    ) {
        state.fetched_types.insert(seed);
        let mut shapes: Vec<Shape> = state.rows.keys().copied().collect();
        shapes.sort();
        for shape in shapes {
            let (op, s, r, t) = shape;
            let eligible = self.seed_comparable(s, seed);
            if materialized {
                // Conventional mining considers every singleton in the full
                // graph; ineligible ones are pruned by the frequency test
                // (their seed-relative frequency is 0) but still count.
                state.stats.candidates_considered += 1;
                if !eligible {
                    continue;
                }
            } else {
                if !eligible {
                    continue;
                }
                state.stats.candidates_considered += 1;
            }
            let wp = WorkingPattern::singleton(op, s, r, t);
            let action = wp.actions()[0];
            let table = action_realizations(&action, &state.rows[&shape], self.universe);
            let support = support_count(&table, 0, seed, self.universe);
            let freq = frequency(&table, 0, seed, self.universe);
            if freq >= self.config.tau {
                let (id, canonical) = self.interner.intern_working(&wp);
                if found.insert(id) {
                    nodes.push(Node {
                        id,
                        wp,
                        canonical,
                        table,
                        support,
                        freq,
                    });
                }
            }
        }
    }

    /// Grows the frontier generation by generation until no new frequent
    /// pattern emerges (Algorithm 1 lines 9–14).
    ///
    /// Each generation serially collects every untested `(node, shape)`
    /// gluing into an ordered spec list, evaluates the specs — the
    /// join-and-count tasks, independent given the frozen frontier — on
    /// `pool` when one is attached (sequentially otherwise), and merges the
    /// results serially in spec order, appending accepted nodes sorted by
    /// canonical pattern value. Output is byte-identical at any thread
    /// count because the pool only decides *where* a spec is evaluated.
    #[allow(clippy::too_many_arguments)]
    fn expand_generations(
        &self,
        rows: &HashMap<Shape, Vec<(EntityId, EntityId)>>,
        stats: &mut MineStats,
        seed: TypeId,
        cache_ctx: Option<(&Window, &BTreeSet<TypeId>)>,
        pool: Option<&MiningPool>,
        nodes: &mut Vec<Node>,
        found: &mut HashSet<PatternId>,
        tested: &mut HashSet<(PatternId, Shape)>,
        score: &(dyn Fn(usize, usize, f64, f64) -> f64 + Sync),
        threshold: f64,
    ) {
        let mut shapes: Vec<Shape> = rows.keys().copied().collect();
        shapes.sort();
        let mut frontier = 0..nodes.len();
        while !frontier.is_empty() {
            let specs = self.collect_specs(&shapes, nodes, frontier.clone(), tested);
            if specs.is_empty() {
                break;
            }
            let start = nodes.len();
            let outcomes: Vec<EvalOutcome> = {
                let frozen: &[Node] = nodes;
                let known: &HashSet<PatternId> = found;
                match pool {
                    Some(pool) if specs.len() > 1 && pool.width() > 1 => pool.map(&specs, |spec| {
                        self.evaluate_candidate(
                            rows, frozen, known, seed, cache_ctx, spec, score, threshold,
                        )
                    }),
                    _ => specs
                        .iter()
                        .map(|spec| {
                            self.evaluate_candidate(
                                rows, frozen, known, seed, cache_ctx, spec, score, threshold,
                            )
                        })
                        .collect(),
                }
            };
            self.merge_generation(stats, cache_ctx, outcomes, nodes, found);
            frontier = start..nodes.len();
        }
    }

    /// Serially enumerates every untested gluing of every shape onto the
    /// frontier nodes, in deterministic order (node index, then sorted
    /// shape, then source variable, fresh target before glued targets) —
    /// the order the sequential engine would test them in.
    pub(crate) fn collect_specs(
        &self,
        shapes: &[Shape],
        nodes: &[Node],
        frontier: std::ops::Range<usize>,
        tested: &mut HashSet<(PatternId, Shape)>,
    ) -> Vec<CandidateSpec> {
        let tax = self.universe.taxonomy();
        let mut specs = Vec::new();
        for ni in frontier {
            let node = &nodes[ni];
            for &shape in shapes {
                if !tested.insert((node.id, shape)) {
                    continue;
                }
                if node.wp.len() >= self.config.max_pattern_actions {
                    continue;
                }
                let (op, s, r, t) = shape;
                let vars = node.wp.vars();
                // Candidate gluings: the action's source must glue onto an
                // existing same-type variable (this preserves connectivity
                // by construction).
                for &vs in vars.iter().filter(|v| v.ty == s) {
                    // (a) target as a fresh variable. The per-type cap
                    // counts *comparable*-type variables: otherwise a
                    // pattern needing three same-family variables would
                    // sneak in as a mixed abstraction-level variant (two at
                    // the leaf, one lifted) and escape the most-specific
                    // filter.
                    let fresh_ok = vars
                        .iter()
                        .filter(|v| tax.is_subtype(v.ty, t) || tax.is_subtype(t, v.ty))
                        .count()
                        < self.config.max_vars_per_type as usize;
                    if fresh_ok {
                        let vt = Var::new(t, node.wp.next_index(t));
                        let action = AbstractAction::new(op, vs, r, vt);
                        if !node.wp.contains(&action) {
                            specs.push(CandidateSpec {
                                parent: ni,
                                action,
                                target_is_new: true,
                            });
                        }
                    }
                    // (b) target glued onto each existing same-type variable.
                    for &vt in vars.iter().filter(|v| v.ty == t && **v != vs) {
                        let action = AbstractAction::new(op, vs, r, vt);
                        if !node.wp.contains(&action) {
                            specs.push(CandidateSpec {
                                parent: ni,
                                action,
                                target_is_new: false,
                            });
                        }
                    }
                }
            }
        }
        specs
    }

    /// Evaluates one candidate extension against the frozen frontier: runs
    /// the join's *pair stage*, counts support straight off the pair stream
    /// (the distinct-source fast path), and only gathers the output table
    /// when the candidate clears the threshold. Takes no mutable state, so
    /// a generation's specs can run in any order on any thread.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_candidate(
        &self,
        rows_map: &HashMap<Shape, Vec<(EntityId, EntityId)>>,
        nodes: &[Node],
        found: &HashSet<PatternId>,
        seed: TypeId,
        cache_ctx: Option<(&Window, &BTreeSet<TypeId>)>,
        spec: &CandidateSpec,
        score: &(dyn Fn(usize, usize, f64, f64) -> f64 + Sync),
        threshold: f64,
    ) -> EvalOutcome {
        let parent = &nodes[spec.parent];
        let ext = parent.wp.extended_with(spec.action);
        let (id, canonical) = self.interner.intern_working(&ext);
        if found.contains(&id) {
            return EvalOutcome::Known;
        }

        let parent_support = parent.support;
        let accept = |support: usize, freq: f64| {
            let rel = relative_frequency(support, parent_support);
            score(support, parent_support, freq, rel) >= threshold && support > 0
        };

        // Cache fast path: the same candidate computed in an earlier
        // refinement iteration under the same fetched-type set. A pruned
        // entry (no table) that the current threshold now *accepts* falls
        // through to a fresh join so the table exists — the re-store in
        // `merge_generation` then upgrades the entry.
        if let (Some(cache), Some((window, fetched))) = (&self.cache, cache_ctx) {
            if let Some((table, support, freq)) = cache.get(window, id, fetched) {
                let accepted = accept(support, freq);
                if table.is_some() || !accepted {
                    return EvalOutcome::Done(Box::new(Evaluated {
                        id,
                        canonical,
                        ext,
                        table,
                        support,
                        freq,
                        via_cache: true,
                        accepted,
                        materialized: false,
                        rows_probed: 0,
                        pairs_matched: 0,
                    }));
                }
            }
        }

        // Build the right-hand (action) relation.
        let shape = spec.action.shape();
        let rows = &rows_map[&shape];
        let right = action_realizations(&spec.action, rows, self.universe);

        let glue = candidate_glue(self.universe, &parent.wp, &spec.action, spec.target_is_new);

        // Pair stage: matching (left, right) row indices, no output rows
        // built yet. Both engines emit the same canonical pair order.
        let pairs = match self.config.join_impl {
            JoinImpl::Hash => join_glue_pairs(&parent.table, &right, &glue),
            JoinImpl::NestedLoop => join_glue_pairs_nested(&parent.table, &right, &glue),
        };

        // Distinct-source fast path: the pattern's source variable is the
        // left table's column 0, and a join (deduped or not) cannot change
        // the set of distinct source values — so support and frequency come
        // straight off the pair stream, and only surviving candidates pay
        // for gather + dedup. Unit tests can gather every candidate and
        // count support off its table instead, to check the fast path.
        let gather = || {
            let mut t = materialize_pairs(&parent.table, &right, &glue, &pairs);
            t.dedup();
            t
        };
        let (support, table) = if gather_every_candidate() {
            let t = gather();
            (support_count(&t, 0, seed, self.universe), Some(t))
        } else {
            let distinct = distinct_left_values(&parent.table, 0, &pairs);
            (support_from_distinct(&distinct, seed, self.universe), None)
        };
        let freq = frequency_from_support(support, seed, self.universe);
        let accepted = accept(support, freq);
        let materialized = accepted || table.is_some();
        let table = accepted.then(|| table.unwrap_or_else(gather));
        EvalOutcome::Done(Box::new(Evaluated {
            id,
            canonical,
            ext,
            table,
            support,
            freq,
            via_cache: false,
            accepted,
            materialized,
            rows_probed: parent.table.len(),
            pairs_matched: pairs.len(),
        }))
    }

    /// Folds one generation's evaluation results back into the frontier,
    /// serially in spec order: counters accrue per spec, within-generation
    /// duplicate canonicals collapse to their first occurrence, and
    /// accepted nodes are appended sorted by canonical pattern *value*
    /// (never by [`PatternId`] — ids depend on thread interleaving).
    fn merge_generation(
        &self,
        stats: &mut MineStats,
        cache_ctx: Option<(&Window, &BTreeSet<TypeId>)>,
        outcomes: Vec<EvalOutcome>,
        nodes: &mut Vec<Node>,
        found: &mut HashSet<PatternId>,
    ) {
        let cache_active = self.cache.is_some() && cache_ctx.is_some();
        let mut seen: HashSet<PatternId> = HashSet::new();
        let mut accepted: Vec<Node> = Vec::new();
        for outcome in outcomes {
            stats.candidates_considered += 1;
            let ev = match outcome {
                EvalOutcome::Known => continue,
                EvalOutcome::Done(ev) => ev,
            };
            // Count the work that was actually done — within-generation
            // duplicates were each evaluated against the frozen frontier.
            stats.rows_probed += ev.rows_probed;
            stats.pairs_matched += ev.pairs_matched;
            if ev.via_cache {
                stats.cache_hits += 1;
            } else {
                if cache_active {
                    stats.cache_misses += 1;
                }
                stats.joins_executed += 1;
                match self.config.join_impl {
                    JoinImpl::Hash => stats.plan_picks_hash += 1,
                    JoinImpl::NestedLoop => stats.plan_picks_nested += 1,
                }
                if ev.materialized {
                    stats.tables_materialized += 1;
                } else {
                    stats.tables_pruned += 1;
                }
            }
            if !seen.insert(ev.id) {
                continue;
            }
            if !ev.via_cache {
                if let (Some(cache), Some((window, fetched))) = (&self.cache, cache_ctx) {
                    cache.put(
                        window,
                        ev.id,
                        fetched,
                        ev.table.as_ref(),
                        ev.support,
                        ev.freq,
                    );
                }
            }
            if ev.accepted {
                accepted.push(Node {
                    id: ev.id,
                    wp: ev.ext,
                    canonical: ev.canonical,
                    table: ev
                        .table
                        .expect("accepted candidate carries a materialized table"),
                    support: ev.support,
                    freq: ev.freq,
                });
            }
        }
        accepted.sort_by(|a, b| a.canonical.cmp(&b.canonical));
        for node in accepted {
            found.insert(node.id);
            nodes.push(node);
        }
    }

    /// Mines the relative frequent patterns of `parent` (Def. 3.5): the
    /// expansion restarts from the parent pattern itself, accepting
    /// extensions whose *relative* frequency meets τ_rel but whose absolute
    /// frequency fell below τ. Returns (patterns, work counters).
    pub(crate) fn mine_relative(
        &self,
        rows: &ShapeRows,
        seed: TypeId,
        parent: &FoundPattern,
        pool: Option<&MiningPool>,
    ) -> (Vec<RelPattern>, MineStats) {
        let mut stats = MineStats::default();

        let pid = self.interner.intern(&parent.pattern);
        let mut nodes = vec![Node {
            id: pid,
            wp: parent.working.clone(),
            canonical: parent.pattern.clone(),
            table: parent.table.clone(),
            support: parent.support,
            freq: parent.frequency,
        }];
        let mut found: HashSet<PatternId> = HashSet::from([pid]);
        // Fresh per-parent tested set — the absolute phase's pairs are
        // deliberately retried here: extensions that failed τ were
        // discarded there but may clear τ_rel now.
        let mut tested: HashSet<(PatternId, Shape)> = HashSet::new();

        let parent_support = parent.support;
        if std::env::var_os("WICLEAN_TRACE").is_some() {
            eprintln!(
                "[rel] parent support={} len={} shapes={} tau_rel={}",
                parent_support,
                parent.working.len(),
                rows.len(),
                self.config.tau_rel
            );
        }

        self.expand_generations(
            rows,
            &mut stats,
            seed,
            None,
            pool,
            &mut nodes,
            &mut found,
            &mut tested,
            // rel-frequency score: child support is always measured
            // against the *original* parent.
            &|support, _ignored, _freq, _| relative_frequency(support, parent_support),
            self.config.tau_rel,
        );

        // Most specific among the relative patterns (excluding the parent).
        let rel_nodes: Vec<&Node> = nodes.iter().skip(1).collect();
        let pats: Vec<Pattern> = rel_nodes.iter().map(|n| n.canonical.clone()).collect();
        let keep: HashSet<Pattern> = crate::pattern::most_specific(&pats, self.universe.taxonomy())
            .into_iter()
            .collect();

        if std::env::var_os("WICLEAN_TRACE").is_some() {
            eprintln!(
                "[rel] raw rel nodes: {} (candidates {}, joins {})",
                pats.len(),
                stats.candidates_considered,
                stats.joins_executed
            );
        }
        let rels = rel_nodes
            .into_iter()
            .filter(|n| keep.contains(&n.canonical))
            .map(|n| RelPattern {
                pattern: n.canonical.clone(),
                working: n.wp.clone(),
                support: n.support,
                frequency: n.freq,
                rel_frequency: relative_frequency(n.support, parent_support),
            })
            .collect();
        (rels, stats)
    }

    /// Builds the realization table of an arbitrary working pattern by
    /// chaining joins over its actions — used by Algorithm 3 and tests. The
    /// traversal follows construction order, which is valid for patterns
    /// built by this miner (every action's source variable is already
    /// bound). `outer` switches the inner joins to full outer joins.
    pub fn realize_pattern(
        &self,
        state_rows: &HashMap<Shape, Vec<(EntityId, EntityId)>>,
        wp: &WorkingPattern,
    ) -> Table {
        self.realize_pattern_impl(state_rows, wp, false)
    }

    /// Full-outer-join variant of [`WindowMiner::realize_pattern`]:
    /// null-padded rows are partial realizations (Algorithm 3).
    pub fn realize_pattern_outer(
        &self,
        state_rows: &HashMap<Shape, Vec<(EntityId, EntityId)>>,
        wp: &WorkingPattern,
    ) -> Table {
        self.realize_pattern_impl(state_rows, wp, true)
    }

    fn realize_pattern_impl(
        &self,
        state_rows: &HashMap<Shape, Vec<(EntityId, EntityId)>>,
        wp: &WorkingPattern,
        outer: bool,
    ) -> Table {
        let empty: Vec<(EntityId, EntityId)> = Vec::new();
        let actions = wp.actions();
        let first = actions[0];
        let rows0 = state_rows.get(&first.shape()).unwrap_or(&empty);
        let mut table = action_realizations(&first, rows0, self.universe);
        let mut bound: Vec<Var> = vec![first.source, first.target];

        for a in &actions[1..] {
            let rows = state_rows.get(&a.shape()).unwrap_or(&empty);
            let right = action_realizations(a, rows, self.universe);
            let names: Vec<String> = bound.iter().map(Var::column_name).collect();
            let src_col = crate::realization::column_of(&names, a.source);
            let tgt_glue = if bound.contains(&a.target) {
                ColumnGlue::Glued(crate::realization::column_of(&names, a.target))
            } else {
                let tax = self.universe.taxonomy();
                let distinct_from: Vec<usize> = bound
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| {
                        tax.is_subtype(v.ty, a.target.ty) || tax.is_subtype(a.target.ty, v.ty)
                    })
                    .map(|(i, _)| i)
                    .collect();
                bound.push(a.target);
                ColumnGlue::New {
                    name: a.target.column_name(),
                    distinct_from,
                }
            };
            let glue = vec![ColumnGlue::Glued(src_col), tgt_glue];
            table = match (outer, self.config.join_impl) {
                (true, _) => outer_join_glue(&table, &right, &glue),
                (false, JoinImpl::Hash) => join_glue(&table, &right, &glue),
                (false, JoinImpl::NestedLoop) => join_glue_nested(&table, &right, &glue),
            };
            table.dedup();
        }
        table
    }

    /// Loads a window's reduced, shape-grouped rows for an entity set —
    /// the preprocessing step exposed for Algorithm 3 and the baselines.
    pub fn load_shape_rows(
        &self,
        entities: impl IntoIterator<Item = EntityId>,
        window: &Window,
    ) -> (ShapeRows, MineStats) {
        let (rows, stats, _degraded) = self.load_shape_rows_degraded(entities, window);
        (rows, stats)
    }

    /// [`WindowMiner::load_shape_rows`] plus the degraded-coverage record
    /// of the load — callers over a faulty source use this to report what
    /// their row store is missing.
    pub fn load_shape_rows_degraded(
        &self,
        entities: impl IntoIterator<Item = EntityId>,
        window: &Window,
    ) -> (ShapeRows, MineStats, DegradedCoverage) {
        let mut state = MineState::new();
        self.load_entities(&mut state, entities, window, self.pool.as_deref());
        let mut degraded = state.degraded;
        degraded.normalize();
        (state.rows, state.stats, degraded)
    }
}

/// The glue spec of one candidate extension: the action's source glued
/// onto the parent's matching column, the target either glued onto an
/// existing column or introduced fresh under `≠` constraints against
/// every comparable-type variable. Shared by batch candidate evaluation
/// and the streaming miner's delta absorb so the two can never diverge.
pub(crate) fn candidate_glue(
    universe: &Universe,
    parent_wp: &WorkingPattern,
    action: &AbstractAction,
    target_is_new: bool,
) -> Vec<ColumnGlue> {
    let left_cols = parent_wp.column_names();
    let src_col = crate::realization::column_of(&left_cols, action.source);
    let tgt_glue = if target_is_new {
        // Inequality against every existing variable of a comparable
        // type (distinct variables ⇒ distinct entities).
        let tax = universe.taxonomy();
        let distinct_from: Vec<usize> = parent_wp
            .vars()
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                tax.is_subtype(v.ty, action.target.ty) || tax.is_subtype(action.target.ty, v.ty)
            })
            .map(|(i, _)| i)
            .collect();
        ColumnGlue::New {
            name: action.target.column_name(),
            distinct_from,
        }
    } else {
        ColumnGlue::Glued(crate::realization::column_of(&left_cols, action.target))
    };
    vec![ColumnGlue::Glued(src_col), tgt_glue]
}

/// Whether candidate evaluation gathers every candidate's table, instead
/// of only those that clear the threshold (a unit-test switch).
#[cfg(not(test))]
fn gather_every_candidate() -> bool {
    false
}

#[cfg(test)]
fn gather_every_candidate() -> bool {
    tests::GATHER_EVERY_CANDIDATE.get()
}

impl MineState {
    fn new() -> Self {
        Self {
            rows: HashMap::new(),
            fetched_types: HashSet::new(),
            fetched_entities: HashSet::new(),
            stats: MineStats::default(),
            degraded: DegradedCoverage::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::soccer_fixture;
    use std::cell::Cell;

    thread_local! {
        /// Makes this thread's candidate evaluations gather every table.
        pub(super) static GATHER_EVERY_CANDIDATE: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn finds_transfer_pattern_in_fixture() {
        let fx = soccer_fixture();
        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        let result = miner.mine_window(fx.player_ty, &fx.window);

        // The planted pattern: player adds current_club to the new team and
        // the team adds the player to its squad.
        assert!(
            result
                .most_specific()
                .any(|p| p.pattern == fx.expected_pair_pattern()),
            "expected transfer pattern among most specific; found: {}",
            result
                .patterns
                .iter()
                .map(|p| format!(
                    "[ms={} f={:.2}] {}",
                    p.most_specific,
                    p.frequency,
                    p.pattern.display(&fx.universe)
                ))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(result.stats.entities_processed > 0);
        assert!(result.stats.candidates_considered > 0);
    }

    #[test]
    fn frequency_threshold_prunes() {
        let fx = soccer_fixture();
        let mut config = fx.config();
        config.tau = 1.01; // impossible threshold
        let miner = WindowMiner::new(&fx.store, &fx.universe, config);
        let result = miner.mine_window(fx.player_ty, &fx.window);
        assert!(result.patterns.is_empty());
    }

    /// The nested loop finds what the hash join finds, with the same
    /// realization tables and the same logical join counters
    /// (`rows_probed` = parent rows offered to the pair stage,
    /// `pairs_matched` = pairs it matched).
    #[test]
    fn nested_loop_agrees_with_hash() {
        let fx = soccer_fixture();
        let mut config = fx.config();
        let miner_h = WindowMiner::new(&fx.store, &fx.universe, config);
        let rh = miner_h.mine_window(fx.player_ty, &fx.window);
        config.join_impl = JoinImpl::NestedLoop;
        let miner_n = WindowMiner::new(&fx.store, &fx.universe, config);
        let rn = miner_n.mine_window(fx.player_ty, &fx.window);

        assert_eq!(rh.patterns.len(), rn.patterns.len());
        for (h, n) in rh.patterns.iter().zip(&rn.patterns) {
            assert_eq!(
                h.pattern, n.pattern,
                "PM and PM−join must find identical patterns"
            );
            assert_eq!(h.table, n.table);
        }
        assert!(rh.stats.pairs_matched > 0);
        assert_eq!(rh.stats.rows_probed, rn.stats.rows_probed);
        assert_eq!(rh.stats.pairs_matched, rn.stats.pairs_matched);
        let picks = |s: &MineStats| (s.plan_picks_hash, s.plan_picks_nested);
        assert_eq!(picks(&rh.stats), (rh.stats.joins_executed, 0));
        assert_eq!(picks(&rn.stats), (0, rn.stats.joins_executed));
    }

    #[test]
    fn materialized_mode_finds_same_most_specific_patterns() {
        let fx = soccer_fixture();
        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        let inc = miner.mine_window(fx.player_ty, &fx.window);

        let all: Vec<_> = fx.universe.entities().iter().collect();
        let mat = miner.mine_window_materialized(fx.player_ty, &fx.window, all);

        let pi: BTreeSet<Pattern> = inc.most_specific().map(|p| p.pattern.clone()).collect();
        let pm: BTreeSet<Pattern> = mat.most_specific().map(|p| p.pattern.clone()).collect();
        assert_eq!(pi, pm);
        // The full-graph variant must have considered at least as many
        // candidates (it seeds from every type).
        assert!(mat.stats.candidates_considered >= inc.stats.candidates_considered);
    }

    #[test]
    fn stats_track_work() {
        let fx = soccer_fixture();
        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        let r = miner.mine_window(fx.player_ty, &fx.window);
        assert!(r.stats.actions_extracted >= r.stats.reduced_actions);
        assert!(r.stats.joins_executed > 0);
        assert_eq!(r.stats.most_specific_found, r.most_specific().count());
        assert_eq!(r.stats.patterns_found, r.patterns.len());
        // Join-engine counters: every executed join probed the parent table
        // and either materialized its output or was pruned off the pair
        // stream — never both, never neither.
        assert!(r.stats.rows_probed > 0);
        assert!(r.stats.tables_materialized > 0);
        assert_eq!(
            r.stats.joins_executed,
            r.stats.tables_materialized + r.stats.tables_pruned
        );
    }

    /// Pruning a candidate off its pair stream, without a gather, mines
    /// exactly what gathering every candidate and counting support off
    /// its table mines.
    #[test]
    fn fast_path_prunes_subthreshold_candidates() {
        let fx = soccer_fixture();
        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        let r = miner.mine_window(fx.player_ty, &fx.window);
        assert!(
            r.stats.tables_pruned > 0,
            "the fixture's expansion must reject some candidates without \
             materializing them; stats: {:?}",
            r.stats
        );
        assert!(r.stats.join_prune_rate() > 0.0);
        assert!(r.stats.pairs_matched >= r.stats.tables_materialized);

        GATHER_EVERY_CANDIDATE.set(true);
        let gathered = miner.mine_window(fx.player_ty, &fx.window);
        GATHER_EVERY_CANDIDATE.set(false);
        assert_eq!(gathered.stats.tables_pruned, 0);
        assert_eq!(gathered.stats.tables_materialized, r.stats.joins_executed);
        assert_eq!(
            format!("{:?}", r.patterns),
            format!("{:?}", gathered.patterns)
        );
    }

    #[test]
    fn transient_faults_with_retries_are_invisible() {
        use wiclean_revstore::{FaultPlan, FaultyStore, ResilientFetcher, RetryPolicy};
        let fx = soccer_fixture();
        let clean = WindowMiner::new(&fx.store, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &fx.window);

        let faulty = FaultyStore::new(&fx.store, FaultPlan::transient_only(0.10, 42));
        let fetcher = ResilientFetcher::new(&faulty, RetryPolicy::default());
        let miner = WindowMiner::new(&fetcher, &fx.universe, fx.config());
        let healed = miner.mine_window(fx.player_ty, &fx.window);

        assert!(
            healed.degraded.is_empty(),
            "default retry policy must absorb 10% transient faults: {:?}",
            healed.degraded
        );
        let a: BTreeSet<Pattern> = clean.patterns.iter().map(|p| p.pattern.clone()).collect();
        let b: BTreeSet<Pattern> = healed.patterns.iter().map(|p| p.pattern.clone()).collect();
        assert_eq!(
            a, b,
            "retried mining must be identical to fault-free mining"
        );
    }

    #[test]
    fn unfetchable_entities_degrade_not_abort() {
        use wiclean_revstore::{FaultPlan, FaultyStore, ResilientFetcher, RetryPolicy};
        let fx = soccer_fixture();
        let faulty = FaultyStore::new(&fx.store, FaultPlan::transient_only(0.90, 7));
        let fetcher = ResilientFetcher::new(&faulty, RetryPolicy::no_retries());
        let miner = WindowMiner::new(&fetcher, &fx.universe, fx.config());
        let r = miner.mine_window(fx.player_ty, &fx.window);

        assert!(
            !r.degraded.lost.is_empty(),
            "90% faults without retries must lose entities"
        );
        // Every attempted entity is either processed or recorded lost; the
        // seed type's entities are all attempted on line 1 of Algorithm 1.
        assert!(
            r.stats.entities_processed + r.degraded.entities_lost()
                >= fx.universe.count_entities_of(fx.player_ty)
        );
        for lost in &r.degraded.lost {
            assert!(matches!(
                lost.error,
                wiclean_revstore::FetchError::Exhausted { attempts: 1 }
            ));
        }
        if r.degraded
            .lost
            .iter()
            .any(|l| fx.universe.entity_has_type(l.entity, fx.player_ty))
        {
            assert!(r.degraded.denominator_affected);
        }
    }

    #[test]
    fn unfetchable_entities_are_lost_even_when_their_window_is_empty() {
        use wiclean_revstore::{FaultPlan, FaultyStore};
        // No revision lies in [2, 10): no extraction parses anything, but
        // every fetch still runs, so a gone page is a loss whatever window.
        let fx = soccer_fixture();
        let plan = FaultPlan {
            gone_rate: 1.0,
            ..FaultPlan::default()
        };
        let faulty = FaultyStore::new(&fx.store, plan);
        let r = WindowMiner::new(&faulty, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &Window::new(2, 10));
        let lost: BTreeSet<EntityId> = r.degraded.lost.iter().map(|l| l.entity).collect();
        assert_eq!(lost, fx.players.iter().copied().collect());
        assert!(r.degraded.denominator_affected);
        assert_eq!(r.stats.entities_processed, 0);
    }

    #[test]
    fn realize_pattern_matches_mined_table() {
        let fx = soccer_fixture();
        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        let result = miner.mine_window(fx.player_ty, &fx.window);
        let target = result
            .patterns
            .iter()
            .find(|p| p.pattern == fx.expected_pair_pattern())
            .expect("pattern found");

        // Recompute the realization table from scratch; must agree.
        let all: Vec<_> = fx.universe.entities().iter().collect();
        let (rows, _) = miner.load_shape_rows(all, &fx.window);
        let redone = miner.realize_pattern(&rows, &target.working);
        assert_eq!(redone.sorted_rows(), target.table.sorted_rows());
    }

    /// A source that sleeps before every fetch of a seed entity.
    struct SlowSeeds<'a> {
        inner: &'a wiclean_revstore::RevisionStore,
        seeds: HashSet<EntityId>,
        sleep: Duration,
    }

    impl FetchSource for SlowSeeds<'_> {
        fn fetch_history(
            &self,
            e: EntityId,
        ) -> Result<Option<wiclean_revstore::FetchedHistory<'_>>, FetchError> {
            if self.seeds.contains(&e) {
                std::thread::sleep(self.sleep);
            }
            self.inner.fetch_history(e)
        }
    }

    #[test]
    fn preprocess_plus_mine_accounts_for_the_call() {
        // The seed load is preprocessing and the expansion is mining, so
        // the two add up to the call's wall time. The seed load sleeps
        // about as long as a whole fast call takes: a mining clock that
        // starts after the seed load but subtracts it loses about half the
        // call. Best of three attempts, against scheduler noise.
        let fx = soccer_fixture();
        let seeds: HashSet<EntityId> = fx.universe.entities_of(fx.player_ty).into_iter().collect();
        let timed = |sleep: Duration| {
            let source = SlowSeeds {
                inner: &fx.store,
                seeds: seeds.clone(),
                sleep,
            };
            let miner = WindowMiner::new(&source, &fx.universe, fx.config());
            let t0 = Instant::now();
            let stats = miner.mine_window(fx.player_ty, &fx.window).stats;
            (t0.elapsed(), stats)
        };
        let mut shares = Vec::new();
        for _ in 0..3 {
            let (fast, _) = timed(Duration::ZERO);
            let (wall, stats) = timed(fast / seeds.len() as u32);
            let accounted = stats.preprocess + stats.mine;
            assert!(accounted <= wall, "{accounted:?} accounted of {wall:?}");
            shares.push(accounted.as_secs_f64() / wall.as_secs_f64());
        }
        assert!(
            shares.iter().any(|&s| s >= 0.9),
            "preprocess + mine cover only {shares:?} of the call"
        );
    }
}
