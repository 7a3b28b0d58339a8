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
use crate::cache::{Answer, Growth, Inputs, JoinIndexes, Memo, MiningCaches, WindowMemo};
use crate::config::{ExpansionMode, JoinImpl, MinerConfig};
use crate::degraded::DegradedCoverage;
use crate::interner::{PatternId, PatternInterner};
use crate::pattern::{Pattern, WorkingPattern};
use crate::pool::MiningPool;
use crate::realization::{
    action_realizations, frequency_from_support, relative_frequency, shape_of, support_count,
    support_from_distinct, Shape, ShapeRows,
};
use crate::var::Var;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wiclean_rel::{
    distinct_left_values, glue_keys, join_glue_pairs, join_glue_pairs_delta,
    join_glue_pairs_delta_nested, join_glue_pairs_nested, materialize_pairs, ColumnGlue, KeyIndex,
    Table,
};
use wiclean_revstore::{
    reduce_actions, try_extract_actions, ActionCache, CacheLookup, ExtractOutcome, FetchError,
    FetchSource,
};
use wiclean_types::{EntityId, Taxonomy, TypeId, Universe, Window};

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
    /// Candidates the window's memo served without a join (an earlier
    /// evaluation in the window, a τ-lowering iteration's predecessor, or
    /// an earlier stream refresh computed them).
    pub cache_hits: usize,
    /// Candidates evaluated by a full or delta join: every evaluation the
    /// window's memo could not serve.
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
    /// candidates, plus memoized pruned candidates re-accepted under a
    /// lower threshold.
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

    /// Counts one candidate pair stage under the engine that ran it.
    pub(crate) fn count_pick(&mut self, join_impl: JoinImpl) {
        match join_impl {
            JoinImpl::Hash => self.plan_picks_hash += 1,
            JoinImpl::NestedLoop => self.plan_picks_nested += 1,
        }
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
    /// Realization table (one column per variable), shared with the
    /// window's memo.
    pub table: Arc<Table>,
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
    /// The taxonomy of the patterns' types, for comparing patterns of
    /// different windows for specificity without the universe
    /// ([`crate::stream::wc_result_from_sealed`]). Set only by the
    /// streaming miner.
    pub taxonomy: Option<Arc<Taxonomy>>,
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
/// the result's [`DegradedCoverage`] rather than failing the run. Caches
/// attach in one piece through [`WindowMiner::with_caches`], so memos
/// kept across miners always travel with the interner whose ids key them.
pub struct WindowMiner<'a> {
    source: &'a dyn FetchSource,
    universe: &'a Universe,
    config: MinerConfig,
    action_cache: Option<Arc<ActionCache>>,
    interner: Arc<PatternInterner>,
    pool: Option<Arc<MiningPool>>,
}

/// Internal expansion node: a frequent pattern under construction.
pub(crate) struct Node {
    pub(crate) id: PatternId,
    pub(crate) wp: WorkingPattern,
    pub(crate) canonical: Pattern,
    pub(crate) table: Arc<Table>,
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

/// The join work one evaluation ran (all zero on a memo hit).
#[derive(Default)]
pub(crate) struct Work {
    /// Left rows fed through the pair stage.
    pub(crate) rows_probed: usize,
    /// Pairs the pair stage emitted.
    pub(crate) pairs_matched: usize,
    /// Pair stages run: one per join, two when a streamed delta join lifts
    /// a pruned candidate over τ and the full join follows.
    pub(crate) pair_stages: usize,
    /// Rows appended since a memo's last evaluation that a delta join fed.
    pub(crate) delta_rows: u64,
    /// Whether an output table was gathered.
    pub(crate) materialized: bool,
}

/// A fully evaluated candidate (memo hit or join already done against the
/// frozen frontier).
pub(crate) struct Evaluated {
    pub(crate) id: PatternId,
    pub(crate) canonical: Pattern,
    pub(crate) ext: WorkingPattern,
    /// Realization table — `Some` whenever the threshold accepts the
    /// candidate (pruned candidates skip the gather entirely; memo hits may
    /// carry one even when rejected under the current threshold).
    pub(crate) table: Option<Arc<Table>>,
    pub(crate) support: usize,
    pub(crate) freq: f64,
    /// Whether the window's memo served it without a join.
    pub(crate) via_memo: bool,
    pub(crate) work: Work,
}

/// The acceptance test of one expansion.
#[derive(Clone, Copy)]
pub(crate) enum Threshold {
    /// Frequency at least τ (Def. 3.2).
    Frequency(f64),
    /// Support relative to the original parent's at least τ_rel (Def. 3.4).
    Relative { parent_support: usize, tau_rel: f64 },
}

impl Threshold {
    /// Whether a candidate with this support and frequency is accepted.
    pub(crate) fn accepts(self, support: usize, freq: f64) -> bool {
        support > 0
            && match self {
                Threshold::Frequency(tau) => freq >= tau,
                Threshold::Relative {
                    parent_support,
                    tau_rel,
                } => relative_frequency(support, parent_support) >= tau_rel,
            }
    }
}

/// One Algorithm 1 expansion in progress: the frequent nodes in discovery
/// order, their ids, the (node, shape) gluings already tried, and the work
/// counted so far.
#[derive(Default)]
pub(crate) struct Expansion {
    pub(crate) nodes: Vec<Node>,
    pub(crate) found: HashSet<PatternId>,
    tested: HashSet<(PatternId, Shape)>,
    pub(crate) stats: MineStats,
}

/// Where an expansion's rows come from: the fetched-type stages of
/// incremental construction (Algorithm 1 lines 4–8). Batch mining loads
/// whole types into one row store ([`BatchStage`]); a streamed window
/// folds its stamped row store into each stage's tables.
pub(crate) trait Stage: Sync {
    /// The types fetched so far, as the key memos record their stage
    /// under: in an order that, with the window, fixes the stage's rows.
    fn key(&self) -> &[TypeId];
    /// The shapes with rows at the current stage, sorted.
    fn shapes(&self) -> Vec<Shape>;
    /// The realization table of `shape` at the current stage: the table of
    /// its singleton, and the right side of every join that adds an action
    /// of the shape (the injectivity filter depends only on the shape, and
    /// the glue plan is index-based and names the output columns itself).
    /// Built at most once per stage.
    fn table(&mut self, miner: &WindowMiner<'_>, shape: Shape) -> Arc<Table>;
    /// Builds the join index keyed by `cols` over the table of `of`,
    /// unless it is there. Only a streamed stage's rows grow, so only a
    /// streamed stage delta-joins and holds indexes.
    fn ready_index(&mut self, of: Folded, cols: &[usize]) {
        let _ = (of, cols);
        unreachable!("batch rows never grow, so batch never delta-joins")
    }
    /// The join index keyed by `cols` over the table of `of`, once
    /// [`Stage::ready_index`].
    fn index(&self, of: Folded, cols: &[usize]) -> &KeyIndex {
        let _ = (of, cols);
        unreachable!("batch rows never grow, so batch never delta-joins")
    }
    /// Fetches every entity of `types` and moves to the stage holding them.
    fn fetch(&mut self, miner: &WindowMiner<'_>, types: BTreeSet<TypeId>);
    /// The pool a generation's joins fan out on, if any.
    fn pool(&self) -> Option<&MiningPool>;
}

/// Which of a streamed stage's tables a delta join's index covers.
#[derive(Clone, Copy)]
pub(crate) enum Folded {
    /// A singleton node's table: its shape's table at the seed stage,
    /// where the singletons are seeded.
    Singleton(Shape),
    /// The shape's table at the current stage: the right side of a join.
    Action(Shape),
}

/// The one candidate evaluator: the batch expansion, relative mining and
/// every streamed refresh and seal evaluate a generation through it.
///
/// 1. Serially, in spec order: intern each candidate, skip one already
///    found or already evaluated in this generation, and consult the
///    window's memo ([`WindowMemo::consult`]). A join the memo cannot
///    answer gets its right-hand table, and a delta join its persistent
///    join indexes, built here if missing.
/// 2. On the pool, when one is attached: the full or delta joins the memo
///    could not answer. Nothing is built or mutated here.
/// 3. Serially, in spec order: write each join's result back to the memo,
///    extending the indexes of a table a delta join grew.
///
/// Output is byte-identical at any pool width: the pool only decides
/// *where* a join runs.
struct Evaluator<'e, S> {
    stage: &'e mut S,
    memo: &'e mut WindowMemo,
    seed: TypeId,
    threshold: Threshold,
}

/// A spec the memo could not serve: phase 2 joins it for outcome `slot`.
struct Job<'s> {
    slot: usize,
    spec: &'s CandidateSpec,
    glue: Vec<ColumnGlue>,
    /// The right-hand table: the spec's shape at the current stage.
    right: Arc<Table>,
    /// A delta join along the memo's own lineage, if the memo asked for
    /// one.
    delta: Option<Delta>,
    /// The parent table's generation (streamed windows only).
    parent_gen: u64,
}

/// How phase 2 delta-joins a job.
enum Delta {
    /// Appended rows probe the persistent indexes found by these keys.
    Hash(DeltaKeys),
    /// The nested loop, which needs no index.
    Nested,
}

/// Where a hash delta join finds its persistent indexes.
struct DeltaKeys {
    /// The table the left index covers (`None`: the parent's memo's), and
    /// its key columns.
    left: (Option<Folded>, Vec<usize>),
    /// The right index's key columns over the shape's table at the current
    /// stage.
    right: (Shape, Vec<usize>),
}

/// What a phase-2 join leaves the memo.
enum Joined {
    /// A full join's result replaces the memo.
    Full(Memo, Work),
    /// The memo absorbs a delta join: the source values it had not seen,
    /// the rows its table gains, its new counts and input lengths.
    Delta {
        fresh: Vec<EntityId>,
        rows: Option<Table>,
        support: usize,
        freq: f64,
        lens: (usize, usize),
        work: Work,
    },
}

impl<S: Stage> Evaluator<'_, S> {
    /// Evaluates one generation's specs against the frozen frontier;
    /// outcomes come back in spec order, `None` for a spec whose canonical
    /// form was already accepted or already evaluated in this generation.
    fn run(
        mut self,
        miner: &WindowMiner<'_>,
        specs: &[CandidateSpec],
        exp: &Expansion,
    ) -> Vec<Option<Evaluated>> {
        let mut seen: HashSet<PatternId> = HashSet::new();
        let mut jobs: Vec<Job> = Vec::new();
        let mut outcomes: Vec<Option<Evaluated>> = Vec::with_capacity(specs.len());
        for spec in specs {
            let parent = &exp.nodes[spec.parent];
            let ext = parent.wp.extended_with(spec.action);
            let (id, canonical) = miner.interner.intern_working(&ext);
            if exp.found.contains(&id) || !seen.insert(id) {
                // Support, frequency and the accept decision do not depend
                // on the construction path, and the first evaluation per id
                // wins. Skipping repeats also keeps a streamed memo's path
                // stable: a candidate reachable along two paths would
                // otherwise flip its memoized path every refresh and never
                // hit.
                outcomes.push(None);
                continue;
            }
            let shape = spec.action.shape();
            // A singleton's table is folded append-only (generation 0
            // forever); a joined table carries its memo's generation.
            let memo_gen = |id| self.memo.entries.get(&id)?.growth.as_ref().map(|g| g.gen);
            let inputs = self.memo.growing.then(|| Inputs {
                parent_gen: match parent.wp.len() {
                    1 => 0,
                    _ => memo_gen(parent.id).unwrap_or(u64::MAX),
                },
                left_len: parent.table.len(),
                right_len: self.stage.table(miner, shape).len(),
            });
            let (key, path) = (self.stage.key(), ext.actions());
            let answer = self
                .memo
                .consult(id, key, path, self.threshold, inputs.as_ref());
            let mut ev = Evaluated {
                id,
                canonical,
                ext,
                table: None,
                support: 0,
                freq: 0.0,
                via_memo: false,
                work: Work::default(),
            };
            if let Answer::Hit(table) = answer {
                let m = &self.memo.entries[&id];
                (ev.table, ev.support, ev.freq, ev.via_memo) = (table, m.support, m.freq, true);
                outcomes.push(Some(ev));
                continue;
            }
            let glue = candidate_glue(miner.universe, &parent.wp, &spec.action, spec.target_is_new);
            let delta = match (answer, miner.config.join_impl) {
                (Answer::Delta, JoinImpl::NestedLoop) => Some(Delta::Nested),
                (Answer::Delta, JoinImpl::Hash) => {
                    let (left, right) = glue_keys(&glue);
                    let singleton = || Folded::Singleton(parent.wp.actions()[0].shape());
                    let of = (parent.wp.len() == 1).then(singleton);
                    let keys = DeltaKeys {
                        left: (of, left),
                        right: (shape, right),
                    };
                    self.ready_indexes(&keys, parent)
                        .then_some(Delta::Hash(keys))
                }
                _ => None,
            };
            jobs.push(Job {
                slot: outcomes.len(),
                spec,
                glue,
                right: self.stage.table(miner, shape),
                delta,
                parent_gen: inputs.map_or(0, |i| i.parent_gen),
            });
            outcomes.push(Some(ev));
        }

        let join = |job: &Job| {
            let ev = outcomes[job.slot].as_ref().expect("a job's outcome");
            self.join(miner, exp, job, ev)
        };
        let joined: Vec<Joined> = match self.stage.pool() {
            Some(pool) if jobs.len() > 1 && pool.width() > 1 => pool.map(&jobs, join),
            _ => jobs.iter().map(join).collect(),
        };

        for (job, joined) in jobs.iter().zip(joined) {
            let ev = outcomes[job.slot].as_mut().expect("a job's outcome");
            ev.work = match joined {
                Joined::Full(memo, work) => {
                    self.memo.entries.insert(ev.id, memo);
                    work
                }
                Joined::Delta {
                    fresh,
                    rows,
                    support,
                    freq,
                    lens,
                    work,
                } => {
                    // In place: the generation stays, since nothing was
                    // rebuilt.
                    let m = self.memo.entries.get_mut(&ev.id).expect("delta memo");
                    let g = m.growth.as_mut().expect("a growing memo");
                    g.distinct.extend(fresh);
                    (g.left_len, g.right_len) = lens;
                    (m.support, m.freq) = (support, freq);
                    if let (Some(table), Some(rows)) = (&mut m.table, rows) {
                        debug_assert!(
                            self.threshold.accepts(support, freq),
                            "support is monotone under appends at fixed tau"
                        );
                        let table = Arc::make_mut(table);
                        table.extend_dedup(&rows);
                        g.indexes.extend(table);
                    }
                    work
                }
            };
            let m = &self.memo.entries[&ev.id];
            (ev.table, ev.support, ev.freq) = (m.table.clone(), m.support, m.freq);
        }
        outcomes
    }

    /// Builds a hash delta join's indexes where missing: the right one over
    /// the shape's table at the current stage, the left one over the
    /// parent's table — its seed-stage folded table for a singleton, its
    /// memo's table otherwise. Returns `false`, building nothing, when the
    /// parent node does not hold the table the index would cover: the
    /// lineage is broken, and the candidate is joined in full instead.
    fn ready_indexes(&mut self, keys: &DeltaKeys, parent: &Node) -> bool {
        let (of, cols) = &keys.left;
        match of {
            Some(of) => self.stage.ready_index(*of, cols),
            None => {
                let m = self.memo.entries.get_mut(&parent.id);
                let Some(m) = m.filter(|m| {
                    m.table
                        .as_ref()
                        .is_some_and(|t| Arc::ptr_eq(t, &parent.table))
                }) else {
                    debug_assert!(false, "a delta join's parent holds its memo's table");
                    return false;
                };
                let g = m.growth.as_mut().expect("a growing memo");
                g.indexes.ready(&parent.table, cols);
            }
        }
        let (shape, cols) = &keys.right;
        self.stage.ready_index(Folded::Action(*shape), cols);
        true
    }

    /// Phase 2 for one job, whose placeholder outcome is `ev`. Takes no
    /// mutable state, so a generation's joins can run in any order on any
    /// thread.
    fn join(&self, miner: &WindowMiner<'_>, exp: &Expansion, job: &Job, ev: &Evaluated) -> Joined {
        let (universe, seed) = (miner.universe, self.seed);
        let join_impl = miner.config.join_impl;
        let (glue, parent) = (&job.glue, &exp.nodes[job.spec.parent]);
        let (left, right) = (&*parent.table, &*job.right);
        let lens = (left.len(), right.len());
        let memo = self.memo.entries.get(&ev.id);
        let mut work = Work::default();
        if let Some(how) = &job.delta {
            // Only pairs touching appended rows. Support is updated for
            // accepted and pruned memos alike: a pruned candidate keeps its
            // distinct set current without ever materializing a table,
            // until the appended rows push it over τ.
            let m = memo.expect("a delta join follows a memo");
            let g = m.growth.as_ref().expect("a growing memo");
            let marks = (g.left_len, g.right_len);
            let appended = lens.0 - marks.0 + lens.1 - marks.1;
            let delta = match how {
                Delta::Hash(keys) => {
                    // Only the appended rows probe.
                    let (li, ri) = self.indexes(keys, parent);
                    work.rows_probed += appended;
                    join_glue_pairs_delta(left, marks.0, li, right, marks.1, ri, glue)
                }
                Delta::Nested => {
                    // The nested loop reads every left row.
                    work.rows_probed += lens.0;
                    join_glue_pairs_delta_nested(left, marks.0, right, marks.1, glue)
                }
            };
            work.pair_stages += 1;
            work.delta_rows += appended as u64;
            let fresh: Vec<EntityId> = distinct_left_values(left, 0, &delta)
                .into_iter()
                .filter(|v| !g.distinct.contains(v))
                .collect();
            let seeds = fresh.iter().filter(|&&v| universe.entity_has_type(v, seed));
            let support = m.support + seeds.count();
            let freq = frequency_from_support(support, seed, universe);
            // The appended rows pushing a pruned candidate over τ need a
            // realization table, which only a full join can provide — fall
            // through (a one-time cost; every later refresh extends the
            // table by delta).
            if m.table.is_some() || !self.threshold.accepts(support, freq) {
                let rows = m.table.as_ref();
                let rows = rows.map(|_| materialize_pairs(left, right, glue, &delta));
                work.pairs_matched = delta.len();
                work.materialized = rows.is_some();
                return Joined::Delta {
                    fresh,
                    rows,
                    support,
                    freq,
                    lens,
                    work,
                };
            }
        }

        // Pair stage: matching (left, right) row indices, no output rows
        // built yet. Both engines emit the same canonical pair order.
        let pairs = match join_impl {
            JoinImpl::Hash => join_glue_pairs(left, right, glue),
            JoinImpl::NestedLoop => join_glue_pairs_nested(left, right, glue),
        };
        work.pair_stages += 1;
        work.rows_probed += lens.0;
        work.pairs_matched = pairs.len();
        // Distinct-source fast path: the pattern's source variable is the
        // left table's column 0, and a join (deduped or not) cannot change
        // the set of distinct source values — so support and frequency come
        // straight off the pair stream, and only surviving candidates pay
        // for gather + dedup. Unit tests can gather every candidate and
        // count support off its table instead, to check the fast path.
        let gather = || {
            let mut t = materialize_pairs(left, right, glue, &pairs);
            t.dedup();
            t
        };
        let distinct = distinct_left_values(left, 0, &pairs);
        let gathered = gather_every_candidate().then(gather);
        let support = match &gathered {
            Some(t) => support_count(t, 0, seed, universe),
            None => support_from_distinct(&distinct, seed, universe),
        };
        let freq = frequency_from_support(support, seed, universe);
        let accepted = self.threshold.accepts(support, freq);
        work.materialized = accepted || gathered.is_some();
        let growth = self.memo.growing.then(|| Growth {
            gen: memo
                .and_then(|m| m.growth.as_ref())
                .map_or(0, |g| g.gen + 1),
            parent_gen: job.parent_gen,
            left_len: lens.0,
            right_len: lens.1,
            distinct,
            indexes: JoinIndexes::default(),
        });
        let memo = Memo {
            stage: self.stage.key().to_vec(),
            path: ev.ext.actions().to_vec(),
            table: accepted.then(|| Arc::new(gathered.unwrap_or_else(gather))),
            support,
            freq,
            growth,
        };
        Joined::Full(memo, work)
    }

    /// A hash delta join's left and right index, readied in phase 1.
    fn indexes(&self, keys: &DeltaKeys, parent: &Node) -> (&KeyIndex, &KeyIndex) {
        let (of, cols) = &keys.left;
        let left = match of {
            Some(of) => self.stage.index(*of, cols),
            None => {
                let g = self.memo.entries[&parent.id].growth.as_ref();
                g.expect("a growing memo").indexes.get(cols)
            }
        };
        let (shape, cols) = &keys.right;
        (left, self.stage.index(Folded::Action(*shape), cols))
    }
}

/// Batch mining's side of [`WindowMiner::expand`]: whole types are loaded
/// into one row store, whose rows at a stage are final. Each shape's
/// table is built the first time a join or singleton at the stage asks
/// for it, and dropped when the stage moves on.
struct BatchStage<'s> {
    state: &'s mut MineState,
    window: &'s Window,
    pool: Option<&'s MiningPool>,
    tables: HashMap<Shape, Arc<Table>>,
}

impl Stage for BatchStage<'_> {
    fn key(&self) -> &[TypeId] {
        &self.state.fetched
    }

    fn shapes(&self) -> Vec<Shape> {
        sorted_shapes(&self.state.rows)
    }

    fn table(&mut self, miner: &WindowMiner<'_>, shape: Shape) -> Arc<Table> {
        let rows = &self.state.rows;
        let table = self.tables.entry(shape).or_insert_with(|| {
            let (op, s, r, t) = shape;
            let action = WorkingPattern::singleton(op, s, r, t).actions()[0];
            Arc::new(action_realizations(&action, &rows[&shape], miner.universe))
        });
        Arc::clone(table)
    }

    fn fetch(&mut self, miner: &WindowMiner<'_>, types: BTreeSet<TypeId>) {
        self.tables.clear();
        for ty in types {
            self.state.fetch(ty);
            let entities = miner.universe.entities_of(ty);
            miner.load_entities(self.state, entities, self.window, self.pool);
        }
    }

    fn pool(&self) -> Option<&MiningPool> {
        self.pool
    }
}

/// One entity's extraction: the preprocessing outcome plus how the action
/// cache answered (None when no cache is attached).
pub(crate) type Extracted = Result<(Arc<ExtractOutcome>, Option<CacheLookup>), FetchError>;

/// Mutable mining state for one window.
struct MineState {
    /// Concrete reduced pairs per abstraction shape (already lifted to all
    /// admissible heights).
    rows: HashMap<Shape, Vec<(EntityId, EntityId)>>,
    /// The types fetched, in load order: the rows (and their order) at a
    /// stage are a function of it, so it keys the window's memos.
    fetched: Vec<TypeId>,
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
            action_cache: None,
            interner: Arc::new(PatternInterner::new()),
            pool: None,
        }
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

    /// Attaches whatever caches `caches` carries — the one way to attach
    /// any of them. The action cache may be absent; the pattern interner is
    /// always present and keeps memo ids stable across miners (the
    /// streaming miner attaches a bundle holding only its interner, so ids
    /// stay stable across refreshes; Algorithm 2 shares one across
    /// iterations).
    pub fn with_caches(mut self, caches: MiningCaches) -> Self {
        self.action_cache = caches.actions;
        self.interner = caches.patterns;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Mines the most specific frequent (and relative frequent) patterns
    /// of `window` w.r.t. `seed`, constructing the edits graph
    /// incrementally from the seed type outward.
    pub fn mine_window(&self, seed: TypeId, window: &Window) -> WindowResult {
        self.mine_window_with(seed, window, &mut WindowMemo::default())
    }

    /// [`WindowMiner::mine_window`] reading and writing the window's
    /// `memo`: Algorithm 2 keeps it across iterations that only lower τ.
    /// The memo must be this window's, keyed by this miner's interner.
    pub(crate) fn mine_window_with(
        &self,
        seed: TypeId,
        window: &Window,
        memo: &mut WindowMemo,
    ) -> WindowResult {
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
        self.run_expansion(t0, state, memo, seed, window, false)
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
        let mut memo = WindowMemo::default();
        self.run_expansion(t0, state, &mut memo, seed, window, true)
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

    /// Batch Algorithm 1 on a loaded seed stage: the shared expansion, then
    /// the shared tail. `t0` is when the entry point started: `stats.mine`
    /// is the time since then minus every entity load
    /// (`stats.preprocess`), the seed load included.
    fn run_expansion(
        &self,
        t0: Instant,
        mut state: MineState,
        memo: &mut WindowMemo,
        seed: TypeId,
        window: &Window,
        preloaded: bool,
    ) -> WindowResult {
        state.fetch(seed);
        let mut stage = BatchStage {
            state: &mut state,
            window,
            pool: self.pool.as_deref(),
            tables: HashMap::new(),
        };
        let exp = self.expand(&mut stage, memo, seed, preloaded);
        let (patterns, tail) = self.finish(exp.nodes, &mut stage, memo, seed);
        state.stats.absorb(&exp.stats);
        state.stats.absorb(&tail);

        let mut stats = state.stats;
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
            taxonomy: None,
            patterns,
            stats,
            degraded,
        }
    }

    /// Algorithm 1 lines 2–15, the one expansion loop batch mining and
    /// every streamed window refresh run: frequent singletons, then
    /// generation growth interleaved with the fetched-type fixpoint until
    /// no frequent pattern mentions an unfetched type. `stage` supplies the
    /// rows of each fetched-type stage; every candidate is evaluated against
    /// the window's `memo`. `preloaded` marks a stage that loaded every entity up front (the
    /// batch-only `PM−inc` ablation): every singleton then counts as a
    /// candidate and no type is fetched.
    pub(crate) fn expand(
        &self,
        stage: &mut impl Stage,
        memo: &mut WindowMemo,
        seed: TypeId,
        preloaded: bool,
    ) -> Expansion {
        let mut exp = Expansion::default();
        self.seed_singletons(stage, seed, preloaded, &mut exp);
        loop {
            let tau = Threshold::Frequency(self.config.tau);
            self.grow(stage, memo, seed, tau, &mut exp);
            if preloaded {
                break; // everything was loaded up front
            }
            // Which variable types in frequent patterns are new?
            let new_types: BTreeSet<TypeId> = exp
                .nodes
                .iter()
                .flat_map(|n| n.canonical.types())
                .filter(|t| !stage.key().contains(t))
                .collect();
            if new_types.is_empty() {
                break;
            }
            stage.fetch(self, new_types);
        }
        exp
    }

    /// Builds the frequent singleton patterns (Algorithm 1 line 2).
    fn seed_singletons(
        &self,
        stage: &mut impl Stage,
        seed: TypeId,
        preloaded: bool,
        exp: &mut Expansion,
    ) {
        for (op, s, r, t) in stage.shapes() {
            let eligible = self.seed_comparable(s, seed);
            // Conventional mining considers every singleton in the full
            // graph; ineligible ones are pruned by the frequency test
            // (their seed-relative frequency is 0) but still count.
            if eligible || preloaded {
                exp.stats.candidates_considered += 1;
            }
            if !eligible {
                continue;
            }
            let wp = WorkingPattern::singleton(op, s, r, t);
            let table = stage.table(self, (op, s, r, t));
            let support = support_count(&table, 0, seed, self.universe);
            let freq = frequency_from_support(support, seed, self.universe);
            if freq >= self.config.tau {
                let (id, canonical) = self.interner.intern_working(&wp);
                if exp.found.insert(id) {
                    exp.nodes.push(Node {
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

    /// Whether a singleton with source type `s` is eligible w.r.t. `seed`:
    /// the types are comparable, so seed entities can realize the source.
    fn seed_comparable(&self, s: TypeId, seed: TypeId) -> bool {
        let tax = self.universe.taxonomy();
        tax.is_subtype(seed, s) || tax.is_subtype(s, seed)
    }

    /// Grows the frontier generation by generation until no new frequent
    /// pattern emerges (Algorithm 1 lines 9–14).
    ///
    /// Each generation serially collects every untested `(node, shape)`
    /// gluing of the stage's shapes into an ordered spec list, evaluates
    /// the specs against the window's `memo` ([`Evaluator`]) and merges the
    /// results serially in spec order, appending the nodes `threshold`
    /// accepts sorted by canonical pattern value.
    fn grow(
        &self,
        stage: &mut impl Stage,
        memo: &mut WindowMemo,
        seed: TypeId,
        threshold: Threshold,
        exp: &mut Expansion,
    ) {
        let shapes = stage.shapes();
        let mut frontier = 0..exp.nodes.len();
        while !frontier.is_empty() {
            let specs = self.collect_specs(&shapes, exp, frontier);
            if specs.is_empty() {
                break;
            }
            let start = exp.nodes.len();
            let evaluator = Evaluator {
                stage: &mut *stage,
                memo: &mut *memo,
                seed,
                threshold,
            };
            let outcomes = evaluator.run(self, &specs, exp);
            self.merge_generation(outcomes, threshold, exp);
            frontier = start..exp.nodes.len();
        }
    }

    /// Serially enumerates every untested gluing of every shape onto the
    /// frontier nodes, in deterministic order (node index, then sorted
    /// shape, then source variable, fresh target before glued targets) —
    /// the order the sequential engine would test them in.
    fn collect_specs(
        &self,
        shapes: &[Shape],
        exp: &mut Expansion,
        frontier: std::ops::Range<usize>,
    ) -> Vec<CandidateSpec> {
        let tax = self.universe.taxonomy();
        let mut specs = Vec::new();
        for ni in frontier {
            let node = &exp.nodes[ni];
            for &shape in shapes {
                if !exp.tested.insert((node.id, shape)) {
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

    /// Folds one generation's evaluation results back into the frontier,
    /// serially in spec order: counters accrue per spec (one memo hit or
    /// one memo miss per evaluation), and accepted nodes are appended
    /// sorted by canonical pattern *value* (never by [`PatternId`] — ids
    /// depend on thread interleaving).
    fn merge_generation(
        &self,
        outcomes: Vec<Option<Evaluated>>,
        threshold: Threshold,
        exp: &mut Expansion,
    ) {
        let stats = &mut exp.stats;
        let mut accepted: Vec<Node> = Vec::new();
        for outcome in outcomes {
            stats.candidates_considered += 1;
            let Some(ev) = outcome else { continue };
            stats.rows_probed += ev.work.rows_probed;
            stats.pairs_matched += ev.work.pairs_matched;
            stats.delta_rows_joined += ev.work.delta_rows;
            for _ in 0..ev.work.pair_stages {
                stats.count_pick(self.config.join_impl);
            }
            if ev.via_memo {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
                stats.joins_executed += 1;
                if ev.work.materialized {
                    stats.tables_materialized += 1;
                } else {
                    stats.tables_pruned += 1;
                }
            }
            if !threshold.accepts(ev.support, ev.freq) {
                continue;
            }
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
        accepted.sort_by(|a, b| a.canonical.cmp(&b.canonical));
        for node in accepted {
            exp.found.insert(node.id);
            exp.nodes.push(node);
        }
    }

    /// Algorithm 1's tail, shared by batch mining and a sealing streamed
    /// window: the most-specific filter (line 16), one [`FoundPattern`] per
    /// node, and relative mining from each most specific pattern at the
    /// final `stage`, against the window's memo. Returns the patterns and
    /// the tail's counters.
    pub(crate) fn finish(
        &self,
        nodes: Vec<Node>,
        stage: &mut impl Stage,
        memo: &mut WindowMemo,
        seed: TypeId,
    ) -> (Vec<FoundPattern>, MineStats) {
        let all: Vec<Pattern> = nodes.iter().map(|n| n.canonical.clone()).collect();
        let keep: HashSet<Pattern> = crate::pattern::most_specific(&all, self.universe.taxonomy())
            .into_iter()
            .collect();
        let mut patterns: Vec<FoundPattern> = nodes
            .into_iter()
            .map(|node| FoundPattern {
                most_specific: keep.contains(&node.canonical),
                pattern: node.canonical,
                working: node.wp,
                table: node.table,
                support: node.support,
                frequency: node.freq,
                rel_patterns: Vec::new(),
            })
            .collect();
        let mut stats = MineStats::default();
        if self.config.mine_relative {
            for p in patterns.iter_mut().filter(|p| p.most_specific) {
                let (rels, rel_stats) = self.mine_relative(&mut *stage, memo, seed, p);
                stats.absorb(&rel_stats);
                p.rel_patterns = rels;
            }
        }
        stats.patterns_found = patterns.len();
        stats.most_specific_found = patterns.iter().filter(|p| p.most_specific).count();
        (patterns, stats)
    }

    /// Mines the relative frequent patterns of `parent` (Def. 3.5): the
    /// expansion restarts from the parent pattern itself, accepting
    /// extensions whose *relative* frequency meets τ_rel but whose absolute
    /// frequency fell below τ. The absolute expansion's memos answer every
    /// candidate it already scored. Returns (patterns, work counters).
    fn mine_relative(
        &self,
        stage: &mut impl Stage,
        memo: &mut WindowMemo,
        seed: TypeId,
        parent: &FoundPattern,
    ) -> (Vec<RelPattern>, MineStats) {
        let pid = self.interner.intern(&parent.pattern);
        // A fresh tested set — the absolute phase's pairs are deliberately
        // retried here: extensions that failed τ were discarded there but
        // may clear τ_rel now.
        let mut exp = Expansion::default();
        exp.found.insert(pid);
        exp.nodes.push(Node {
            id: pid,
            wp: parent.working.clone(),
            canonical: parent.pattern.clone(),
            table: Arc::clone(&parent.table),
            support: parent.support,
            freq: parent.frequency,
        });

        let parent_support = parent.support;
        if std::env::var_os("WICLEAN_TRACE").is_some() {
            eprintln!(
                "[rel] parent support={} len={} shapes={} tau_rel={}",
                parent_support,
                parent.working.len(),
                stage.shapes().len(),
                self.config.tau_rel
            );
        }
        // Child support is always measured against the *original* parent.
        let threshold = Threshold::Relative {
            parent_support,
            tau_rel: self.config.tau_rel,
        };
        self.grow(stage, memo, seed, threshold, &mut exp);

        // Most specific among the relative patterns (excluding the parent).
        let rel_nodes = &exp.nodes[1..];
        let pats: Vec<Pattern> = rel_nodes.iter().map(|n| n.canonical.clone()).collect();
        let keep: HashSet<Pattern> = crate::pattern::most_specific(&pats, self.universe.taxonomy())
            .into_iter()
            .collect();

        if std::env::var_os("WICLEAN_TRACE").is_some() {
            eprintln!(
                "[rel] raw rel nodes: {} (candidates {}, joins {})",
                pats.len(),
                exp.stats.candidates_considered,
                exp.stats.joins_executed
            );
        }
        let rels = rel_nodes
            .iter()
            .filter(|n| keep.contains(&n.canonical))
            .map(|n| RelPattern {
                pattern: n.canonical.clone(),
                working: n.wp.clone(),
                support: n.support,
                frequency: n.freq,
                rel_frequency: relative_frequency(n.support, parent_support),
            })
            .collect();
        (rels, exp.stats)
    }

    /// Loads a window's reduced, shape-grouped rows for an entity set —
    /// the preprocessing step exposed for Algorithm 3 and the baselines.
    pub fn load_shape_rows(
        &self,
        entities: impl IntoIterator<Item = EntityId>,
        window: &Window,
    ) -> (ShapeRows, MineStats) {
        let mut state = MineState::new();
        self.load_entities(&mut state, entities, window, self.pool.as_deref());
        (state.rows, state.stats)
    }
}

/// A row store's shapes, sorted: the order singletons are seeded and
/// gluings tried in.
pub(crate) fn sorted_shapes(rows: &ShapeRows) -> Vec<Shape> {
    let mut shapes: Vec<Shape> = rows.keys().copied().collect();
    shapes.sort();
    shapes
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
    // The parent table's columns are its variables, in `vars` order.
    let vars = parent_wp.vars();
    let column_of = |var: Var| {
        let col = vars.iter().position(|&v| v == var);
        col.expect("a glued variable has a column in the parent table")
    };
    let src_col = column_of(action.source);
    let tgt_glue = if target_is_new {
        // Inequality against every existing variable of a comparable
        // type (distinct variables ⇒ distinct entities).
        let tax = universe.taxonomy();
        let distinct_from: Vec<usize> = vars
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
        ColumnGlue::Glued(column_of(action.target))
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
            fetched: Vec::new(),
            fetched_entities: HashSet::new(),
            stats: MineStats::default(),
            degraded: DegradedCoverage::default(),
        }
    }

    /// Records `ty` as fetched.
    fn fetch(&mut self, ty: TypeId) {
        if !self.fetched.contains(&ty) {
            self.fetched.push(ty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{soccer_fixture, work_counters};
    use std::cell::Cell;
    use wiclean_revstore::{Action, EditOp};

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
        assert_eq!(r.stats.most_specific_found, r.most_specific().count());
        assert_eq!(r.stats.patterns_found, r.patterns.len());
        // Every executed join either materialized its output or was pruned
        // off the pair stream (34 = 4 + 30), and is a memo miss; relative
        // mining's 4 candidates were all scored by the absolute expansion,
        // so the memo serves them.
        let pinned = [44, 34, 4, 34, 4, 30, 154, 24, 34, 0, 0, 8, 1];
        assert_eq!(work_counters(&r.stats), pinned);
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
    fn lift_action_enumerates_ancestor_shapes_most_specific_first() {
        let fx = soccer_fixture();
        let cc = fx.universe.lookup_relation("current_club").unwrap();
        let (player, club) = (fx.players[0], fx.clubs[0]);
        let a = Action::new(EditOp::Add, player, cc, club, 20);
        let root = fx.universe.taxonomy().root();
        // Source chain: SoccerPlayer, Athlete, Person, Agent, Thing (5).
        // Target chain: SoccerClub, SportsTeam, Organisation, Agent, Thing (5).
        for (height, count) in [(0, 1), (1, 4), (u32::MAX, 25)] {
            let config = MinerConfig {
                max_abstraction_height: height,
                ..fx.config()
            };
            let miner = WindowMiner::new(&fx.store, &fx.universe, config);
            let mut shapes = Vec::new();
            miner.lift_action(&a, |shape, pair| {
                assert_eq!(pair, (player, club));
                shapes.push(shape);
            });
            assert_eq!(shapes.len(), count, "height {height}");
            assert_eq!(shapes[0], (EditOp::Add, fx.player_ty, cc, fx.club_ty));
            let unbounded = height == u32::MAX;
            assert_eq!(shapes.contains(&(EditOp::Add, root, cc, root)), unbounded);
        }
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
        let redone = realize_pattern(&miner, &rows, &target.working);
        assert_eq!(redone.sorted_rows(), target.table.sorted_rows());
    }

    /// The realization table of `wp` rebuilt from scratch: inner joins
    /// chained over its actions in construction order.
    fn realize_pattern(miner: &WindowMiner<'_>, rows: &ShapeRows, wp: &WorkingPattern) -> Table {
        let table_of = |a: &AbstractAction| {
            let rows = rows.get(&a.shape()).map_or(&[][..], Vec::as_slice);
            action_realizations(a, rows, miner.universe)
        };
        let (first, rest) = wp.actions().split_first().expect("a pattern has an action");
        let mut prefix = WorkingPattern::from_actions(vec![*first]);
        let mut table = table_of(first);
        for &a in rest {
            let fresh = !prefix.vars().contains(&a.target);
            let glue = candidate_glue(miner.universe, &prefix, &a, fresh);
            table = wiclean_rel::join_glue(&table, &table_of(&a), &glue);
            table.dedup();
            prefix = prefix.extended_with(a);
        }
        table
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
