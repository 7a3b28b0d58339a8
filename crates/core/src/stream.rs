//! Incremental streaming miner: delta-join window updates over a live
//! revision feed.
//!
//! Batch mining ([`WindowMiner::mine_window`]) assumes the window's
//! revisions are all present before mining starts. A live feed delivers
//! them one at a time, out of order; re-mining a window from scratch on
//! every arrival repeats almost all of the join work. This module keeps a
//! per-window incremental state instead:
//!
//! * each arriving revision is recorded and its entity marked **dirty** in
//!   every window it can affect (its own window and every later one — an
//!   earlier revision changes the snapshot baseline of later windows);
//! * every `refresh_revisions` arrivals the window **refreshes**:
//!   dirty entities are re-extracted, their per-entity *contribution*
//!   (reduced actions lifted to abstraction shapes) is diffed against the
//!   memoized one, and the appended rows are folded into the window's
//!   columnar tables — realization tables grow by
//!   [`wiclean_rel::Table::extend_dedup`], candidate joins by
//!   [`wiclean_rel::join_glue_pairs_delta`], in which only the appended
//!   rows probe;
//! * when the **watermark** (max event time minus the configured grace
//!   period) passes a window's end, the window **seals**: one final
//!   refresh (mostly memo hits), then the batch miner's own tail (the
//!   most-specific filter and relative mining), and the result is emitted.
//!
//! A refresh is not a second copy of Algorithm 1: it runs the batch
//! expansion loop (`WindowMiner::expand`) with this module's stage —
//! singleton and action tables from each fetched-type stage's folded
//! tables, and candidates evaluated against the window's memo.
//!
//! **O(Δ) refreshes.** A refresh costs the rows appended since the last
//! one, not the window:
//!
//! * each fetched-type stage keeps its entity set once, and each of its
//!   folded tables keeps a cursor into its shape's stamped rows, so a
//!   fold filters and absorbs only the rows stamped since the last fold;
//! * every append-only table keeps persistent join indexes, one per
//!   key-column list a delta join probed it by, shared by every candidate
//!   that probes it: a folded table's serve as the right side of every
//!   candidate of its shape (and as the left side where its singleton is
//!   the parent), a memo's live in its lineage. They are extended where
//!   their table grows — at a fold, and when a delta join extends a memo's
//!   table — and dropped with it: when a full join rebuilds the memo, on
//!   a fallback, and at seal. Appended right rows probe the left index
//!   and appended left rows the right one.
//!
//! **Correctness anchor:** a sealed window's result is equivalent to
//! `WindowMiner::mine_window` over the same revisions — identical pattern
//! sets, supports, frequencies, most-specific flags, relative patterns,
//! and realization tables up to row order (`Table::sorted_rows`) — at any
//! arrival order and any refresh cadence. The key invariants:
//!
//! * support is a *distinct count* over the source column, so it is
//!   monotone under row appends and can be maintained as a set union
//!   (the distinct source values in each candidate's per-window memo)
//!   without rescanning;
//! * the expansion replayed at each refresh is byte-deterministic given
//!   the row store, and the row store a refresh sees per *fetched-type
//!   stage* is exactly the one batch mining would have loaded at that
//!   stage (rows are stamped with their contributing entity and filtered
//!   per stage);
//! * action reduction is not monotone — a later revision can cancel an
//!   earlier action. A refresh whose contribution diff is not append-only
//!   falls back to a full window re-mine
//!   ([`MineStats::full_remine_fallbacks`]), so deltas are an
//!   optimization, never an assumption.
//!
//! Revisions arriving for a window that already sealed are counted in
//! [`DegradedCoverage::late_revisions`] — never silently dropped.

use crate::abstract_action::AbstractAction;
use crate::cache::{JoinIndexes, MiningCaches, WindowMemo};
use crate::config::{MinerConfig, StreamPolicy, WcConfig};
use crate::degraded::DegradedCoverage;
use crate::miner::{Folded, FoundPattern, MineStats, Stage, WindowMiner, WindowResult};
use crate::pattern::WorkingPattern;
use crate::pool::MiningPool;
use crate::realization::{action_realizations, Shape};
use crate::windows::{Discoveries, WcResult};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use wiclean_rel::{KeyIndex, Table};
use wiclean_revstore::{reduce_actions, FeedEvent, FetchError, RevisionFeed, RevisionStore};
use wiclean_types::{EntityId, Taxonomy, Timestamp, TypeId, Universe, Window};

/// Configuration of a streaming run — the subset of [`WcConfig`] the
/// stream consumes, denormalized so the miner can be driven standalone.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Window width in seconds (batch `w_min`; the stream mines at a fixed
    /// width — refinement iterations are a batch concept).
    pub width: u64,
    /// Timeline origin: windows tile `[timeline_start + k·width, …)`.
    /// Events before it are baseline data (they shape snapshot baselines)
    /// and belong to no window.
    pub timeline_start: Timestamp,
    /// Per-window mining configuration (τ, join impl, abstraction height…).
    pub miner: MinerConfig,
    /// Watermark / refresh-cadence knobs.
    pub policy: StreamPolicy,
}

impl StreamConfig {
    /// The streaming view of a [`WcConfig`]: `w_min`-wide windows over the
    /// configured timeline, at the initial threshold `tau0` — exactly the
    /// batch driver's first iteration, which is the one the stream mines
    /// continuously (width/threshold refinement is a batch concept).
    /// [`WcConfig::threads`] is not read: the streaming miner runs every
    /// refresh and seal inline. Nor is [`WcConfig::use_action_cache`]: a
    /// stream never hits that cache (a window loads an entity once and
    /// re-extracts it only after its history changed), so it has none.
    pub fn from_wc(config: &WcConfig) -> Self {
        let mut miner = config.miner;
        miner.tau = config.tau0;
        Self {
            width: config.w_min,
            timeline_start: config.timeline_start,
            miner,
            policy: config.stream,
        }
    }
}

/// One loaded entity's memoized contribution to a window: its reduced
/// actions lifted to every admissible abstraction shape, plus the
/// extraction counters batch accounting needs at seal.
struct Contribution {
    rows: Vec<(Shape, (EntityId, EntityId))>,
    parse_issues: u64,
    actions_extracted: usize,
    reduced_actions: usize,
}

/// A per-shape realization table of one fetched-type stage, grown
/// incrementally from the shape's stamped rows. Folding the suffix with
/// `extend_dedup` is byte-identical to rebuilding from scratch:
/// `Table::dedup` keeps first occurrences, so a deduped table over a
/// growing prefix-stable row list grows append-only with an identical
/// prefix.
struct FoldedTable {
    /// Representative singleton action of the shape: supplies the schema
    /// (matching batch singleton nodes) and the injectivity filter (which
    /// depends only on the shape's types, so one table serves as the
    /// right side of *every* candidate of the shape — the glue plan is
    /// index-based and names output columns itself).
    action: AbstractAction,
    /// Shared with the singleton nodes of a refresh, which are gone by the
    /// next fold.
    table: Arc<Table>,
    /// Cursor into the shape's stamped rows: every row before it has been
    /// filtered and, if admitted, absorbed.
    rows_folded: usize,
    /// Whether the stage has admitted any of the shape's rows.
    admitted: bool,
    /// The join indexes over `table`: as the right side of every delta
    /// join adding an action of the shape, and as the left side where the
    /// shape's singleton is the parent.
    indexes: JoinIndexes,
}

impl FoldedTable {
    fn new(shape: Shape, universe: &Universe) -> Self {
        let (op, s, r, t) = shape;
        let action = WorkingPattern::singleton(op, s, r, t).actions()[0];
        Self {
            table: Arc::new(action_realizations(&action, &[], universe)),
            action,
            rows_folded: 0,
            admitted: false,
            indexes: JoinIndexes::default(),
        }
    }

    /// Absorbs the rows stamped since the last fold whose contributing
    /// entity is in `entities`, and extends the join indexes over them.
    fn fold(&mut self, stamped: &[Stamped], entities: &HashSet<EntityId>, universe: &Universe) {
        let fresh: Vec<(EntityId, EntityId)> = stamped[self.rows_folded..]
            .iter()
            .filter(|(src, _)| entities.contains(src))
            .map(|&(_, pair)| pair)
            .collect();
        self.rows_folded = stamped.len();
        if !fresh.is_empty() {
            self.admitted = true;
            let fresh = action_realizations(&self.action, &fresh, universe);
            let table = Arc::make_mut(&mut self.table);
            table.extend_dedup(&fresh);
            self.indexes.extend(table);
        }
    }
}

/// One fetched-type stage of a window: the entities its types hold,
/// computed once, and its folded tables, one per shape in the row store.
struct StageTables {
    entities: HashSet<EntityId>,
    tables: HashMap<Shape, FoldedTable>,
}

impl StageTables {
    fn new(universe: &Universe, fetched: &BTreeSet<TypeId>) -> Self {
        Self {
            entities: entities_of(universe, fetched),
            tables: HashMap::new(),
        }
    }

    /// Folds every shape's rows stamped since the last fold: the rows a
    /// batch miner would have loaded at this stage, in append order —
    /// prefix-stable across refreshes, which is what keeps the folded
    /// tables and delta joins sound.
    fn fold(&mut self, rows: &StampedRows, universe: &Universe) {
        for (&shape, stamped) in rows {
            let folded = self.tables.entry(shape);
            let folded = folded.or_insert_with(|| FoldedTable::new(shape, universe));
            folded.fold(stamped, &self.entities, universe);
        }
    }
}

/// A concrete row stamped with its contributing entity.
type Stamped = (EntityId, (EntityId, EntityId));

/// Concrete rows per shape, stamped with the contributing entity.
type StampedRows = HashMap<Shape, Vec<Stamped>>;

/// Live state of one unsealed window.
struct WindowState {
    window: Window,
    /// Entities with arrivals not yet absorbed into a contribution.
    dirty: BTreeSet<EntityId>,
    /// Arrivals assigned to this window since the last refresh.
    since_refresh: u64,
    contrib: HashMap<EntityId, Contribution>,
    losses: HashMap<EntityId, FetchError>,
    /// Types whose full entity set has contributions.
    loaded_types: HashSet<TypeId>,
    /// Append-only concrete rows per shape, stamped with the contributing
    /// entity so each fetched-type stage can filter the exact row set
    /// batch mining would have loaded at that stage.
    rows: StampedRows,
    /// Per-stage folded realization tables (stage = fetched-type set).
    tables: HashMap<BTreeSet<TypeId>, StageTables>,
    /// Candidate memos, dropped on fallback and with the window at seal.
    memo: WindowMemo,
    stats: MineStats,
}

impl WindowState {
    fn new(window: Window) -> Self {
        Self {
            window,
            dirty: BTreeSet::new(),
            since_refresh: 0,
            contrib: HashMap::new(),
            losses: HashMap::new(),
            loaded_types: HashSet::new(),
            rows: HashMap::new(),
            tables: HashMap::new(),
            memo: WindowMemo {
                growing: true,
                ..WindowMemo::default()
            },
            stats: MineStats::default(),
        }
    }

    /// Appends one entity's contribution rows to the global row store.
    fn append_rows(&mut self, entity: EntityId, rows: &[(Shape, (EntityId, EntityId))]) {
        for &(shape, pair) in rows {
            self.rows.entry(shape).or_default().push((entity, pair));
        }
    }

    /// Extracts `entity` from the live store and memoizes its
    /// contribution, appending its rows. Returns `None` when the entity was
    /// already loaded, or could not be fetched (the loss is recorded).
    fn load_entity(&mut self, miner: &WindowMiner<'_>, entity: EntityId) -> Option<()> {
        if self.contrib.contains_key(&entity) || self.losses.contains_key(&entity) {
            return None;
        }
        match extract_contribution(miner, entity, &self.window, &mut self.stats) {
            Ok(c) => {
                self.append_rows(entity, &c.rows);
                self.contrib.insert(entity, c);
                self.dirty.remove(&entity);
                Some(())
            }
            Err(err) => {
                self.losses.insert(entity, err);
                self.dirty.remove(&entity);
                None
            }
        }
    }

    /// Re-extracts every dirty already-loaded entity and folds the
    /// append-only part of each diff into the row store. Returns `true`
    /// when some contribution was *not* append-only (a retraction) and
    /// the window must re-mine from scratch.
    fn absorb_dirty(&mut self, miner: &WindowMiner<'_>) -> bool {
        let t0 = Instant::now();
        let dirty: Vec<EntityId> = self
            .dirty
            .iter()
            .copied()
            .filter(|e| self.contrib.contains_key(e) || self.losses.contains_key(e))
            .collect();
        let mut retracted = false;
        for e in dirty {
            self.dirty.remove(&e);
            if !self.contrib.contains_key(&e) {
                // A previously unfetchable entity got new data: retry.
                // Success appends its rows at the tail (pure growth);
                // failure re-records the loss.
                self.losses.remove(&e);
                self.load_entity(miner, e);
                continue;
            }
            let fresh = match extract_contribution(miner, e, &self.window, &mut self.stats) {
                Ok(c) => c,
                Err(err) => {
                    // An entity that contributed before and now cannot be
                    // read is a retraction by definition.
                    self.contrib.remove(&e);
                    self.losses.insert(e, err);
                    retracted = true;
                    continue;
                }
            };
            let old = &self.contrib[&e];
            // Multiset diff: the new contribution must contain every old
            // row (action reduction can cancel rows, which breaks the
            // append-only invariant deltas rely on).
            let mut counts: HashMap<(Shape, (EntityId, EntityId)), i64> = HashMap::new();
            for r in &old.rows {
                *counts.entry(*r).or_default() += 1;
            }
            let mut appended: Vec<(Shape, (EntityId, EntityId))> = Vec::new();
            for r in &fresh.rows {
                let c = counts.entry(*r).or_default();
                *c -= 1;
                if *c < 0 {
                    appended.push(*r);
                }
            }
            if counts.values().any(|&c| c > 0) {
                retracted = true;
            } else {
                self.append_rows(e, &appended);
            }
            self.contrib.insert(e, fresh);
        }
        self.stats.preprocess += t0.elapsed();
        retracted
    }

    /// Full re-mine fallback: every derived structure is rebuilt from the
    /// (still valid) per-entity contribution memos; the candidate memos
    /// are dropped.
    fn rebuild_from_contributions(&mut self) {
        self.stats.full_remine_fallbacks += 1;
        self.rows.clear();
        self.tables.clear();
        self.memo.entries.clear();
        let mut entities: Vec<EntityId> = self.contrib.keys().copied().collect();
        entities.sort_by_key(|e| e.as_u32());
        for e in entities {
            let rows = std::mem::take(&mut self.contrib.get_mut(&e).expect("loaded").rows);
            self.append_rows(e, &rows);
            self.contrib.get_mut(&e).expect("loaded").rows = rows;
        }
    }

    /// One refresh: absorb dirty entities, then run the batch expansion
    /// loop ([`WindowMiner::expand`]) with this window's stages and memo;
    /// to `seal`, also the batch miner's tail ([`WindowMiner::finish`]).
    /// Returns the found patterns (none unless sealing) and the final
    /// fetched-type set. Extraction (re-extracting dirty entities, loading
    /// a type) is timed as `preprocess`, the rest of the refresh as
    /// `mine`, so each instant counts once.
    fn refresh(
        &mut self,
        miner: &WindowMiner<'_>,
        universe: &Universe,
        seed: TypeId,
        seal: bool,
    ) -> (Vec<FoundPattern>, BTreeSet<TypeId>) {
        let t0 = Instant::now();
        let preprocess0 = self.stats.preprocess;
        self.since_refresh = 0;
        if self.absorb_dirty(miner) {
            self.rebuild_from_contributions();
        }
        let mut memo = std::mem::take(&mut self.memo);
        let mut stage = StreamStage {
            ws: self,
            universe,
            seed: BTreeSet::from([seed]),
            fetched: BTreeSet::new(),
            key: Vec::new(),
            current: None,
        };
        stage.fetch(miner, BTreeSet::from([seed]));
        let exp = miner.expand(&mut stage, &mut memo, seed, false);
        let (patterns, tail) = if seal {
            miner.finish(exp.nodes, &mut stage, &mut memo, seed)
        } else {
            Default::default()
        };
        let fetched = stage.fetched.clone();
        stage.leave();
        self.memo = memo;
        self.stats.absorb(&exp.stats);
        self.stats.absorb(&tail);
        let extracting = self.stats.preprocess - preprocess0;
        self.stats.mine += t0.elapsed().saturating_sub(extracting);
        (patterns, fetched)
    }

    /// Ensures every entity of `ty` has a memoized contribution (the
    /// streaming analogue of the batch `load_entities` per-type fetch).
    fn load_type(&mut self, miner: &WindowMiner<'_>, universe: &Universe, ty: TypeId) {
        if !self.loaded_types.insert(ty) {
            // Already loaded as a whole; members that arrived since are
            // dirty and were re-extracted by `absorb_dirty`.
            return;
        }
        let t0 = Instant::now();
        for e in universe.entities_of(ty) {
            self.load_entity(miner, e);
        }
        self.stats.preprocess += t0.elapsed();
    }
}

/// Every entity of the `fetched` types.
fn entities_of(universe: &Universe, fetched: &BTreeSet<TypeId>) -> HashSet<EntityId> {
    fetched
        .iter()
        .flat_map(|&ty| universe.entities_of(ty))
        .collect()
}

/// Extracts one entity's windowed contribution from the live store. The
/// stream's miner carries no action cache, so every extraction parses.
fn extract_contribution(
    miner: &WindowMiner<'_>,
    entity: EntityId,
    window: &Window,
    stats: &mut MineStats,
) -> Result<Contribution, FetchError> {
    let (outcome, _) = miner.extract_entity(entity, window)?;
    stats.bytes_parsed += outcome.bytes_parsed;
    stats.bytes_skipped += outcome.bytes_skipped;
    let reduced = reduce_actions(&outcome.actions);
    let mut rows = Vec::with_capacity(reduced.len());
    for a in &reduced {
        miner.lift_action(a, |shape, pair| rows.push((shape, pair)));
    }
    Ok(Contribution {
        rows,
        parse_issues: outcome.parse_issues,
        actions_extracted: outcome.actions.len(),
        reduced_actions: reduced.len(),
    })
}

/// A window refresh's side of [`WindowMiner::expand`]: each fetched-type
/// stage's action tables are the stage's folded tables, fed from the
/// stamped row store through per-table cursors.
struct StreamStage<'w> {
    ws: &'w mut WindowState,
    universe: &'w Universe,
    /// The seed stage, whose tables the singleton nodes hold.
    seed: BTreeSet<TypeId>,
    fetched: BTreeSet<TypeId>,
    /// `fetched` as the memo's stage key. A stage's rows are in arrival
    /// order, whatever order its types were fetched in.
    key: Vec<TypeId>,
    /// The current stage's tables, taken out of the window's while the
    /// stage lasts.
    current: Option<StageTables>,
}

impl StreamStage<'_> {
    fn current(&self) -> &StageTables {
        self.current.as_ref().expect("a stage is fetched first")
    }

    /// Puts the current stage's tables back into the window's.
    fn leave(&mut self) {
        if let Some(done) = self.current.take() {
            self.ws.tables.insert(self.fetched.clone(), done);
        }
    }

    /// The folded table `of` names.
    fn folded(&self, of: Folded) -> &FoldedTable {
        let (stage, shape) = match of {
            Folded::Singleton(shape) if self.fetched != self.seed => {
                (&self.ws.tables[&self.seed], shape)
            }
            Folded::Singleton(shape) | Folded::Action(shape) => (self.current(), shape),
        };
        &stage.tables[&shape]
    }
}

impl Stage for StreamStage<'_> {
    fn key(&self) -> &[TypeId] {
        &self.key
    }

    fn shapes(&self) -> Vec<Shape> {
        let admitted = self.current().tables.iter().filter(|(_, f)| f.admitted);
        let mut shapes: Vec<Shape> = admitted.map(|(&shape, _)| shape).collect();
        shapes.sort();
        shapes
    }

    fn table(&mut self, _: &WindowMiner<'_>, shape: Shape) -> Arc<Table> {
        Arc::clone(&self.current().tables[&shape].table)
    }

    fn ready_index(&mut self, of: Folded, cols: &[usize]) {
        let (stage, shape) = match of {
            Folded::Singleton(shape) if self.fetched != self.seed => (
                self.ws.tables.get_mut(&self.seed).expect("the seed stage"),
                shape,
            ),
            Folded::Singleton(shape) | Folded::Action(shape) => (
                self.current.as_mut().expect("a stage is fetched first"),
                shape,
            ),
        };
        let folded = stage.tables.get_mut(&shape).expect("a folded table");
        folded.indexes.ready(&folded.table, cols);
    }

    fn index(&self, of: Folded, cols: &[usize]) -> &KeyIndex {
        self.folded(of).indexes.get(cols)
    }

    /// Moves to the next stage, folding its tables up to the row store.
    fn fetch(&mut self, miner: &WindowMiner<'_>, types: BTreeSet<TypeId>) {
        self.leave();
        for ty in types {
            self.fetched.insert(ty);
            self.ws.load_type(miner, self.universe, ty);
        }
        self.key = self.fetched.iter().copied().collect();
        let mut stage = match self.ws.tables.remove(&self.fetched) {
            Some(stage) => stage,
            None => StageTables::new(self.universe, &self.fetched),
        };
        stage.fold(&self.ws.rows, self.universe);
        self.current = Some(stage);
    }

    fn pool(&self) -> Option<&MiningPool> {
        None
    }
}

/// The streaming miner: feed revisions in via [`StreamMiner::ingest`],
/// collect sealed per-window results from [`StreamMiner::sealed`].
pub struct StreamMiner<'u> {
    universe: &'u Universe,
    /// The universe's taxonomy, shared by every sealed window's result.
    taxonomy: Arc<Taxonomy>,
    seed: TypeId,
    config: StreamConfig,
    store: RevisionStore,
    /// Holds only the pattern interner, which persists across refreshes
    /// so ids (the memo keys) stay stable.
    caches: MiningCaches,
    /// Open windows keyed by window start (sealing walks them in order).
    windows: BTreeMap<Timestamp, WindowState>,
    max_event: Option<Timestamp>,
    /// End bound of the highest sealed window: events below it are late.
    sealed_high: Timestamp,
    late: u64,
    sealed: Vec<WindowResult>,
    stats: MineStats,
}

impl<'u> StreamMiner<'u> {
    /// A streaming miner over `universe`, mining windows of
    /// `config.width` seconds w.r.t. `seed`.
    ///
    /// # Panics
    ///
    /// If `config.width` is 0: no window could hold an event.
    pub fn new(universe: &'u Universe, seed: TypeId, config: StreamConfig) -> Self {
        assert!(
            config.width > 0,
            "stream window width must be at least 1 second"
        );
        Self {
            universe,
            taxonomy: Arc::new(universe.taxonomy().clone()),
            seed,
            config,
            store: RevisionStore::new(),
            caches: MiningCaches::none(),
            windows: BTreeMap::new(),
            max_event: None,
            sealed_high: 0,
            late: 0,
            sealed: Vec::new(),
            stats: MineStats::default(),
        }
    }

    /// [`StreamMiner::new`] configured from a [`WcConfig`].
    pub fn from_wc(universe: &'u Universe, seed: TypeId, config: &WcConfig) -> Self {
        Self::new(universe, seed, StreamConfig::from_wc(config))
    }

    /// The current watermark: max event time seen, minus the grace
    /// period. `None` before the first event.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.max_event
            .map(|t| t.saturating_sub(self.config.policy.grace))
    }

    /// Revisions that arrived after their window sealed.
    pub fn late_revisions(&self) -> u64 {
        self.late
    }

    /// Windows currently open (received events, not yet sealed).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Every sealed window result, in window order.
    pub fn sealed(&self) -> &[WindowResult] {
        &self.sealed
    }

    /// The accumulating revision store (all non-late ingested revisions).
    pub fn store(&self) -> &RevisionStore {
        &self.store
    }

    /// Aggregate statistics: sealed-window work plus stream counters.
    pub fn stats(&self) -> &MineStats {
        &self.stats
    }

    /// Ingests one revision event; returns how many windows sealed as a
    /// consequence (watermark advance).
    pub fn ingest(&mut self, event: &FeedEvent) -> usize {
        let t = event.time;
        if t < self.sealed_high {
            // The window this revision belongs to has already sealed (or,
            // for pre-timeline baseline data, a window whose snapshot
            // baseline it would shift has). Count it — the sealed result
            // can no longer reflect it.
            self.late += 1;
            return 0;
        }
        self.store.record(event.entity, t, event.text.clone());
        self.max_event = Some(self.max_event.map_or(t, |m| m.max(t)));
        // An arrival dirties every open window it can affect: its own and
        // every later one (it shifts their snapshot baselines).
        for ws in self.windows.values_mut() {
            if ws.window.end > t {
                ws.dirty.insert(event.entity);
            }
        }
        if t >= self.config.timeline_start {
            let width = self.config.width;
            let start =
                self.config.timeline_start + ((t - self.config.timeline_start) / width) * width;
            let ws = self
                .windows
                .entry(start)
                .or_insert_with(|| WindowState::new(Window::new(start, start + width)));
            ws.dirty.insert(event.entity);
            ws.since_refresh += 1;
            if ws.since_refresh >= self.config.policy.refresh_revisions {
                self.refresh_at(start);
            }
        }
        self.seal_ready()
    }

    /// Drains every event currently buffered on `feed` into the miner;
    /// returns how many windows sealed along the way.
    pub fn ingest_from(&mut self, feed: &mut dyn RevisionFeed) -> usize {
        let mut sealed = 0;
        while let Some(event) = feed.next_event() {
            sealed += self.ingest(&event);
        }
        sealed
    }

    /// Seals every remaining open window regardless of the watermark (the
    /// feed has ended); returns how many sealed.
    pub fn flush(&mut self) -> usize {
        let mut n = 0;
        while let Some((&start, _)) = self.windows.iter().next() {
            self.seal_at(start);
            n += 1;
        }
        n
    }

    /// Consumes the miner into a batch-shaped [`WcResult`] over every
    /// sealed window (flushing the remainder first).
    pub fn into_result(mut self) -> WcResult {
        self.flush();
        wc_result_from_sealed(
            &self.sealed,
            self.seed,
            self.config.width,
            self.config.miner.tau,
            self.late,
        )
    }

    /// A window miner over the live store (cheap to construct; the
    /// pattern interner persists across calls so ids stay stable).
    fn miner(&self) -> WindowMiner<'_> {
        WindowMiner::new(&self.store, self.universe, self.config.miner)
            .with_caches(self.caches.clone())
    }

    fn refresh_at(&mut self, start: Timestamp) {
        let Some(mut ws) = self.windows.remove(&start) else {
            return;
        };
        ws.refresh(&self.miner(), self.universe, self.seed, false);
        self.windows.insert(start, ws);
    }

    /// Seals every open window whose end the watermark has passed, in
    /// window order. Windows with no events never exist, hence never seal
    /// (batch mining of an empty window finds nothing either).
    fn seal_ready(&mut self) -> usize {
        let Some(wm) = self.watermark() else { return 0 };
        let mut n = 0;
        while let Some((&start, ws)) = self.windows.iter().next() {
            if ws.window.end > wm {
                break;
            }
            self.seal_at(start);
            n += 1;
        }
        n
    }

    fn seal_at(&mut self, start: Timestamp) {
        let t0 = Instant::now();
        let Some(mut ws) = self.windows.remove(&start) else {
            return;
        };
        let (patterns, fetched) = ws.refresh(&self.miner(), self.universe, self.seed, true);
        // Batch-equivalent extraction accounting over the final fetched
        // set (a retraction fallback can leave extra loaded entities whose
        // types the final expansion never mentioned — they contribute
        // nothing, exactly as if batch never fetched them).
        let loadset = &ws.tables[&fetched].entities;
        let mut stats = ws.stats;
        stats.entities_processed = 0;
        stats.actions_extracted = 0;
        stats.reduced_actions = 0;
        let mut degraded = DegradedCoverage::default();
        for (&e, c) in &ws.contrib {
            if !loadset.contains(&e) {
                continue;
            }
            stats.entities_processed += 1;
            stats.actions_extracted += c.actions_extracted;
            stats.reduced_actions += c.reduced_actions;
            degraded.parse_issues += c.parse_issues;
        }
        for (&e, err) in &ws.losses {
            if loadset.contains(&e) {
                degraded.record_loss(e, *err);
            }
        }
        degraded.normalize();
        degraded.denominator_affected = degraded
            .lost
            .iter()
            .any(|l| self.universe.entity_has_type(l.entity, self.seed));

        stats.windows_sealed += 1;
        stats.stream_lag_us += t0.elapsed().as_micros() as u64;

        self.sealed_high = self.sealed_high.max(ws.window.end);
        self.stats.absorb(&stats);
        self.sealed.push(WindowResult {
            window: ws.window,
            seed: self.seed,
            taxonomy: Some(Arc::clone(&self.taxonomy)),
            patterns,
            stats,
            degraded,
        });
    }
}

/// Assembles sealed streamed windows into a batch-shaped [`WcResult`] —
/// the single-iteration analogue of `find_windows_and_patterns`, with the
/// same assembly: first discovery per pattern wins, then the cross-window
/// most-specific filter (under the taxonomy the streamed windows carry),
/// sorted by descending frequency.
pub fn wc_result_from_sealed(
    sealed: &[WindowResult],
    seed: TypeId,
    width: u64,
    tau: f64,
    late_revisions: u64,
) -> WcResult {
    let mut discovered = Discoveries::default();
    discovered.degraded.late_revisions = late_revisions;
    discovered.absorb(sealed, width, tau);
    let taxonomy = sealed.iter().find_map(|r| r.taxonomy.as_deref());
    WcResult {
        seed,
        discovered: discovered.most_specific(taxonomy),
        iterations: 1,
        final_width: width,
        final_tau: tau,
        stats: discovered.stats,
        window_results: sealed.to_vec(),
        degraded: discovered.degraded,
        failed_windows: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JoinImpl;
    use crate::interner::PatternId;
    use crate::pattern::Pattern;
    use crate::testutil::{events_of, soccer_fixture, work_counters, Fixture};
    use wiclean_revstore::VecFeed;

    #[test]
    #[should_panic(expected = "stream window width must be at least 1 second")]
    fn zero_width_is_refused_up_front() {
        let fx = crate::testutil::soccer_fixture();
        StreamMiner::new(&fx.universe, fx.player_ty, fx.stream_config(0, 1));
    }

    /// Streamed and batch results must agree on everything observable:
    /// patterns, flags, supports, frequencies, relative patterns, and
    /// realization tables up to row order.
    fn assert_equivalent(streamed: &WindowResult, batch: &WindowResult) {
        assert_eq!(streamed.window, batch.window);
        assert_eq!(
            streamed.patterns.len(),
            batch.patterns.len(),
            "pattern count diverged in {}: streamed {:?} vs batch {:?}",
            streamed.window,
            streamed
                .patterns
                .iter()
                .map(|p| &p.pattern)
                .collect::<Vec<_>>(),
            batch
                .patterns
                .iter()
                .map(|p| &p.pattern)
                .collect::<Vec<_>>(),
        );
        for (s, b) in streamed.patterns.iter().zip(&batch.patterns) {
            assert_eq!(s.pattern, b.pattern);
            assert_eq!(s.working.actions(), b.working.actions());
            assert_eq!(s.support, b.support, "support of {:?}", s.pattern);
            assert!((s.frequency - b.frequency).abs() < 1e-12);
            assert_eq!(s.most_specific, b.most_specific);
            assert_eq!(
                s.table.sorted_rows(),
                b.table.sorted_rows(),
                "realization table of {:?}",
                s.pattern
            );
            assert_eq!(s.rel_patterns.len(), b.rel_patterns.len());
            for (sr, br) in s.rel_patterns.iter().zip(&b.rel_patterns) {
                assert_eq!(sr.pattern, br.pattern);
                assert_eq!(sr.support, br.support);
                assert!((sr.rel_frequency - br.rel_frequency).abs() < 1e-12);
            }
        }
        assert_eq!(streamed.degraded.parse_issues, batch.degraded.parse_issues);
        assert_eq!(
            streamed.stats.entities_processed,
            batch.stats.entities_processed
        );
        assert_eq!(
            streamed.stats.actions_extracted,
            batch.stats.actions_extracted
        );
        assert_eq!(streamed.stats.reduced_actions, batch.stats.reduced_actions);
    }

    /// A miner over `config` that ingested all of `feed` and flushed.
    fn stream_all(fx: &Fixture, config: StreamConfig, mut feed: VecFeed) -> StreamMiner<'_> {
        let mut sm = StreamMiner::new(&fx.universe, fx.player_ty, config);
        sm.ingest_from(&mut feed);
        sm.flush();
        sm
    }

    /// The sealed result of the fixture's window.
    fn fixture_window<'s>(sm: &'s StreamMiner<'_>, fx: &Fixture) -> &'s WindowResult {
        sm.sealed()
            .iter()
            .find(|r| r.window == fx.window)
            .expect("fixture window sealed")
    }

    #[test]
    fn streamed_single_window_matches_batch() {
        let fx = soccer_fixture();
        let feed = VecFeed::new(events_of(&fx.store));
        let sm = stream_all(&fx, fx.stream_config(fx.window.len(), 3), feed);
        let streamed = fixture_window(&sm, &fx);

        let batch = WindowMiner::new(&fx.store, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &fx.window);
        assert_equivalent(streamed, &batch);
        assert!(
            streamed
                .patterns
                .iter()
                .any(|p| p.pattern == fx.expected_pair_pattern()),
            "planted transfer pattern survives streaming"
        );
    }

    #[test]
    fn arrival_order_and_cadence_do_not_change_sealed_output() {
        let fx = soccer_fixture();
        let events = events_of(&fx.store);
        let batch = WindowMiner::new(&fx.store, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &fx.window);
        let mut in_order = events.clone();
        in_order.sort_by_key(|e| e.time);
        let runs: [(VecFeed, u64, bool); 4] = [
            // Chronological arrival at per-event cadence: the pair pattern
            // is accepted mid-stream (once the fourth transfer completes)
            // and later arrivals MUST flow through the delta-join path.
            (VecFeed::new(in_order), 1, true),
            (VecFeed::shuffled(events.clone(), 7), 1, false),
            (VecFeed::shuffled(events.clone(), 13), 3, false),
            (VecFeed::shuffled(events.clone(), 99), 8, false),
        ];
        for (feed, cadence, must_delta) in runs {
            let sm = stream_all(&fx, fx.stream_config(fx.window.len(), cadence), feed);
            let streamed = fixture_window(&sm, &fx);
            assert_equivalent(streamed, &batch);
            if must_delta {
                assert!(
                    streamed.stats.delta_rows_joined > 0,
                    "chronological per-event cadence must exercise the delta-join path"
                );
            }
        }
    }

    #[test]
    fn nested_loop_config_streams_with_the_nested_loop() {
        let fx = soccer_fixture();
        let mut config = fx.stream_config(fx.window.len(), 1);
        config.miner.join_impl = JoinImpl::NestedLoop;
        let miner_config = config.miner;
        let mut in_order = events_of(&fx.store);
        in_order.sort_by_key(|e| e.time);
        let sm = stream_all(&fx, config, VecFeed::new(in_order));
        let streamed = fixture_window(&sm, &fx);

        let batch = WindowMiner::new(&fx.store, &fx.universe, miner_config)
            .mine_window(fx.player_ty, &fx.window);
        assert_equivalent(streamed, &batch);
        let s = &streamed.stats;
        assert!(s.delta_rows_joined > 0, "the delta path ran");
        assert_eq!(s.plan_picks_hash, 0, "no hash pair stage under NestedLoop");
        assert!(
            s.plan_picks_nested >= s.joins_executed && s.joins_executed > 0,
            "every stream join counts as nested: {s:?}"
        );
    }

    /// The fixture window with every event ingested and no refresh run
    /// yet, taken out of its miner (which lends the window miner).
    fn unrefreshed_window(fx: &Fixture) -> (StreamMiner<'_>, WindowState) {
        let mut sm = StreamMiner::new(
            &fx.universe,
            fx.player_ty,
            fx.stream_config(fx.window.len(), u64::MAX),
        );
        sm.ingest_from(&mut VecFeed::new(events_of(&fx.store)));
        let ws = sm
            .windows
            .remove(&fx.window.start)
            .expect("fixture window open");
        (sm, ws)
    }

    #[test]
    fn refresh_without_arrivals_is_served_from_the_memo() {
        let fx = soccer_fixture();
        let (sm, mut ws) = unrefreshed_window(&fx);
        let miner = sm.miner();
        ws.refresh(&miner, &fx.universe, fx.player_ty, false);
        let first = ws.stats.clone();
        let evaluated = first.cache_hits + first.cache_misses;
        assert!(
            first.joins_executed > 0,
            "the first refresh joins: {first:?}"
        );
        assert!(!ws.memo.entries.is_empty());

        ws.refresh(&miner, &fx.universe, fx.player_ty, false);
        let second = &ws.stats;
        assert_eq!(second.joins_executed, first.joins_executed, "no join ran");
        assert_eq!(second.cache_misses, first.cache_misses);
        assert_eq!(
            second.cache_hits - first.cache_hits,
            evaluated,
            "every candidate the first refresh evaluated is a memo hit"
        );
        assert_eq!(second.rows_probed, first.rows_probed);
        assert_eq!(second.delta_rows_joined, first.delta_rows_joined);
    }

    #[test]
    fn fallback_empties_the_memo_and_rejoins_like_a_fresh_window() {
        let fx = soccer_fixture();
        let (fresh_sm, mut fresh) = unrefreshed_window(&fx);
        fresh.refresh(&fresh_sm.miner(), &fx.universe, fx.player_ty, false);
        let fresh_joins = fresh.stats.joins_executed;
        assert!(fresh_joins > 0);

        let (sm, mut ws) = unrefreshed_window(&fx);
        let miner = sm.miner();
        ws.refresh(&miner, &fx.universe, fx.player_ty, false);
        assert!(!ws.memo.entries.is_empty());
        ws.rebuild_from_contributions();
        assert!(ws.memo.entries.is_empty(), "the fallback drops every memo");
        let before = ws.stats.joins_executed;
        ws.refresh(&miner, &fx.universe, fx.player_ty, false);
        assert_eq!(ws.stats.joins_executed - before, fresh_joins);
    }

    #[test]
    fn multi_window_stream_seals_each_window_like_batch() {
        let fx = soccer_fixture();
        // Fixture edits land in t ∈ [20, 63]: width 50 puts the four full
        // transfers in [10, 60) and the partial fifth in [60, 110).
        let width = 50;
        let feed = VecFeed::shuffled(events_of(&fx.store), 5);
        let sm = stream_all(&fx, fx.stream_config(width, 2), feed);

        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        for streamed in sm.sealed() {
            let batch = miner.mine_window(fx.player_ty, &streamed.window);
            assert_equivalent(streamed, &batch);
        }
        assert!(sm.stats().windows_sealed >= 2, "both halves sealed");
        let pinned = [96, 34, 38, 34, 4, 30, 136, 16, 34, 0, 0, 8, 1];
        assert_eq!(work_counters(sm.stats()), pinned);
    }

    #[test]
    fn watermark_seals_before_flush_and_late_events_are_counted() {
        let fx = soccer_fixture();
        let width = 50;
        let mut sm = StreamMiner::new(&fx.universe, fx.player_ty, fx.stream_config(width, 4));
        // Chronological feed; a final quiet edit at t = 70 pushes the
        // watermark (grace 1) past the first window's end at 60, which
        // must seal it without any flush.
        let mut events = events_of(&fx.store);
        events.sort_by_key(|e| e.time);
        let last = events.last().expect("fixture has events").clone();
        for e in &events {
            sm.ingest(e);
        }
        assert_eq!(sm.stats().windows_sealed, 0, "watermark still behind");
        sm.ingest(&FeedEvent {
            entity: last.entity,
            time: 70,
            text: last.text.clone(),
        });
        assert!(
            sm.stats().windows_sealed >= 1,
            "watermark must seal the first window mid-stream"
        );
        let sealed_before = sm.sealed().len();

        // A revision for the sealed window arrives now: late, counted,
        // and the sealed output is untouched.
        let first = sm.sealed()[0].window;
        let late = FeedEvent {
            entity: events[0].entity,
            time: first.start,
            text: "late straggler".into(),
        };
        assert_eq!(sm.ingest(&late), 0);
        assert_eq!(sm.late_revisions(), 1);
        assert_eq!(sm.sealed().len(), sealed_before);

        let result = sm.into_result();
        assert_eq!(result.degraded.late_revisions, 1);
        assert_eq!(result.iterations, 1);
        assert!(!result.discovered.is_empty());
        assert!(result.stats.windows_sealed >= 2);
    }

    #[test]
    fn retraction_falls_back_to_full_remine_and_stays_correct() {
        let fx = soccer_fixture();
        // Replay the fixture, then have one player retract its transfer:
        // a revision that removes the link added earlier in the window.
        // Reduction cancels the add, shrinking the entity's contribution —
        // the append-only delta invariant breaks and the window must
        // rebuild, still sealing to the batch answer.
        let (events, batch_store) = fx.retraction_feed();
        let sm = stream_all(
            &fx,
            fx.stream_config(fx.window.len(), 1),
            VecFeed::new(events),
        );
        let streamed = fixture_window(&sm, &fx);
        assert!(
            streamed.stats.full_remine_fallbacks > 0,
            "retracted contribution must trigger the fallback"
        );
        let batch = WindowMiner::new(&batch_store, &fx.universe, fx.config())
            .mine_window(fx.player_ty, &fx.window);
        assert_equivalent(streamed, &batch);
        // A retraction-fallback round: two pair stages (101 picks for 97
        // joins) wherever a delta join lifts a pruned candidate over τ, and
        // both count the rows they probe.
        let pinned = [185, 97, 34, 97, 9, 88, 292, 59, 101, 44, 1, 4, 1];
        assert_eq!(work_counters(sm.stats()), pinned);
    }

    /// Every memo's generation, by pattern id.
    fn memo_gens(memo: &WindowMemo) -> HashMap<PatternId, u64> {
        let gens = memo
            .entries
            .iter()
            .map(|(&id, m)| (id, m.growth.as_ref().map_or(0, |g| g.gen)));
        gens.collect()
    }

    /// Feeds `events` to a miner over the fixture that never refreshes on
    /// its own, and refreshes the fixture window by hand after every
    /// arrival that finds it open; `check` sees the window after each
    /// refresh, with the refresh's final stage, and its counters and memo
    /// generations from before it.
    fn refresh_each_arrival(
        fx: &Fixture,
        events: &[FeedEvent],
        mut check: impl FnMut(&WindowState, &BTreeSet<TypeId>, &MineStats, &HashMap<PatternId, u64>),
    ) {
        let config = fx.stream_config(fx.window.len(), u64::MAX);
        let mut sm = StreamMiner::new(&fx.universe, fx.player_ty, config);
        for e in events {
            sm.ingest(e);
            let Some(mut ws) = sm.windows.remove(&fx.window.start) else {
                continue;
            };
            let (stats, gens) = (ws.stats.clone(), memo_gens(&ws.memo));
            let (_, last) = ws.refresh(&sm.miner(), &fx.universe, fx.player_ty, false);
            check(&ws, &last, &stats, &gens);
            sm.windows.insert(fx.window.start, ws);
        }
    }

    /// Each stage's folded tables equal a fresh fold of the stamped rows
    /// up to their cursors, filtered to the stage's entities; every join
    /// index covers its whole table; and the `last` stage a refresh
    /// visited has folded every stamped row.
    fn assert_folded_tables_fresh(fx: &Fixture, ws: &WindowState, last: &BTreeSet<TypeId>) {
        for (fetched, stage) in &ws.tables {
            let entities = entities_of(&fx.universe, fetched);
            assert_eq!(stage.entities, entities);
            if fetched == last {
                assert_eq!(stage.tables.len(), ws.rows.len(), "one table per shape");
            }
            for (shape, folded) in &stage.tables {
                let stamped = &ws.rows[shape];
                let admitted: Vec<(EntityId, EntityId)> = stamped[..folded.rows_folded]
                    .iter()
                    .filter(|(src, _)| entities.contains(src))
                    .map(|&(_, pair)| pair)
                    .collect();
                let fresh = action_realizations(&folded.action, &admitted, &fx.universe);
                assert_eq!(*folded.table, fresh, "{shape:?} at stage {fetched:?}");
                assert_eq!(folded.admitted, !admitted.is_empty());
                for (_, index) in &folded.indexes.0 {
                    assert_eq!(index.end(), folded.table.len(), "index of {shape:?}");
                }
                if fetched == last {
                    assert_eq!(
                        folded.rows_folded,
                        stamped.len(),
                        "the last stage is current"
                    );
                }
            }
        }
        for m in ws.memo.entries.values() {
            let (Some(table), Some(g)) = (&m.table, &m.growth) else {
                continue;
            };
            for (_, index) in &g.indexes.0 {
                assert_eq!(index.end(), table.len(), "a memo's index covers its table");
            }
        }
    }

    #[test]
    fn folded_tables_equal_a_fresh_fold_after_every_refresh() {
        let fx = soccer_fixture();
        // The retraction at the end makes its refresh fall back.
        let (events, _) = fx.retraction_feed();
        let (mut indexed, mut fallbacks) = (false, 0);
        refresh_each_arrival(&fx, &events, |ws, last, _, _| {
            assert_folded_tables_fresh(&fx, ws, last);
            indexed |= ws
                .tables
                .values()
                .any(|s| s.tables.values().any(|f| !f.indexes.0.is_empty()));
            fallbacks = ws.stats.full_remine_fallbacks;
        });
        assert!(indexed, "some delta join probed a folded table's index");
        assert_eq!(fallbacks, 1, "the retraction's refresh fell back");

        // And after a fallback run by hand.
        let (sm, mut ws) = unrefreshed_window(&fx);
        let miner = sm.miner();
        ws.refresh(&miner, &fx.universe, fx.player_ty, false);
        ws.rebuild_from_contributions();
        assert!(ws.tables.is_empty(), "the fallback resets every cursor");
        let (_, last) = ws.refresh(&miner, &fx.universe, fx.player_ty, false);
        assert_folded_tables_fresh(&fx, &ws, &last);
        assert_eq!(ws.stats.full_remine_fallbacks, 1);
    }

    #[test]
    fn delta_refreshes_probe_only_the_appended_rows() {
        let fx = soccer_fixture();
        let mut events = events_of(&fx.store);
        events.sort_by_key(|e| e.time);
        let mut delta_only = 0;
        refresh_each_arrival(&fx, &events, |ws, _, before, gens| {
            // No memo was added or rebuilt: every evaluation was a memo
            // hit or a delta join.
            if memo_gens(&ws.memo) != *gens
                || ws.stats.delta_rows_joined == before.delta_rows_joined
            {
                return;
            }
            delta_only += 1;
            assert_eq!(
                ws.stats.rows_probed - before.rows_probed,
                (ws.stats.delta_rows_joined - before.delta_rows_joined) as usize,
                "a hash delta join probes its appended rows and no others"
            );
        });
        assert!(delta_only > 0, "some refresh was served by deltas alone");
    }

    #[test]
    fn preprocess_plus_mine_accounts_for_ingest_and_flush() {
        // The streaming twin of the batch miner's timer test: extraction
        // (type loads and dirty re-extraction) is preprocessing and the
        // rest of a refresh or seal is mining, so the sealed windows' two
        // clocks add up to at most the wall time of ingest plus flush.
        // Pages padded with prose make extraction most of that time, so a
        // type load counted by both clocks overshoots the wall, most of all
        // when windows refresh only at their seal. Recording arrivals in
        // the store is in neither clock and slows down under a loaded
        // host, so coverage has a loose floor: the best of three attempts
        // must account for at least half the run.
        let fx = soccer_fixture();
        let pad: String = (0..2000)
            .map(|i| format!("Prose line {i} of the page history.\n"))
            .collect();
        let mut events = events_of(&fx.store);
        events.sort_by_key(|e| e.time);
        for e in &mut events {
            e.text = format!("{pad}{}", e.text);
        }
        for cadence in [u64::MAX, 1] {
            let mut shares = Vec::new();
            for _ in 0..3 {
                let mut sm = StreamMiner::new(
                    &fx.universe,
                    fx.player_ty,
                    fx.stream_config(fx.window.len(), cadence),
                );
                let t0 = Instant::now();
                for e in &events {
                    sm.ingest(e);
                }
                sm.flush();
                let wall = t0.elapsed();
                let accounted = sm.stats().preprocess + sm.stats().mine;
                assert!(
                    accounted <= wall,
                    "cadence {cadence}: {accounted:?} accounted of {wall:?}"
                );
                shares.push(accounted.as_secs_f64() / wall.as_secs_f64());
            }
            assert!(
                shares.iter().any(|&s| s >= 0.5),
                "cadence {cadence}: preprocess + mine cover only {shares:?} of the run"
            );
        }
    }

    #[test]
    fn wc_result_assembly_drops_what_another_window_specializes() {
        let fx = soccer_fixture();
        let feed = VecFeed::new(events_of(&fx.store));
        let sm = stream_all(&fx, fx.stream_config(fx.window.len(), 2), feed);
        let specific = fixture_window(&sm, &fx).clone();
        // An earlier window whose one most specific pattern generalizes the
        // fixture window's transfer pattern.
        let transfer = fx.expected_pair_pattern();
        let tax = fx.universe.taxonomy();
        let mut general = specific.clone();
        general.window = Window::new(0, fx.window.start);
        let generalization = general
            .patterns
            .iter()
            .map(|p| p.pattern.clone())
            .find(|p| transfer.more_specific_than(p, tax))
            .expect("a generalization of the transfer pattern was mined");
        for p in &mut general.patterns {
            p.most_specific = p.pattern == generalization;
        }

        let width = fx.window.len();
        let result = wc_result_from_sealed(&[general, specific], fx.player_ty, width, 0.8, 0);
        let found: Vec<&Pattern> = result.discovered.iter().map(|d| &d.pattern).collect();
        assert!(found.contains(&&transfer));
        assert!(
            !found.contains(&&generalization),
            "a pattern another window specializes survived: {found:?}"
        );
    }

    #[test]
    fn wc_result_assembly_carries_stream_counters() {
        let fx = soccer_fixture();
        let mut sm = StreamMiner::new(
            &fx.universe,
            fx.player_ty,
            fx.stream_config(fx.window.len(), 2),
        );
        let mut feed = VecFeed::shuffled(events_of(&fx.store), 21);
        sm.ingest_from(&mut feed);
        let result = sm.into_result();
        assert_eq!(
            result.stats.windows_sealed,
            result.window_results.len() as u64
        );
        assert!(result.stats.windows_sealed >= 1);
        assert!(result
            .discovered
            .iter()
            .any(|d| d.pattern == fx.expected_pair_pattern()));
        // The report layer surfaces the counters end to end.
        let report = crate::report::WcReport::from_result(&result, &fx.universe);
        let json = report.to_json();
        assert!(json.contains("windows_sealed"));
        assert!(json.contains("delta_rows_joined"));
        assert!(json.contains("stream_lag_us"));
        assert!(json.contains("full_remine_fallbacks"));
        assert!(json.contains("late_revisions"));
    }
}
