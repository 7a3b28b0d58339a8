//! Cross-iteration realization caching.
//!
//! Algorithm 2 re-mines the same windows repeatedly while only the
//! frequency threshold changes; every candidate pattern's realization
//! table is then recomputed from scratch. The paper mentions the obvious
//! remedy: "the cashing of the computed frequencies/realization tables, to
//! be reused if the same patterns are later re-examined with different
//! thresholds". This module implements that cache.
//!
//! Correctness: a pattern's realization table depends on the set of
//! revision histories loaded when it was computed (the incremental
//! construction loads types on demand, so the same pattern examined in a
//! later round could see more rows). A cache entry therefore records the
//! *fetched-type set* at computation time and only hits when the current
//! miner state has loaded exactly the same types — guaranteeing a hit
//! returns byte-identical results to a recomputation.

use crate::interner::{PatternId, PatternInterner};
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wiclean_rel::{EntitySet, Table};
use wiclean_revstore::ActionCache;
use wiclean_types::{TypeId, Window};

/// The two mining-side caches, bundled so the parallel entry points can be
/// handed both at once. Each is optional (ablations disable them
/// independently) and `Arc`-shared: cloning the bundle clones pointers, so
/// every per-window worker and every Algorithm 2 refinement iteration sees
/// the same underlying caches.
///
/// * `realizations` — candidate realization tables, reused when the same
///   pattern is re-examined under a different threshold
///   ([`RealizationCache`]).
/// * `actions` — per-entity preprocessing outcomes (parse → diff →
///   extract), reused across iterations and *composed* when a widened
///   window tiles exactly from cached sub-windows
///   ([`wiclean_revstore::ActionCache`]).
///
/// The bundle also carries the [`PatternInterner`] that issues the
/// [`PatternId`]s keying `realizations`. It is *always* present: ids are
/// only meaningful relative to their interner, so every miner sharing the
/// realization cache must share this interner too — attaching the bundle
/// via [`crate::miner::WindowMiner::with_caches`] keeps the pairing intact.
#[derive(Clone)]
pub struct MiningCaches {
    /// Shared candidate realization-table cache, if enabled.
    pub realizations: Option<Arc<RealizationCache>>,
    /// Shared preprocessing (action-extraction) cache, if enabled.
    pub actions: Option<Arc<ActionCache>>,
    /// Pattern interner issuing the ids that key `realizations`.
    pub patterns: Arc<PatternInterner>,
}

impl Default for MiningCaches {
    fn default() -> Self {
        Self {
            realizations: None,
            actions: None,
            patterns: Arc::new(PatternInterner::new()),
        }
    }
}

impl MiningCaches {
    /// An empty bundle (no caching) — what the plain entry points use.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds the bundle a [`crate::config::WcConfig`] asks for.
    pub fn from_config(config: &crate::config::WcConfig) -> Self {
        Self {
            realizations: config.use_cache.then(|| Arc::new(RealizationCache::new())),
            actions: config
                .use_action_cache
                .then(|| Arc::new(ActionCache::new())),
            patterns: Arc::new(PatternInterner::new()),
        }
    }
}

/// Key: the mined window plus the candidate's interned canonical pattern.
/// Ids are O(1) to hash/compare, so lookups no longer walk action lists.
type CacheKey = (Window, PatternId);

struct CacheEntry {
    fetched: BTreeSet<TypeId>,
    /// `None` for candidates the distinct-source fast path pruned without
    /// materializing: support and frequency are known, the table is not. A
    /// later, lower threshold that accepts the candidate recomputes (and
    /// re-stores) the table; everything rejected again stays table-free.
    table: Option<Table>,
    support: usize,
    freq: f64,
    /// Absorb state for streamed candidates (see [`AbsorbEntry`]); `None`
    /// for entries stored through the batch [`RealizationCache::put`].
    absorb: Option<AbsorbState>,
}

/// The part of an absorbable entry that batch entries don't carry.
struct AbsorbState {
    left_len: usize,
    right_len: usize,
    distinct: EntitySet,
}

/// A streamed candidate's cache entry: the batch fields plus the state
/// that lets the entry **absorb appended rows** instead of being
/// invalidated when its window's tables grow. `left_len`/`right_len`
/// record the input-table lengths the entry was last computed at — when a
/// refresh sees longer tables it delta-joins only the appended rows,
/// unions the new matches into `distinct`, and re-derives support from
/// it (monotone under appends, so the counter never has to rescan).
#[derive(Clone)]
pub struct AbsorbEntry {
    /// Materialized realization table (`None` while the candidate is
    /// pruned; a later acceptance re-joins from scratch, as in batch).
    pub table: Option<Table>,
    /// Distinct seed entities realizing the candidate.
    pub support: usize,
    /// Frequency w.r.t. the seed type.
    pub freq: f64,
    /// Parent (left) table length when last computed.
    pub left_len: usize,
    /// Action (right) table length when last computed.
    pub right_len: usize,
    /// Distinct non-null source values over all pairs matched so far.
    pub distinct: EntitySet,
}

/// Shared, thread-safe cache of candidate realization tables.
#[derive(Default)]
pub struct RealizationCache {
    inner: RwLock<HashMap<CacheKey, CacheEntry>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl RealizationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a candidate computed under the same fetched-type set. The
    /// table is `None` when the candidate was pruned without materializing
    /// (support and frequency are still authoritative).
    pub fn get(
        &self,
        window: &Window,
        pattern: PatternId,
        fetched: &BTreeSet<TypeId>,
    ) -> Option<(Option<Table>, usize, f64)> {
        let guard = self.inner.read();
        match guard.get(&(*window, pattern)) {
            Some(entry) if entry.fetched == *fetched => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((entry.table.clone(), entry.support, entry.freq))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a computed candidate (kept even when it failed the current
    /// threshold — a later, lower threshold re-examines it for free). Pass
    /// `table: None` for fast-path-pruned candidates whose table was never
    /// materialized.
    pub fn put(
        &self,
        window: &Window,
        pattern: PatternId,
        fetched: &BTreeSet<TypeId>,
        table: Option<&Table>,
        support: usize,
        freq: f64,
    ) {
        self.inner.write().insert(
            (*window, pattern),
            CacheEntry {
                fetched: fetched.clone(),
                table: table.cloned(),
                support,
                freq,
                absorb: None,
            },
        );
    }

    /// Looks up an absorbable entry (stored by
    /// [`RealizationCache::put_absorbable`]) under the same fetched-type
    /// set. Entries stored by the batch [`RealizationCache::put`] never
    /// hit here — they carry no absorb state.
    ///
    /// The fetched-set guard alone is **not** enough for streaming (the
    /// same types can gain rows between refreshes), which is why a
    /// streaming miner must own its cache exclusively and compare the
    /// returned `left_len`/`right_len` against the live tables before
    /// trusting the entry as-is.
    pub fn get_absorbable(
        &self,
        window: &Window,
        pattern: PatternId,
        fetched: &BTreeSet<TypeId>,
    ) -> Option<AbsorbEntry> {
        let guard = self.inner.read();
        match guard.get(&(*window, pattern)) {
            Some(entry) if entry.fetched == *fetched => {
                let absorb = entry.absorb.as_ref()?;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(AbsorbEntry {
                    table: entry.table.clone(),
                    support: entry.support,
                    freq: entry.freq,
                    left_len: absorb.left_len,
                    right_len: absorb.right_len,
                    distinct: absorb.distinct.clone(),
                })
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores (or replaces) an absorbable entry.
    pub fn put_absorbable(
        &self,
        window: &Window,
        pattern: PatternId,
        fetched: &BTreeSet<TypeId>,
        entry: AbsorbEntry,
    ) {
        self.inner.write().insert(
            (*window, pattern),
            CacheEntry {
                fetched: fetched.clone(),
                table: entry.table,
                support: entry.support,
                freq: entry.freq,
                absorb: Some(AbsorbState {
                    left_len: entry.left_len,
                    right_len: entry.right_len,
                    distinct: entry.distinct,
                }),
            },
        );
    }

    /// Drops every entry of `window` (a streamed window that just sealed
    /// no longer refreshes — its entries are dead weight); returns how
    /// many were dropped.
    pub fn invalidate_window(&self, window: &Window) -> usize {
        let mut guard = self.inner.write();
        let before = guard.len();
        guard.retain(|(w, _), _| w != window);
        before - guard.len()
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached candidates.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_action::AbstractAction;
    use crate::pattern::Pattern;
    use crate::var::Var;
    use wiclean_rel::Schema;
    use wiclean_types::RelId;
    use wiclean_wikitext::EditOp;

    fn pattern_id(interner: &PatternInterner) -> PatternId {
        interner.intern(&Pattern::canonical_from(&[AbstractAction::new(
            EditOp::Add,
            Var::new(TypeId::from_u32(1), 0),
            RelId::from_u32(0),
            Var::new(TypeId::from_u32(2), 0),
        )]))
    }

    fn fetched(tys: &[u32]) -> BTreeSet<TypeId> {
        tys.iter().map(|&t| TypeId::from_u32(t)).collect()
    }

    #[test]
    fn hit_requires_same_window_pattern_and_fetched_set() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let w = Window::new(0, 10);
        let p = pattern_id(&interner);
        let t = Table::new(Schema::new(["a", "b"]));
        cache.put(&w, p, &fetched(&[1, 2]), Some(&t), 3, 0.5);

        assert!(cache.get(&w, p, &fetched(&[1, 2])).is_some());
        assert!(
            cache.get(&w, p, &fetched(&[1, 2, 3])).is_none(),
            "different fetched set must miss"
        );
        assert!(
            cache
                .get(&Window::new(0, 20), p, &fetched(&[1, 2]))
                .is_none(),
            "different window must miss"
        );
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cached_values_round_trip() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let w = Window::new(5, 15);
        let p = pattern_id(&interner);
        let mut t = Table::new(Schema::new(["x"]));
        t.push_row(&[Some(wiclean_types::EntityId::from_u32(7))]);
        cache.put(&w, p, &fetched(&[1]), Some(&t), 1, 0.25);
        let (table, support, freq) = cache.get(&w, p, &fetched(&[1])).unwrap();
        assert_eq!(table.expect("materialized entry").len(), 1);
        assert_eq!(support, 1);
        assert!((freq - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pruned_entries_round_trip_without_table() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let w = Window::new(0, 10);
        let p = pattern_id(&interner);
        cache.put(&w, p, &fetched(&[1]), None, 4, 0.1);
        let (table, support, freq) = cache.get(&w, p, &fetched(&[1])).unwrap();
        assert!(table.is_none(), "pruned entry carries no table");
        assert_eq!(support, 4);
        assert!((freq - 0.1).abs() < 1e-12);

        // A later accepted recomputation upgrades the entry in place.
        let t = Table::new(Schema::new(["x"]));
        cache.put(&w, p, &fetched(&[1]), Some(&t), 4, 0.1);
        let (table, _, _) = cache.get(&w, p, &fetched(&[1])).unwrap();
        assert!(table.is_some());
        assert_eq!(cache.len(), 1);
    }

    fn absorb_entry(left_len: usize, right_len: usize) -> AbsorbEntry {
        let mut distinct = EntitySet::default();
        distinct.insert(wiclean_types::EntityId::from_u32(9));
        AbsorbEntry {
            table: Some(Table::new(Schema::new(["x"]))),
            support: 1,
            freq: 0.5,
            left_len,
            right_len,
            distinct,
        }
    }

    #[test]
    fn absorbable_entries_round_trip_with_lengths() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let w = Window::new(0, 10);
        let p = pattern_id(&interner);
        cache.put_absorbable(&w, p, &fetched(&[1]), absorb_entry(7, 3));
        let got = cache.get_absorbable(&w, p, &fetched(&[1])).unwrap();
        assert_eq!((got.left_len, got.right_len), (7, 3));
        assert_eq!(got.distinct.len(), 1);
        assert!(got.table.is_some());
        // The batch accessor still sees the scalar fields.
        let (_, support, freq) = cache.get(&w, p, &fetched(&[1])).unwrap();
        assert_eq!(support, 1);
        assert!((freq - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batch_entries_never_hit_the_absorbable_path() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let w = Window::new(0, 10);
        let p = pattern_id(&interner);
        let t = Table::new(Schema::new(["x"]));
        cache.put(&w, p, &fetched(&[1]), Some(&t), 2, 0.4);
        assert!(
            cache.get_absorbable(&w, p, &fetched(&[1])).is_none(),
            "batch entry carries no absorb state"
        );
    }

    #[test]
    fn absorbable_hit_requires_same_fetched_set() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let w = Window::new(0, 10);
        let p = pattern_id(&interner);
        cache.put_absorbable(&w, p, &fetched(&[1]), absorb_entry(1, 1));
        assert!(cache.get_absorbable(&w, p, &fetched(&[1, 2])).is_none());
    }

    #[test]
    fn invalidate_window_drops_only_that_window() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let p = pattern_id(&interner);
        let (w1, w2) = (Window::new(0, 10), Window::new(10, 20));
        cache.put_absorbable(&w1, p, &fetched(&[1]), absorb_entry(1, 1));
        cache.put_absorbable(&w2, p, &fetched(&[1]), absorb_entry(2, 2));
        assert_eq!(cache.invalidate_window(&w1), 1);
        assert!(cache.get_absorbable(&w1, p, &fetched(&[1])).is_none());
        assert!(cache.get_absorbable(&w2, p, &fetched(&[1])).is_some());
        assert_eq!(cache.len(), 1);
    }
}
