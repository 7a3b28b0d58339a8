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
//! miner state has loaded exactly the same types. A table's column order
//! follows the join order that built it, so an entry also records the
//! construction path and hands its table only to a candidate built along
//! that path — guaranteeing a hit returns byte-identical results to a
//! recomputation.
//!
//! The cache serves batch mining only. The streaming miner reuses
//! candidates for a different reason (rows appended under a fixed τ) and
//! keeps that state in a memo owned by each open window
//! ([`crate::stream`]), dropped when the window seals.

use crate::abstract_action::AbstractAction;
use crate::interner::{PatternId, PatternInterner};
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use wiclean_rel::Table;
use wiclean_revstore::ActionCache;
use wiclean_types::{TypeId, Window};

/// The two batch mining caches, bundled so the parallel entry points can
/// be handed both at once. Each is optional (ablations disable them
/// independently) and `Arc`-shared: cloning the bundle clones pointers, so
/// every per-window worker and every Algorithm 2 refinement iteration sees
/// the same underlying caches. [`crate::miner::WindowMiner::with_caches`]
/// is the one way to attach them; the streaming miner attaches a bundle
/// that holds only its interner.
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
    /// Construction path (action order) the table's columns follow.
    path: Vec<AbstractAction>,
    /// `None` for candidates the distinct-source fast path pruned without
    /// materializing: support and frequency are known, the table is not. A
    /// later, lower threshold that accepts the candidate recomputes (and
    /// re-stores) the table; everything rejected again stays table-free.
    table: Option<Table>,
    support: usize,
    freq: f64,
}

/// Shared, thread-safe cache of candidate realization tables.
#[derive(Default)]
pub struct RealizationCache {
    inner: RwLock<HashMap<CacheKey, CacheEntry>>,
}

impl RealizationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a candidate computed under the same fetched-type set. The
    /// table is `None` when the candidate was pruned without materializing,
    /// or was built along another construction `path` than the caller's;
    /// support and frequency are path-independent and still authoritative.
    pub fn get(
        &self,
        key: (Window, PatternId),
        fetched: &BTreeSet<TypeId>,
        path: &[AbstractAction],
    ) -> Option<(Option<Table>, usize, f64)> {
        let guard = self.inner.read();
        let entry = guard.get(&key)?;
        (entry.fetched == *fetched).then(|| {
            let table = entry.table.as_ref().filter(|_| entry.path == path);
            (table.cloned(), entry.support, entry.freq)
        })
    }

    /// Stores a computed candidate (kept even when it failed the current
    /// threshold — a later, lower threshold re-examines it for free). Pass
    /// `table: None` for fast-path-pruned candidates whose table was never
    /// materialized.
    pub fn put(
        &self,
        key: (Window, PatternId),
        fetched: &BTreeSet<TypeId>,
        path: &[AbstractAction],
        table: Option<&Table>,
        support: usize,
        freq: f64,
    ) {
        self.inner.write().insert(
            key,
            CacheEntry {
                fetched: fetched.clone(),
                path: path.to_vec(),
                table: table.cloned(),
                support,
                freq,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::var::Var;
    use wiclean_rel::Schema;
    use wiclean_types::RelId;
    use wiclean_wikitext::EditOp;

    /// A two-action candidate: `-(p, club, c0), +(p, club, c1)`.
    fn path() -> Vec<AbstractAction> {
        let club = |op, ix| {
            AbstractAction::new(
                op,
                Var::new(TypeId::from_u32(1), 0),
                RelId::from_u32(0),
                Var::new(TypeId::from_u32(2), ix),
            )
        };
        vec![club(EditOp::Remove, 0), club(EditOp::Add, 1)]
    }

    fn key(interner: &PatternInterner, window: Window) -> (Window, PatternId) {
        (window, interner.intern(&Pattern::canonical_from(&path())))
    }

    fn fetched(tys: &[u32]) -> BTreeSet<TypeId> {
        tys.iter().map(|&t| TypeId::from_u32(t)).collect()
    }

    #[test]
    fn hit_requires_same_window_pattern_fetched_set_and_path() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let k = key(&interner, Window::new(0, 10));
        let t = Table::new(Schema::new(["a", "b"]));
        cache.put(k, &fetched(&[1, 2]), &path(), Some(&t), 3, 0.5);

        assert!(cache.get(k, &fetched(&[1, 2]), &path()).is_some());
        assert!(
            cache.get(k, &fetched(&[1, 2, 3]), &path()).is_none(),
            "different fetched set must miss"
        );
        assert!(
            cache
                .get(
                    key(&interner, Window::new(0, 20)),
                    &fetched(&[1, 2]),
                    &path()
                )
                .is_none(),
            "different window must miss"
        );
        // The same pattern built add-first: its columns would come out in
        // another order, so the table is withheld; the counts still hold.
        let add_first: Vec<AbstractAction> = path().into_iter().rev().collect();
        let (table, support, freq) = cache.get(k, &fetched(&[1, 2]), &add_first).unwrap();
        assert!(table.is_none(), "a table built along another path");
        assert_eq!((support, freq), (3, 0.5));
    }

    #[test]
    fn cached_values_round_trip() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let k = key(&interner, Window::new(5, 15));
        let mut t = Table::new(Schema::new(["x"]));
        t.push_row(&[Some(wiclean_types::EntityId::from_u32(7))]);
        cache.put(k, &fetched(&[1]), &path(), Some(&t), 1, 0.25);
        let (table, support, freq) = cache.get(k, &fetched(&[1]), &path()).unwrap();
        assert_eq!(table.expect("materialized entry").len(), 1);
        assert_eq!(support, 1);
        assert!((freq - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pruned_entries_round_trip_without_table() {
        let interner = PatternInterner::new();
        let cache = RealizationCache::new();
        let k = key(&interner, Window::new(0, 10));
        cache.put(k, &fetched(&[1]), &path(), None, 4, 0.1);
        let (table, support, freq) = cache.get(k, &fetched(&[1]), &path()).unwrap();
        assert!(table.is_none(), "pruned entry carries no table");
        assert_eq!(support, 4);
        assert!((freq - 0.1).abs() < 1e-12);

        // A later accepted recomputation upgrades the entry in place.
        let t = Table::new(Schema::new(["x"]));
        cache.put(k, &fetched(&[1]), &path(), Some(&t), 4, 0.1);
        let (table, _, _) = cache.get(k, &fetched(&[1]), &path()).unwrap();
        assert!(table.is_some());
    }
}
