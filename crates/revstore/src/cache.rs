//! The shared preprocessing cache: memoized parse→diff→reduce-ready
//! extraction outcomes, keyed by `(entity, revision-log version, window)`.
//!
//! Preprocessing — crawling a page history, parsing every snapshot, and
//! diffing consecutive snapshots into actions — dominates the paper's
//! Figure 4 runtime bars. Algorithm 2 re-runs it constantly: every
//! refinement iteration re-extracts the same entities, either over the
//! *same* windows (threshold-only steps) or over *widened* windows whose
//! action sets are exact concatenations of the previous iteration's.
//! [`ActionCache`] removes that redundancy:
//!
//! * **Direct hits** — a `(entity, version, window)` extraction is computed
//!   once and shared; parallel per-window miners and Algorithm 2 iterations
//!   all consult the same cache behind a `parking_lot` lock.
//! * **Composition** — windows are half-open and consecutive, so
//!   `actions([a, c)) = actions([a, b)) ++ actions([b, c))` exactly: each
//!   revision is diffed against its predecessor, and `[b, c)`'s base
//!   snapshot *is* `[a, b)`'s last pre-`b` revision. A widened window is
//!   therefore assembled from cached sub-window outcomes without touching
//!   raw wikitext again. Parse-issue counters compose by subtracting each
//!   non-first part's [`ExtractOutcome::base_parse_issues`] (its base
//!   snapshot was already counted by the part before it).
//! * **Invalidation** — keys embed [`FetchSource::history_version`], which
//!   bumps when (and only when) a revision is recorded for that entity.
//!   Appending to one entity's history invalidates exactly that entity's
//!   cached extractions; every other entry stays valid and hittable.
//!
//! Only `Ok` outcomes are cached. Errors are never stored, so a retried
//! fetch that eventually succeeds (e.g. through a
//! [`crate::ResilientFetcher`]) is parsed once and served from the cache
//! thereafter — and a deterministic per-entity fault (gone, garbled text)
//! keeps cached and uncached runs byte-identical.

use crate::extract::{try_extract_actions, ExtractOutcome};
use crate::fetch::{FetchError, FetchSource};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wiclean_types::{EntityId, Timestamp, Universe, Window};

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// The exact `(entity, version, window)` entry was present.
    Hit,
    /// The window was assembled from cached sub-window outcomes; no
    /// wikitext was parsed or diffed.
    Composed,
    /// Nothing usable was cached; the extraction ran from raw text.
    Miss,
}

/// Counter snapshot of an [`ActionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionCacheStats {
    /// Exact-entry hits.
    pub hits: u64,
    /// Windows served by composing cached sub-windows.
    pub composed: u64,
    /// Extractions that had to run from raw text.
    pub misses: u64,
    /// Snapshot bytes parsed by cache-missing extractions.
    pub bytes_parsed: u64,
    /// Snapshot bytes the incremental parser skipped inside those
    /// extractions (identical revisions, re-used prefix/suffix lines).
    pub bytes_skipped: u64,
}

impl ActionCacheStats {
    /// Fraction of lookups that avoided re-parsing (hits + composed over
    /// all lookups); 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.composed + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.composed) as f64 / total as f64
        }
    }

    /// Fraction of snapshot bytes the incremental parser never touched,
    /// over the extractions that did run; 0 when nothing ran.
    pub fn skip_rate(&self) -> f64 {
        let total = self.bytes_parsed + self.bytes_skipped;
        if total == 0 {
            0.0
        } else {
            self.bytes_skipped as f64 / total as f64
        }
    }
}

/// Per-(entity, version) shard: outcomes keyed by `(start, end)` so the
/// composition walk can range-scan windows beginning at a timestamp.
type Shard = BTreeMap<(Timestamp, Timestamp), Arc<ExtractOutcome>>;

/// Shared, thread-safe cache of per-entity window extractions.
///
/// Outcomes are stored behind [`Arc`], so a hit is a pointer clone — the
/// parallel per-window miners share one cache without copying action lists.
#[derive(Default)]
pub struct ActionCache {
    inner: RwLock<HashMap<(EntityId, u64), Shard>>,
    hits: AtomicU64,
    composed: AtomicU64,
    misses: AtomicU64,
    bytes_parsed: AtomicU64,
    bytes_skipped: AtomicU64,
}

impl ActionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts `entity`'s actions within `window`, consulting the cache
    /// first: an exact entry is returned as-is; otherwise the window is
    /// composed from cached sub-windows when they tile it exactly; only
    /// then does the extraction run from raw text (and its outcome is
    /// cached). The result is byte-identical to calling
    /// [`try_extract_actions`] directly. Errors are returned without being
    /// cached, so a later retry can still heal and populate the cache.
    pub fn extract(
        &self,
        source: &dyn FetchSource,
        universe: &Universe,
        entity: EntityId,
        window: &Window,
    ) -> Result<(Arc<ExtractOutcome>, CacheLookup), FetchError> {
        let version = source.history_version(entity);
        let key = (entity, version);
        let span = (window.start, window.end);

        if let Some(found) = self.inner.read().get(&key).and_then(|s| s.get(&span)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(found), CacheLookup::Hit));
        }

        if let Some(parts) = self.tile(key, window) {
            let outcome = Arc::new(compose(&parts));
            self.inner
                .write()
                .entry(key)
                .or_default()
                .insert(span, Arc::clone(&outcome));
            self.composed.fetch_add(1, Ordering::Relaxed);
            return Ok((outcome, CacheLookup::Composed));
        }

        let outcome = Arc::new(try_extract_actions(source, universe, entity, window)?);
        self.inner
            .write()
            .entry(key)
            .or_default()
            .insert(span, Arc::clone(&outcome));
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes_parsed
            .fetch_add(outcome.bytes_parsed, Ordering::Relaxed);
        self.bytes_skipped
            .fetch_add(outcome.bytes_skipped, Ordering::Relaxed);
        Ok((outcome, CacheLookup::Miss))
    }

    /// Greedy left-to-right walk: finds cached outcomes that tile `window`
    /// exactly (consecutive half-open sub-windows covering `[start, end)`).
    /// At each position the *widest* cached sub-window not overshooting the
    /// end is taken. Returns `None` unless the tiling is complete.
    fn tile(&self, key: (EntityId, u64), window: &Window) -> Option<Vec<Arc<ExtractOutcome>>> {
        let guard = self.inner.read();
        let shard = guard.get(&key)?;
        let mut parts = Vec::new();
        let mut at = window.start;
        while at < window.end {
            let ((_, end), outcome) = shard
                .range((at, at)..=(at, window.end))
                .next_back()
                .map(|(k, v)| (*k, Arc::clone(v)))?;
            if end <= at {
                return None; // only a degenerate empty window starts here
            }
            parts.push(outcome);
            at = end;
        }
        Some(parts)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ActionCacheStats {
        ActionCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            composed: self.composed.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_parsed: self.bytes_parsed.load(Ordering::Relaxed),
            bytes_skipped: self.bytes_skipped.load(Ordering::Relaxed),
        }
    }

    /// Number of cached `(entity, version, window)` outcomes.
    pub fn len(&self) -> usize {
        self.inner.read().values().map(BTreeMap::len).sum()
    }

    /// Whether the cache holds no outcomes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Concatenates consecutive sub-window outcomes into the outcome of their
/// union window. See the module docs for why this is exact: the action
/// lists concatenate (each revision is diffed against the same predecessor
/// either way), unresolved counters sum (each in-window edit is seen by
/// exactly one part), and parse issues sum minus each non-first part's
/// base-snapshot share (that snapshot is the previous part's last revision,
/// or a shared pre-window base, and was counted there).
fn compose(parts: &[Arc<ExtractOutcome>]) -> ExtractOutcome {
    let mut out = ExtractOutcome::default();
    for (i, part) in parts.iter().enumerate() {
        out.actions.extend(part.actions.iter().cloned());
        out.unresolved_targets += part.unresolved_targets;
        out.unresolved_relations += part.unresolved_relations;
        out.bytes_skipped += part.bytes_skipped;
        if i == 0 {
            out.parse_issues += part.parse_issues;
            out.base_parse_issues = part.base_parse_issues;
            out.bytes_parsed += part.bytes_parsed;
            out.base_bytes_parsed = part.base_bytes_parsed;
        } else {
            out.parse_issues += part.parse_issues - part.base_parse_issues;
            out.bytes_parsed += part.bytes_parsed - part.base_bytes_parsed;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::RevisionStore;
    use wiclean_types::TypeId;

    fn setup() -> (Universe, RevisionStore, EntityId) {
        let mut u = Universe::new("Thing");
        let root = TypeId::from_u32(0);
        let player = u.taxonomy_mut().add("SoccerPlayer", root).unwrap();
        let club = u.taxonomy_mut().add("SoccerClub", root).unwrap();
        u.relation("current_club");
        let neymar = u.add_entity("Neymar", player).unwrap();
        u.add_entity("Barcelona F.C.", club).unwrap();
        u.add_entity("PSG F.C.", club).unwrap();
        u.add_entity("Santos FC", club).unwrap();

        let mut s = RevisionStore::new();
        s.record(
            neymar,
            5,
            "{{Infobox p\n| current_club = [[Santos FC]]\n}}\n".into(),
        );
        s.record(
            neymar,
            30,
            "{{Infobox p\n| current_club = [[Barcelona F.C.]]\n}}\n".into(),
        );
        s.record(
            neymar,
            50,
            "{{Infobox p\n| current_club = [[PSG F.C.]]\n}}\n".into(),
        );
        (u, s, neymar)
    }

    #[test]
    fn repeated_extraction_hits() {
        let (u, s, e) = setup();
        let cache = ActionCache::new();
        let w = Window::new(10, 100);
        let (a, l1) = cache.extract(&s, &u, e, &w).unwrap();
        let (b, l2) = cache.extract(&s, &u, e, &w).unwrap();
        assert_eq!(l1, CacheLookup::Miss);
        assert_eq!(l2, CacheLookup::Hit);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the shared outcome");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.composed, stats.misses), (1, 0, 1));
    }

    #[test]
    fn composed_window_is_byte_identical_to_direct() {
        let (u, s, e) = setup();
        let cache = ActionCache::new();
        // Populate the two halves, then ask for their union.
        let (_, l1) = cache.extract(&s, &u, e, &Window::new(0, 40)).unwrap();
        let (_, l2) = cache.extract(&s, &u, e, &Window::new(40, 80)).unwrap();
        assert_eq!((l1, l2), (CacheLookup::Miss, CacheLookup::Miss));

        let (composed, lookup) = cache.extract(&s, &u, e, &Window::new(0, 80)).unwrap();
        assert_eq!(lookup, CacheLookup::Composed);
        let direct = try_extract_actions(&s, &u, e, &Window::new(0, 80)).unwrap();
        assert_eq!(composed.actions, direct.actions);
        assert_eq!(composed.parse_issues, direct.parse_issues);
        assert_eq!(composed.base_parse_issues, direct.base_parse_issues);
        assert_eq!(composed.unresolved_targets, direct.unresolved_targets);
        assert_eq!(composed.unresolved_relations, direct.unresolved_relations);
        // Byte counters compose exactly too: the non-first part's base
        // snapshot re-parse is subtracted, like its base parse issues.
        assert_eq!(composed.bytes_parsed, direct.bytes_parsed);
        assert_eq!(composed.bytes_skipped, direct.bytes_skipped);
        assert_eq!(composed.base_bytes_parsed, direct.base_bytes_parsed);

        // The composed entry itself is now cached.
        let (_, l3) = cache.extract(&s, &u, e, &Window::new(0, 80)).unwrap();
        assert_eq!(l3, CacheLookup::Hit);
    }

    #[test]
    fn partial_tiling_does_not_compose() {
        let (u, s, e) = setup();
        let cache = ActionCache::new();
        cache.extract(&s, &u, e, &Window::new(0, 40)).unwrap();
        // [40, 80) is absent: [0, 80) must fall back to a real extraction.
        let (_, lookup) = cache.extract(&s, &u, e, &Window::new(0, 80)).unwrap();
        assert_eq!(lookup, CacheLookup::Miss);
    }

    #[test]
    fn append_invalidates_exactly_that_entity() {
        let (mut u, mut s, e) = setup();
        let club = u.taxonomy().lookup("SoccerClub").unwrap();
        let other = u.add_entity("Other FC", club).unwrap();
        s.record(other, 20, "{{Infobox c\n}}\n".into());

        let cache = ActionCache::new();
        let w = Window::new(0, 100);
        cache.extract(&s, &u, e, &w).unwrap();
        cache.extract(&s, &u, other, &w).unwrap();

        // Append to `e`: its version bumps, `other`'s does not.
        s.record(
            e,
            70,
            "{{Infobox p\n| current_club = [[Santos FC]]\n}}\n".into(),
        );
        let (fresh, le) = cache.extract(&s, &u, e, &w).unwrap();
        let (_, lo) = cache.extract(&s, &u, other, &w).unwrap();
        assert_eq!(le, CacheLookup::Miss, "appended entity must recompute");
        assert_eq!(lo, CacheLookup::Hit, "untouched entity must still hit");
        let direct = try_extract_actions(&s, &u, e, &w).unwrap();
        assert_eq!(fresh.actions, direct.actions);
    }

    #[test]
    fn byte_counters_accumulate_on_misses_only() {
        let (u, s, e) = setup();
        let cache = ActionCache::new();
        let w = Window::new(0, 100);
        cache.extract(&s, &u, e, &w).unwrap();
        let after_miss = cache.stats();
        assert!(after_miss.bytes_parsed > 0, "miss must account parse work");
        assert!(after_miss.skip_rate() >= 0.0);
        // A hit does no parse work, so the byte counters must not move.
        cache.extract(&s, &u, e, &w).unwrap();
        let after_hit = cache.stats();
        assert_eq!(after_hit.bytes_parsed, after_miss.bytes_parsed);
        assert_eq!(after_hit.bytes_skipped, after_miss.bytes_skipped);
    }

    #[test]
    fn errors_are_not_cached() {
        use crate::fault::{FaultPlan, FaultyStore};
        let (u, s, e) = setup();
        let cache = ActionCache::new();
        let w = Window::new(0, 100);
        // Every attempt fails transiently; nothing must be cached.
        let flaky = FaultyStore::new(&s, FaultPlan::transient_only(1.0, 9));
        assert!(cache.extract(&flaky, &u, e, &w).is_err());
        assert!(cache.is_empty());
        // A healthy source then computes and caches normally.
        let (_, lookup) = cache.extract(&s, &u, e, &w).unwrap();
        assert_eq!(lookup, CacheLookup::Miss);
        assert_eq!(cache.len(), 1);
    }
}
