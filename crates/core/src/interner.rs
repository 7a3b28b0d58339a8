//! Pattern interning: canonical patterns as `Copy` ids.
//!
//! Algorithm 1 keys several hot maps (`found`, the window memo, the
//! per-window dedup sets) by [`Pattern`], whose `Eq`/`Hash` walk a
//! `Vec<AbstractAction>` — and obtaining a canonical pattern in the first
//! place runs the factorial `permute_groups` relabeling search. The
//! [`PatternInterner`] fixes both costs at once: canonical patterns intern to
//! a dense `Copy` [`PatternId`] (O(1) equality/hash), and a side memo keyed
//! by construction-order action lists guarantees each working pattern is
//! canonicalized **at most once per run**.
//!
//! Invariants (see DESIGN.md):
//!
//! * **Canonicalize-once** — `intern_working` runs `permute_groups` only on
//!   the first sighting of a construction-order action list; replays hit the
//!   memo.
//! * **Id stability within a run** — once assigned, a `PatternId` always
//!   resolves to the same canonical pattern for the interner's lifetime.
//! * **Ids are not cross-run stable** — assignment order depends on thread
//!   interleaving, so deterministic output must sort by the canonical
//!   [`Pattern`] *value*, never by id. Ids are keys, not ordinals.

use crate::pattern::{Pattern, WorkingPattern};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use wiclean_types::{KeyInterner, WicleanError};

/// A dense `Copy` handle for an interned canonical [`Pattern`].
///
/// Only meaningful relative to the [`PatternInterner`] that issued it; the
/// `Ord` impl orders by assignment ordinal (thread-interleaving dependent),
/// so never use it to order user-visible output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(u32);

impl PatternId {
    /// The raw dense index.
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

#[derive(Default)]
struct InternerInner {
    /// Canonical pattern → id, backed by the generic types-crate substrate.
    canon: KeyInterner<Pattern>,
    /// Construction-order action lists already canonicalized, so the
    /// factorial relabeling search runs at most once per working pattern.
    by_working: HashMap<Box<[crate::abstract_action::AbstractAction]>, PatternId>,
}

/// Thread-safe append-only interner for canonical patterns.
///
/// Shared across all windows of a run through
/// [`crate::cache::MiningCaches`], so the canonicalization memo and id space
/// amortize over the whole refinement search.
#[derive(Default)]
pub struct PatternInterner {
    inner: RwLock<InternerInner>,
    /// Number of times `permute_groups` actually ran (memo misses).
    canonicalizations: AtomicUsize,
}

impl PatternInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner holding at most `limit` distinct canonical
    /// patterns. The serving layer uses this with
    /// [`PatternInterner::try_intern_working`] to *reject* an oversized
    /// pattern set instead of aborting a resident process.
    pub fn with_limit(limit: u32) -> Self {
        Self {
            inner: RwLock::new(InternerInner {
                canon: KeyInterner::with_limit(limit),
                by_working: HashMap::new(),
            }),
            canonicalizations: AtomicUsize::new(0),
        }
    }

    /// Interns an already-canonical pattern.
    ///
    /// # Panics
    /// Panics when the id space is exhausted (batch invariant; resident
    /// callers go through [`PatternInterner::try_intern_working`]).
    pub fn intern(&self, pattern: &Pattern) -> PatternId {
        if let Some(ix) = self.inner.read().canon.get(pattern) {
            return PatternId(ix);
        }
        PatternId(self.inner.write().canon.intern(pattern.clone()))
    }

    /// Canonicalizes and interns a working pattern, memoized on its
    /// construction-order action list. Returns the id and the canonical
    /// form (cloned; patterns are a handful of actions).
    ///
    /// # Panics
    /// Panics when the id space is exhausted (batch invariant; resident
    /// callers go through [`PatternInterner::try_intern_working`]).
    pub fn intern_working(&self, wp: &WorkingPattern) -> (PatternId, Pattern) {
        self.try_intern_working(wp).expect("interner overflow")
    }

    /// Fallible form of [`PatternInterner::intern_working`]: reports an
    /// exhausted id space as [`WicleanError::InternerFull`] instead of
    /// panicking, leaving the interner unchanged.
    pub fn try_intern_working(
        &self,
        wp: &WorkingPattern,
    ) -> Result<(PatternId, Pattern), WicleanError> {
        {
            let inner = self.inner.read();
            if let Some(&id) = inner.by_working.get(wp.actions()) {
                return Ok((id, inner.canon.resolve(id.0).clone()));
            }
        }
        // Canonicalize outside any lock: this is the expensive part.
        let canonical = wp.canonical();
        self.canonicalizations.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.write();
        let id = PatternId(inner.canon.try_intern(canonical.clone())?);
        inner.by_working.insert(wp.actions().into(), id);
        Ok((id, canonical))
    }

    /// Resolves an id back to its canonical pattern.
    pub fn resolve(&self, id: PatternId) -> Pattern {
        self.inner.read().canon.resolve(id.0).clone()
    }

    /// Number of distinct canonical patterns interned.
    pub fn len(&self) -> usize {
        self.inner.read().canon.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times the factorial canonicalization actually ran (memo
    /// misses in [`Self::intern_working`]).
    pub fn canonicalizations(&self) -> usize {
        self.canonicalizations.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for PatternInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternInterner")
            .field("patterns", &self.len())
            .field("canonicalizations", &self.canonicalizations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_action::AbstractAction;
    use crate::var::Var;
    use wiclean_types::{RelId, TypeId};
    use wiclean_wikitext::EditOp;

    fn aa(op: EditOp, s: Var, rel: u32, t: Var) -> AbstractAction {
        AbstractAction::new(op, s, RelId::from_u32(rel), t)
    }

    fn wp(actions: Vec<AbstractAction>) -> WorkingPattern {
        WorkingPattern::from_actions(actions)
    }

    #[test]
    fn same_canonical_same_id() {
        let player = TypeId::from_u32(1);
        let club = TypeId::from_u32(2);
        let interner = PatternInterner::new();
        // Same pattern, club indices swapped: distinct working lists, one
        // canonical form, one id.
        let a = wp(vec![
            aa(EditOp::Add, Var::new(player, 0), 0, Var::new(club, 0)),
            aa(EditOp::Remove, Var::new(player, 0), 0, Var::new(club, 1)),
        ]);
        let b = wp(vec![
            aa(EditOp::Add, Var::new(player, 0), 0, Var::new(club, 1)),
            aa(EditOp::Remove, Var::new(player, 0), 0, Var::new(club, 0)),
        ]);
        let (ia, ca) = interner.intern_working(&a);
        let (ib, cb) = interner.intern_working(&b);
        assert_eq!(ia, ib);
        assert_eq!(ca, cb);
        assert_eq!(interner.len(), 1);
        assert_eq!(interner.resolve(ia), ca);
    }

    #[test]
    fn canonicalize_once_per_working_pattern() {
        let player = TypeId::from_u32(1);
        let club = TypeId::from_u32(2);
        let interner = PatternInterner::new();
        let w = wp(vec![aa(
            EditOp::Add,
            Var::new(player, 0),
            0,
            Var::new(club, 0),
        )]);
        for _ in 0..10 {
            interner.intern_working(&w);
        }
        assert_eq!(
            interner.canonicalizations(),
            1,
            "memo must absorb replays of the same working pattern"
        );
    }

    #[test]
    fn intern_canonical_matches_working_path() {
        let player = TypeId::from_u32(1);
        let club = TypeId::from_u32(2);
        let interner = PatternInterner::new();
        let w = wp(vec![aa(
            EditOp::Add,
            Var::new(player, 0),
            0,
            Var::new(club, 0),
        )]);
        let (id, canonical) = interner.intern_working(&w);
        assert_eq!(interner.intern(&canonical), id);
    }

    #[test]
    fn try_intern_rejects_oversized_sets_without_corruption() {
        use wiclean_types::WicleanError;
        let player = TypeId::from_u32(1);
        let club = TypeId::from_u32(2);
        let interner = PatternInterner::with_limit(1);
        let first = wp(vec![aa(
            EditOp::Add,
            Var::new(player, 0),
            0,
            Var::new(club, 0),
        )]);
        let second = wp(vec![aa(
            EditOp::Remove,
            Var::new(player, 0),
            1,
            Var::new(club, 0),
        )]);
        let (id, canonical) = interner.try_intern_working(&first).unwrap();
        assert_eq!(
            interner.try_intern_working(&second),
            Err(WicleanError::InternerFull { limit: 1 })
        );
        // The rejected intern left the interner usable and unchanged.
        assert_eq!(interner.len(), 1);
        assert_eq!(
            interner.try_intern_working(&first).unwrap(),
            (id, canonical)
        );
    }

    #[test]
    fn ids_stable_under_concurrent_interning() {
        use std::sync::Arc;
        let player = TypeId::from_u32(1);
        let club = TypeId::from_u32(2);
        let interner = Arc::new(PatternInterner::new());
        let patterns: Vec<WorkingPattern> = (0..8u32)
            .map(|r| {
                wp(vec![aa(
                    EditOp::Add,
                    Var::new(player, 0),
                    r,
                    Var::new(club, 0),
                )])
            })
            .collect();
        let ids: Vec<Vec<PatternId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let interner = Arc::clone(&interner);
                    let patterns = patterns.clone();
                    s.spawn(move || {
                        patterns
                            .iter()
                            .map(|w| interner.intern_working(w).0)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every thread must agree on the id of every pattern.
        for other in &ids[1..] {
            assert_eq!(&ids[0], other);
        }
        assert_eq!(interner.len(), 8);
    }
}
