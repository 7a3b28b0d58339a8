//! Mining caches, and the per-window candidate memo.
//!
//! Algorithm 2 re-mines the same windows while only the threshold changes,
//! and relative mining re-examines, under τ_rel, the candidates the
//! absolute expansion has just scored. The paper's remedy is "the cashing
//! of the computed frequencies/realization tables, to be reused if the
//! same patterns are later re-examined with different thresholds": the
//! `WindowMemo`, one per mined window, which every evaluation in the
//! window reads and writes — the absolute expansion, relative mining, each
//! Algorithm 2 iteration that only lowers τ, and every refresh and seal of
//! a streamed window ([`crate::stream`]).
//!
//! A memo records the fetched-type *stage* it was computed at (the types
//! loaded, in load order) and the construction *path* its table's columns
//! follow. Its hit rules:
//!
//! * a table is served only along the path that built it, so a hit is
//!   byte-identical to a recomputation;
//! * support and frequency are served along any path whenever the stage's
//!   rows cannot have grown since the memo was written — in batch mining,
//!   every memo of the same stage;
//! * a streamed window's rows grow append-only between refreshes: there a
//!   memo is reused only along its own lineage (`Growth`), served when
//!   nothing grew and extended by a delta join otherwise.
//!
//! A delta join probes persistent join indexes (`JoinIndexes`) rather
//! than building any: a growing memo keeps the indexes over its table in
//! its `Growth`, next to the lineage they are only valid for, so a memo
//! rebuilt by a full join starts without any.
//!
//! Anything else is joined in full, and the result replaces the memo.

use crate::abstract_action::AbstractAction;
use crate::interner::{PatternId, PatternInterner};
use crate::miner::Threshold;
use std::collections::HashMap;
use std::sync::Arc;
use wiclean_rel::{EntitySet, KeyCols, KeyIndex, Table};
use wiclean_revstore::ActionCache;
use wiclean_types::TypeId;

/// The batch mining caches shared across windows, bundled so the parallel
/// entry points can be handed them at once. `Arc`-shared: cloning the
/// bundle clones pointers, so every per-window worker and every
/// Algorithm 2 refinement iteration sees the same underlying state.
/// [`crate::miner::WindowMiner::with_caches`] is the one way to attach
/// them; the streaming miner attaches a bundle that holds only its
/// interner.
///
/// * `actions` — per-entity preprocessing outcomes (parse → diff →
///   extract), reused across iterations and *composed* when a widened
///   window tiles exactly from cached sub-windows
///   ([`wiclean_revstore::ActionCache`]). Optional (ablations disable it).
/// * `patterns` — the [`PatternInterner`] issuing the [`PatternId`]s that
///   key every window's memo. Ids are only meaningful relative to their
///   interner, so memos kept across iterations need the same interner.
#[derive(Clone, Default)]
pub struct MiningCaches {
    /// Shared preprocessing (action-extraction) cache, if enabled.
    pub actions: Option<Arc<ActionCache>>,
    /// Pattern interner issuing the ids that key the window memos.
    pub patterns: Arc<PatternInterner>,
}

impl MiningCaches {
    /// An empty bundle (no action cache) — what the plain entry points use.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds the bundle a [`crate::config::WcConfig`] asks for.
    pub fn from_config(config: &crate::config::WcConfig) -> Self {
        Self {
            actions: config
                .use_action_cache
                .then(|| Arc::new(ActionCache::new())),
            patterns: Arc::new(PatternInterner::new()),
        }
    }
}

/// The candidate memo of one mined window, keyed by interned pattern.
#[derive(Default)]
pub(crate) struct WindowMemo {
    pub(crate) entries: HashMap<PatternId, Memo>,
    /// Whether a stage's rows can still grow after a memo is written (a
    /// streamed window): memos then keep their [`Growth`].
    pub(crate) growing: bool,
}

impl WindowMemo {
    /// What the memo can do for candidate `id`, built along `path` at
    /// `stage` and judged under `threshold` (the hit rules in the module
    /// docs). A growing memo is consulted with the candidate's `inputs`.
    pub(crate) fn consult(
        &self,
        id: PatternId,
        stage: &[TypeId],
        path: &[AbstractAction],
        threshold: Threshold,
        inputs: Option<&Inputs>,
    ) -> Answer {
        let Some(m) = self.entries.get(&id).filter(|m| m.stage == stage) else {
            return Answer::Join;
        };
        let on_path = m.path == path;
        let accepted = threshold.accepts(m.support, m.freq);
        if let Some(g) = &m.growth {
            let i = inputs.expect("a growing memo is consulted with the candidate's inputs");
            if !on_path || g.parent_gen != i.parent_gen {
                return Answer::Join;
            }
            debug_assert!(g.left_len <= i.left_len && g.right_len <= i.right_len);
            if g.left_len < i.left_len || g.right_len < i.right_len {
                // Grown inputs: a delta join over the appended rows —
                // unless the memo is pruned although its support already
                // clears the threshold: its table only a full join builds.
                return if accepted && m.table.is_none() {
                    Answer::Join
                } else {
                    Answer::Delta
                };
            }
        }
        match &m.table {
            Some(table) if on_path => Answer::Hit(Some(Arc::clone(table))),
            _ if !accepted => Answer::Hit(None),
            _ => Answer::Join,
        }
    }
}

/// What a window's memo can do for one candidate.
pub(crate) enum Answer {
    /// Served the memo's counts without a join, and its table along its
    /// own path.
    Hit(Option<Arc<Table>>),
    /// A delta join along the memo's own path over the appended rows.
    Delta,
    /// A full join.
    Join,
}

/// A streamed candidate's inputs now: the parent table's generation and
/// both input lengths.
pub(crate) struct Inputs {
    pub(crate) parent_gen: u64,
    pub(crate) left_len: usize,
    pub(crate) right_len: usize,
}

/// One candidate's memo in its window: what its last evaluation computed,
/// and the provenance that says when it can be reused.
pub(crate) struct Memo {
    /// The fetched-type stage it was computed at
    /// ([`crate::miner::Stage::key`]).
    pub(crate) stage: Vec<TypeId>,
    /// Construction path (action order) the table's columns follow.
    pub(crate) path: Vec<AbstractAction>,
    /// Realization table, shared with the frontier node and the found
    /// pattern it became. `None` while the candidate is pruned.
    pub(crate) table: Option<Arc<Table>>,
    pub(crate) support: usize,
    pub(crate) freq: f64,
    /// What a delta join needs; kept only in a growing window.
    pub(crate) growth: Option<Growth>,
}

/// A streamed memo's lineage: the input lengths it saw and the distinct
/// source values matched so far. A refresh that finds longer inputs
/// delta-joins only the appended rows, unions the new matches into
/// `distinct` and re-derives support from it (monotone under appends, so
/// nothing is rescanned).
pub(crate) struct Growth {
    /// Bumped whenever the table is rebuilt rather than extended: the
    /// length guards are only sound when the parent table evolved
    /// append-only from what the memo saw, and `gen` is that proof.
    pub(crate) gen: u64,
    /// The parent's `gen` when this memo was computed.
    pub(crate) parent_gen: u64,
    /// Parent (left) table length when last computed.
    pub(crate) left_len: usize,
    /// Action (right) table length when last computed.
    pub(crate) right_len: usize,
    /// Distinct non-null source values over all pairs matched so far.
    pub(crate) distinct: EntitySet,
    /// The join indexes over the memo's table, for the delta joins of the
    /// candidates it is the parent of.
    pub(crate) indexes: JoinIndexes,
}

/// The persistent join indexes over one append-only table, one per
/// key-column list a delta join has probed it by. Each is built the first
/// time a delta join needs it and extended wherever its table grows;
/// whoever rebuilds the table drops them with it.
#[derive(Default)]
pub(crate) struct JoinIndexes(pub(crate) Vec<(Vec<usize>, KeyIndex)>);

impl JoinIndexes {
    /// Builds the index over `table` keyed by `cols`, unless it is there.
    pub(crate) fn ready(&mut self, table: &Table, cols: &[usize]) {
        if !self.0.iter().any(|(c, _)| c == cols) {
            let mut index = KeyIndex::default();
            index.extend(&KeyCols::new(table, cols), 0..table.len());
            self.0.push((cols.to_vec(), index));
        }
    }

    /// The index keyed by `cols`, once [`JoinIndexes::ready`].
    pub(crate) fn get(&self, cols: &[usize]) -> &KeyIndex {
        let found = self.0.iter().find(|(c, _)| c == cols);
        &found
            .expect("a delta join's index is readied before it runs")
            .1
    }

    /// Extends every index over the rows `table` gained.
    pub(crate) fn extend(&mut self, table: &Table) {
        for (cols, index) in &mut self.0 {
            index.extend(&KeyCols::new(table, cols), index.end()..table.len());
        }
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

    /// A two-action candidate, `-(p, club, c0), +(p, club, c1)`, built
    /// remove-first (`true`) or add-first: its columns differ.
    fn path(remove_first: bool) -> Vec<AbstractAction> {
        let (p, club) = (Var::new(TypeId::from_u32(1), 0), RelId::from_u32(0));
        let c = |ix| Var::new(TypeId::from_u32(2), ix);
        let mut path = vec![
            AbstractAction::new(EditOp::Remove, p, club, c(0)),
            AbstractAction::new(EditOp::Add, p, club, c(1)),
        ];
        if !remove_first {
            path.reverse();
        }
        path
    }

    fn stage(tys: &[u32]) -> Vec<TypeId> {
        tys.iter().map(|&t| TypeId::from_u32(t)).collect()
    }

    /// A window memo holding one memo, computed remove-first at stage
    /// `[1, 2]` with support 4 (frequency 0.4).
    fn memo_of(table: bool, growth: Option<Growth>) -> (WindowMemo, PatternId) {
        let id = PatternInterner::new().intern(&Pattern::canonical_from(&path(true)));
        let memo = Memo {
            stage: stage(&[1, 2]),
            path: path(true),
            table: table.then(|| Arc::new(Table::new(Schema::new(["x"])))),
            support: 4,
            freq: 0.4,
            growth,
        };
        let memo = WindowMemo {
            growing: memo.growth.is_some(),
            entries: HashMap::from([(id, memo)]),
        };
        (memo, id)
    }

    /// The memo's answer as a word: `table` or `counts` for a hit with or
    /// without its table, `delta` or `join`. `inputs` are a streamed
    /// candidate's parent generation and parent table length.
    fn answer(
        memo: &WindowMemo,
        id: PatternId,
        tys: &[u32],
        remove_first: bool,
        tau: f64,
        inputs: Option<(u64, usize)>,
    ) -> &'static str {
        let inputs = inputs.map(|(parent_gen, left_len)| Inputs {
            parent_gen,
            left_len,
            right_len: 5,
        });
        let threshold = Threshold::Frequency(tau);
        match memo.consult(
            id,
            &stage(tys),
            &path(remove_first),
            threshold,
            inputs.as_ref(),
        ) {
            Answer::Hit(Some(_)) => "table",
            Answer::Hit(None) => "counts",
            Answer::Delta => "delta",
            Answer::Join => "join",
        }
    }

    #[test]
    fn batch_memos_serve_their_stage_and_tables_only_along_their_path() {
        let (memo, id) = memo_of(true, None);
        let ask = |tys, remove_first, tau| answer(&memo, id, tys, remove_first, tau, None);
        assert_eq!(ask(&[1, 2], true, 0.3), "table");
        assert_eq!(ask(&[1, 2, 3], true, 0.3), "join", "another stage");
        assert_eq!(ask(&[2, 1], true, 0.3), "join", "another load order");
        // Along another path the table is withheld: a rejected candidate
        // is served its counts, an accepted one needs its own table.
        assert_eq!(ask(&[1, 2], false, 0.5), "counts");
        assert_eq!(ask(&[1, 2], false, 0.3), "join");

        // A pruned memo serves its counts along any path until a threshold
        // accepts it; then the table must be joined.
        let (memo, id) = memo_of(false, None);
        let ask = |remove_first, tau| answer(&memo, id, &[1, 2], remove_first, tau, None);
        let asked = [ask(true, 0.5), ask(false, 0.5), ask(true, 0.4)];
        assert_eq!(asked, ["counts", "counts", "join"]);
    }

    #[test]
    fn growing_memos_answer_only_along_their_own_lineage() {
        let growth = || Growth {
            gen: 3,
            parent_gen: 1,
            left_len: 10,
            right_len: 5,
            distinct: EntitySet::default(),
            indexes: JoinIndexes::default(),
        };
        let (memo, id) = memo_of(true, Some(growth()));
        let ask =
            |remove_first, inputs| answer(&memo, id, &[1, 2], remove_first, 0.3, Some(inputs));
        assert_eq!(ask(true, (1, 10)), "table");
        assert_eq!(ask(true, (1, 12)), "delta");
        assert_eq!(ask(true, (2, 10)), "join", "rebuilt parent");
        assert_eq!(ask(false, (1, 10)), "join", "another path");

        // A pruned memo grows by delta until its old support clears τ.
        let (memo, id) = memo_of(false, Some(growth()));
        let ask = |tau| answer(&memo, id, &[1, 2], true, tau, Some((1, 12)));
        assert_eq!([ask(0.5), ask(0.3)], ["delta", "join"]);
    }
}
