//! Join operators with *gluing* semantics, late-materialized.
//!
//! Extending a pattern `p` with an abstract action `a` (paper §4.2) joins
//! `realizations[p]` (the left relation, one column per pattern variable)
//! with `realizations[a]` (the right relation, one column per action
//! endpoint). Each right column is either
//!
//! * **glued** onto an existing left column — an equijoin condition on the
//!   corresponding attributes, or
//! * **new** — it extends the output schema, under *inequality* conditions
//!   against the same-type left columns (the paper requires distinct
//!   variables to realize as distinct entities).
//!
//! Both engines run in two stages. The *pair* stage ([`join_glue_pairs`],
//! the hash join, or [`join_glue_pairs_nested`], the paper's `PM−join`
//! nested loop) produces the stream of matching `(left row, right row)`
//! index pairs with the `≠`-post-filter applied on column slices; the
//! *materialize* stage ([`materialize_pairs`]) gathers the output columns
//! once at the end. Candidate pruning consumes the pair stream directly
//! ([`distinct_left_values`]) and skips materialization entirely for
//! patterns that fail the frequency threshold. Every hash pair stage
//! indexes its build side with the one flat chained [`KeyIndex`]: a full
//! join builds a transient one, and the delta join
//! ([`join_glue_pairs_delta`]) probes the persistent indexes its caller
//! keeps over each append-only side.
//!
//! The table-in/table-out operators ([`join_glue`], [`join_glue_nested`],
//! [`outer_join_glue`]) are thin compositions of the two stages and keep
//! the exact output row order of the row-oriented seed implementation
//! (kept as the row-at-a-time reference of the property suite).

use crate::column::NULL_IX;
use crate::hash::EntitySet;
use crate::index::{KeyCols, KeyIndex};
use crate::schema::Schema;
use crate::table::Table;

/// How one right-hand column participates in a glue join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnGlue {
    /// Equi-joined onto the left column at this index.
    Glued(usize),
    /// Introduces a new output column.
    New {
        /// Output column name (the fresh pattern variable).
        name: String,
        /// Left columns this value must differ from (same-type variables).
        /// Comparisons against nulls are vacuously satisfied.
        distinct_from: Vec<usize>,
    },
}

/// A matched (left row, right row) index pair.
pub type Pair = (u32, u32);

fn output_schema(left: &Table, glue: &[ColumnGlue]) -> Schema {
    let mut schema = left.schema().clone();
    for g in glue {
        if let ColumnGlue::New { name, .. } = g {
            schema.push(name.clone());
        }
    }
    schema
}

fn validate(left: &Table, right: &Table, glue: &[ColumnGlue]) {
    assert_eq!(
        glue.len(),
        right.width(),
        "glue spec arity must match right table width"
    );
    for g in glue {
        match g {
            ColumnGlue::Glued(i) => assert!(*i < left.width(), "glued column out of range"),
            ColumnGlue::New { distinct_from, .. } => {
                for i in distinct_from {
                    assert!(*i < left.width(), "distinct_from column out of range");
                }
            }
        }
    }
}

/// The glue spec resolved to column indices: equi-join pairs in glue
/// order, and new output columns with their `≠` constraint targets.
struct GluePlan {
    /// (left column, right column) per `Glued` entry, in glue order.
    glued: Vec<(usize, usize)>,
    /// (right column, distinct-from left columns) per `New` entry, in
    /// glue order.
    new_cols: Vec<(usize, Vec<usize>)>,
}

impl GluePlan {
    fn new(glue: &[ColumnGlue]) -> Self {
        let mut glued = Vec::new();
        let mut new_cols = Vec::new();
        for (j, g) in glue.iter().enumerate() {
            match g {
                ColumnGlue::Glued(i) => glued.push((*i, j)),
                ColumnGlue::New { distinct_from, .. } => {
                    new_cols.push((j, distinct_from.clone()));
                }
            }
        }
        Self { glued, new_cols }
    }

    /// The left side's glued key columns.
    fn left_keys<'a>(&self, left: &'a Table) -> KeyCols<'a> {
        KeyCols(self.glued.iter().map(|&(lc, _)| left.col(lc)).collect())
    }

    /// The right side's glued key columns.
    fn right_keys<'a>(&self, right: &'a Table) -> KeyCols<'a> {
        KeyCols(self.glued.iter().map(|&(_, rc)| right.col(rc)).collect())
    }

    /// The `≠` post-filter on a key-matched pair. SQL three-valued logic:
    /// `≠` against a null is vacuously satisfied.
    fn neq_ok(&self, left: &Table, li: usize, right: &Table, ri: usize) -> bool {
        for (rc, distinct_from) in &self.new_cols {
            let rcol = right.col(*rc);
            if !rcol.is_valid(ri) {
                continue;
            }
            let b = rcol.value_unchecked(ri);
            for &lc in distinct_from {
                let lcol = left.col(lc);
                if lcol.is_valid(li) && lcol.value_unchecked(li) == b {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the pair satisfies all glue conditions (equi + `≠`); used
    /// by the nested loop, which has no key index. A null never
    /// equi-matches.
    fn pair_matches(&self, left: &Table, li: usize, right: &Table, ri: usize) -> bool {
        for &(lc, rc) in &self.glued {
            let (l, r) = (left.col(lc), right.col(rc));
            if !l.is_valid(li) || !r.is_valid(ri) || l.value_unchecked(li) != r.value_unchecked(ri)
            {
                return false;
            }
        }
        self.neq_ok(left, li, right, ri)
    }
}

/// Hash equijoin pair stage: builds a hash index over the right relation
/// keyed by its glued columns, probes with the left relation in row order,
/// and applies the `≠` post-filter. Pairs come out in (left row, right
/// build order) order — the canonical order every pair stage reproduces.
pub fn join_glue_pairs(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    let rkeys = plan.right_keys(right);
    let index = KeyIndex::build(&rkeys, 0..right.len());
    probe_range(
        &index,
        &rkeys,
        &plan.left_keys(left),
        0..left.len(),
        |li, ri| {
            plan.neq_ok(left, li as usize, right, ri as usize)
                .then_some((li, ri))
        },
    )
}

/// Nested-loop pair stage over the cross product — the paper's `PM−join`
/// baseline. Already emits the canonical (left, right) order.
pub fn join_glue_pairs_nested(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Vec<Pair> {
    join_glue_pairs_delta_nested(left, 0, right, 0, glue)
}

/// Nested-loop form of [`join_glue_pairs_delta`], for the `PM−join`
/// baseline on the streaming path: the same pairs in the same canonical
/// order, found by testing every (left, right) pair that touches an
/// appended row. With both marks at 0 it is the full nested loop.
pub fn join_glue_pairs_delta_nested(
    left: &Table,
    left_old: usize,
    right: &Table,
    right_old: usize,
    glue: &[ColumnGlue],
) -> Vec<Pair> {
    validate(left, right, glue);
    assert!(left_old <= left.len(), "left_old beyond left length");
    assert!(right_old <= right.len(), "right_old beyond right length");
    let plan = GluePlan::new(glue);
    let mut pairs = Vec::new();
    for li in 0..left.len() {
        // A stable left row pairs only with appended right rows.
        let first = if li < left_old { right_old } else { 0 };
        for ri in first..right.len() {
            if plan.pair_matches(left, li, right, ri) {
                pairs.push((li as u32, ri as u32));
            }
        }
    }
    pairs
}

/// Delta-aware pair stage for append-only growth (the streaming miner).
///
/// Both inputs are **prefix-stable**: `left` rows below `left_old` and
/// `right` rows below `right_old` are exactly the rows a previous join
/// saw, and rows at or beyond those marks have been appended since. Emits
/// exactly the pairs of the full join that touch at least one appended
/// row — `join_glue_pairs(left, right, glue)` minus the pairs of the
/// prefix-only join — in canonical (left row, right row) order. The old
/// pair stream plus this delta is therefore the full pair stream as a
/// set, letting callers extend support sets and materialized tables
/// without re-joining the prefix.
///
/// Both sides come with their persistent key indexes, keyed by the glue's
/// key columns ([`glue_keys`]): `left_index` must cover at least the
/// stable rows `0..left_old`, and `right_index` every right row. Only
/// appended rows probe, so the cost follows the rows appended, not the
/// tables:
///
/// * each appended right row probes `left_index`, keeping the stable
///   left rows (below `left_old`);
/// * each appended left row probes `right_index`, matching every right
///   row.
///
/// The two parts cover disjoint left-row ranges; the first is sorted into
/// canonical order, the second already is.
pub fn join_glue_pairs_delta(
    left: &Table,
    left_old: usize,
    left_index: &KeyIndex,
    right: &Table,
    right_old: usize,
    right_index: &KeyIndex,
    glue: &[ColumnGlue],
) -> Vec<Pair> {
    validate(left, right, glue);
    assert!(left_old <= left.len(), "left_old beyond left length");
    assert!(right_old <= right.len(), "right_old beyond right length");
    assert!(
        (left_old..=left.len()).contains(&left_index.end()),
        "left index must cover the stable left rows"
    );
    assert_eq!(
        right_index.end(),
        right.len(),
        "right index must cover the right side"
    );
    let plan = GluePlan::new(glue);
    let (lkeys, rkeys) = (plan.left_keys(left), plan.right_keys(right));

    // Stable left rows × appended right rows, probed in (right, left)
    // order and sorted back to canonical.
    let mut pairs = Vec::new();
    if !left_index.is_empty() {
        for ri in right_old..right.len() {
            left_index.probe(&lkeys, &rkeys, ri, |li| {
                if (li as usize) < left_old && plan.neq_ok(left, li as usize, right, ri) {
                    pairs.push((li, ri as u32));
                }
            });
        }
        pairs.sort_unstable();
    }
    // Appended left rows × every right row: canonical as probed, and past
    // every left row of the first part.
    pairs.extend(probe_range(
        right_index,
        &rkeys,
        &lkeys,
        left_old..left.len(),
        |li, ri| {
            plan.neq_ok(left, li as usize, right, ri as usize)
                .then_some((li, ri))
        },
    ));
    pairs
}

/// The key columns a glue spec joins on: the left and the right column of
/// every `Glued` entry, in glue order. Indexes handed to
/// [`join_glue_pairs_delta`] are keyed by these.
pub fn glue_keys(glue: &[ColumnGlue]) -> (Vec<usize>, Vec<usize>) {
    GluePlan::new(glue).glued.into_iter().unzip()
}

/// Probes rows `range` of the probe side (key columns `probe`) against
/// `index` (over the build side's key columns `keys`) in row order.
/// `emit(probe row, build row)` maps a key match to its pair, or `None` if
/// the `≠` filter rejects it.
fn probe_range(
    index: &KeyIndex,
    keys: &KeyCols,
    probe: &KeyCols,
    range: std::ops::Range<usize>,
    emit: impl Fn(u32, u32) -> Option<Pair>,
) -> Vec<Pair> {
    let mut pairs = Vec::new();
    if index.is_empty() {
        return pairs;
    }
    for pi in range {
        index.probe(keys, probe, pi, |bi| pairs.extend(emit(pi as u32, bi)));
    }
    pairs
}

/// Materialize stage: gathers the output columns of a pair stream once —
/// every left column by the left indices, every `New` right column by the
/// right indices.
pub fn materialize_pairs(
    left: &Table,
    right: &Table,
    glue: &[ColumnGlue],
    pairs: &[Pair],
) -> Table {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    let lidx: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let ridx: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let mut cols = Vec::with_capacity(left.width() + plan.new_cols.len());
    for c in 0..left.width() {
        cols.push(left.col(c).gather(&lidx));
    }
    for (rc, _) in &plan.new_cols {
        cols.push(right.col(*rc).gather(&ridx));
    }
    Table::from_parts(output_schema(left, glue), cols, pairs.len())
}

/// Distinct non-null values of `left[col]` over a pair stream — the
/// semi-join side of the frequency fast path: candidate support is counted
/// from the matched pairs without materializing the joined table.
pub fn distinct_left_values(left: &Table, col: usize, pairs: &[Pair]) -> EntitySet {
    let c = left.col(col);
    let mut set = EntitySet::default();
    for &(li, _) in pairs {
        if let Some(v) = c.get(li as usize) {
            set.insert(v);
        }
    }
    set
}

/// Hash equijoin with gluing semantics (pairs + materialize).
///
/// ```
/// use wiclean_rel::{join_glue, ColumnGlue, Schema, Table};
/// use wiclean_types::EntityId;
///
/// let v = |i| Some(EntityId::from_u32(i));
/// let players = Table::from_rows(Schema::new(["player", "old"]), [vec![v(1), v(10)]]);
/// let joins = Table::from_rows(Schema::new(["player", "new"]), [vec![v(1), v(11)]]);
/// let glue = [
///     ColumnGlue::Glued(0), // same player
///     ColumnGlue::New { name: "new".into(), distinct_from: vec![1] }, // new ≠ old
/// ];
/// let out = join_glue(&players, &joins, &glue);
/// assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10), v(11)]]);
/// ```
pub fn join_glue(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    let pairs = join_glue_pairs(left, right, glue);
    materialize_pairs(left, right, glue, &pairs)
}

/// The same operator computed by a conventional main-memory nested loop
/// over the cross product — the paper's `PM−join` baseline. Semantically
/// identical to [`join_glue`] (property-tested), asymptotically slower.
pub fn join_glue_nested(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    let pairs = join_glue_pairs_nested(left, right, glue);
    materialize_pairs(left, right, glue, &pairs)
}

/// Full outer join with gluing semantics (Algorithm 3).
///
/// Output rows:
/// * matched pairs — as in [`join_glue`];
/// * unmatched **left** rows — retained, new columns padded with nulls
///   (a partial pattern realization missing the new action);
/// * unmatched **right** rows — retained, with glued output columns taking
///   the right values and all remaining left columns null (an action
///   realization with no surrounding pattern).
///
/// Late-materialized like the inner joins: the pair stream uses
/// [`NULL_IX`] for the missing side and the gather stage resolves glued
/// columns from whichever side is present.
pub fn outer_join_glue(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);

    let (lkeys, rkeys) = (plan.left_keys(left), plan.right_keys(right));
    let index = KeyIndex::build(&rkeys, 0..right.len());
    let mut right_matched = vec![false; right.len()];
    let mut pairs: Vec<Pair> = Vec::new();
    for li in 0..left.len() {
        let mut l_matched = false;
        index.probe(&rkeys, &lkeys, li, |ri| {
            if plan.neq_ok(left, li, right, ri as usize) {
                pairs.push((li as u32, ri));
                l_matched = true;
                right_matched[ri as usize] = true;
            }
        });
        if !l_matched {
            pairs.push((li as u32, NULL_IX));
        }
    }
    for (ri, matched) in right_matched.iter().enumerate() {
        if !matched {
            pairs.push((NULL_IX, ri as u32));
        }
    }

    // Gather. Left columns take the left value when present; a glued left
    // column falls back to its right counterpart on right-only rows (the
    // last glue entry wins when several right columns glue onto one left
    // column, matching the row-at-a-time reference).
    let lidx: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let ridx: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let mut cols = Vec::with_capacity(left.width() + plan.new_cols.len());
    for c in 0..left.width() {
        let glued_rc = plan
            .glued
            .iter()
            .rev()
            .find(|&&(lc, _)| lc == c)
            .map(|&(_, rc)| rc);
        match glued_rc {
            None => cols.push(left.col(c).gather(&lidx)),
            Some(rc) => {
                let mut col = crate::column::Column::with_capacity(pairs.len());
                let (lcol, rcol) = (left.col(c), right.col(rc));
                for &(li, ri) in &pairs {
                    if li != NULL_IX {
                        col.push(lcol.get(li as usize));
                    } else {
                        col.push(rcol.get(ri as usize));
                    }
                }
                cols.push(col);
            }
        }
    }
    for (rc, _) in &plan.new_cols {
        cols.push(right.col(*rc).gather(&ridx));
    }
    Table::from_parts(output_schema(left, glue), cols, pairs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use wiclean_types::EntityId;

    fn v(i: u32) -> Value {
        Some(EntityId::from_u32(i))
    }

    /// realizations[p]: pattern {−(player, club, team)} with columns
    /// [player, old_team].
    fn left_table() -> Table {
        Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![v(1), v(10)], vec![v(2), v(20)], vec![v(3), v(10)]],
        )
    }

    /// realizations[a]: action {+(player, club, team)} with columns
    /// [player, new_team].
    fn right_table() -> Table {
        Table::from_rows(
            Schema::new(["player", "new_team"]),
            [
                vec![v(1), v(11)],
                vec![v(2), v(20)], // same team as old → violates ≠
                vec![v(9), v(30)], // no matching player
            ],
        )
    }

    fn glue() -> Vec<ColumnGlue> {
        vec![
            ColumnGlue::Glued(0),
            ColumnGlue::New {
                name: "new_team".into(),
                distinct_from: vec![1],
            },
        ]
    }

    #[test]
    fn hash_join_glues_and_filters() {
        let out = join_glue(&left_table(), &right_table(), &glue());
        assert_eq!(out.schema().names(), &["player", "old_team", "new_team"]);
        // Player 1: old 10 → new 11 (kept). Player 2: 20 → 20 (≠ fails).
        assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10), v(11)]]);
    }

    #[test]
    fn nested_loop_agrees_with_hash() {
        let h = join_glue(&left_table(), &right_table(), &glue());
        let n = join_glue_nested(&left_table(), &right_table(), &glue());
        assert_eq!(h.sorted_rows(), n.sorted_rows());
    }

    #[test]
    fn duplicate_keys_cross_on_both_sides() {
        let left = Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![v(1), v(10)], vec![v(1), v(20)], vec![v(2), v(30)]],
        );
        let right = Table::from_rows(
            Schema::new(["player", "new_team"]),
            [vec![v(1), v(11)], vec![v(1), v(12)]],
        );
        let h = join_glue(&left, &right, &glue());
        let n = join_glue_nested(&left, &right, &glue());
        assert_eq!(h.sorted_rows(), n.sorted_rows());
        assert_eq!(h.len(), 4, "2 left × 2 right key-1 rows");
    }

    #[test]
    fn pair_stages_agree_exactly() {
        // The pair streams (not just the materialized sets) must coincide:
        // the miner's fast path counts support off the raw stream.
        let (l, r, g) = (left_table(), right_table(), glue());
        let h = join_glue_pairs(&l, &r, &g);
        assert_eq!(h, join_glue_pairs_nested(&l, &r, &g));
    }

    #[test]
    fn glue_all_columns_is_semijoin_shape() {
        // Gluing both right columns onto left columns keeps only matching
        // left rows, unextended.
        let right = Table::from_rows(
            Schema::new(["p", "t"]),
            [vec![v(1), v(10)], vec![v(2), v(99)]],
        );
        let out = join_glue(
            &left_table(),
            &right,
            &[ColumnGlue::Glued(0), ColumnGlue::Glued(1)],
        );
        assert_eq!(out.schema().width(), 2);
        assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10)]]);
    }

    #[test]
    fn null_left_key_never_matches() {
        let left = Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![None, v(10)], vec![v(1), v(10)]],
        );
        let out = join_glue(&left, &right_table(), &glue());
        assert_eq!(out.len(), 1, "null player cannot equi-match");
    }

    #[test]
    fn neq_against_null_is_vacuous() {
        let left = Table::from_rows(Schema::new(["player", "old_team"]), [vec![v(2), None]]);
        // Right: player 2, new team 20. old_team is null → ≠ passes.
        let out = join_glue(&left, &right_table(), &glue());
        assert_eq!(out.sorted_rows(), vec![vec![v(2), None, v(20)]]);
    }

    #[test]
    fn outer_join_retains_unmatched_left() {
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let rows = out.sorted_rows();
        // Matched: (1, 10, 11).
        assert!(rows.contains(&vec![v(1), v(10), v(11)]));
        // Unmatched left: players 2 (≠ failed) and 3 (no right row).
        assert!(rows.contains(&vec![v(2), v(20), None]));
        assert!(rows.contains(&vec![v(3), v(10), None]));
        // Unmatched right: player 9's action, no surrounding pattern, and
        // player 2's action (the ≠-failing pair leaves both sides
        // unmatched, as in SQL).
        assert!(rows.contains(&vec![v(9), None, v(30)]));
        assert!(rows.contains(&vec![v(2), None, v(20)]));
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn outer_join_null_rows_are_detectable() {
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let partial = out.rows_with_null();
        assert_eq!(partial.len(), 4);
    }

    #[test]
    fn outer_join_on_empty_right_pads_all_left() {
        let right = Table::new(Schema::new(["player", "new_team"]));
        let out = outer_join_glue(&left_table(), &right, &glue());
        assert_eq!(out.len(), 3);
        assert!(out.rows().all(|r| r[2].is_none()));
    }

    #[test]
    fn outer_join_on_empty_left_pads_all_right() {
        let left = Table::new(Schema::new(["player", "old_team"]));
        let out = outer_join_glue(&left, &right_table(), &glue());
        assert_eq!(out.len(), 3);
        assert!(out.rows().all(|r| r[1].is_none()));
        // Glued column carries the right value.
        assert!(out.rows().all(|r| r[0].is_some()));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn glue_arity_checked() {
        join_glue(&left_table(), &right_table(), &[ColumnGlue::Glued(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn glue_bounds_checked() {
        join_glue(
            &left_table(),
            &right_table(),
            &[
                ColumnGlue::Glued(7),
                ColumnGlue::New {
                    name: "x".into(),
                    distinct_from: vec![],
                },
            ],
        );
    }

    #[test]
    fn multiple_matches_fan_out() {
        let left = Table::from_rows(Schema::new(["player", "old_team"]), [vec![v(1), v(10)]]);
        let right = Table::from_rows(
            Schema::new(["player", "new_team"]),
            [vec![v(1), v(11)], vec![v(1), v(12)]],
        );
        let out = join_glue(&left, &right, &glue());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn outer_join_cardinality_survives_empty_projection() {
        // COUNT(*) over a join result must not collapse when projecting away
        // every column (the zero-width Table regression).
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let counted = out.project(&[]);
        assert_eq!(counted.width(), 0);
        assert_eq!(counted.len(), out.len());
        assert_eq!(counted.rows().count(), out.len());
    }

    #[test]
    fn distinct_left_values_matches_materialized_support() {
        let (l, r, g) = (left_table(), right_table(), glue());
        let pairs = join_glue_pairs(&l, &r, &g);
        let fast = distinct_left_values(&l, 0, &pairs);
        let mut full = materialize_pairs(&l, &r, &g, &pairs);
        full.dedup();
        assert_eq!(fast, full.distinct_values(0));
    }

    /// Pseudo-random tables with many repeated keys.
    fn big_tables() -> (Table, Table) {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(m)) as u32
        };
        let mut left = Table::new(Schema::new(["player", "old_team"]));
        for _ in 0..4600 {
            left.push_row(&[v(next(1500)), v(next(40))]);
        }
        let mut right = Table::new(Schema::new(["player", "new_team"]));
        for _ in 0..1200 {
            right.push_row(&[v(next(1500)), v(next(40))]);
        }
        (left, right)
    }

    /// The full pair stream restricted to pairs touching an appended row
    /// — the delta-join contract, derivable because `join_glue_pairs` is
    /// canonically ordered.
    fn expected_delta(full: &[Pair], left_old: usize, right_old: usize) -> Vec<Pair> {
        full.iter()
            .copied()
            .filter(|&(li, ri)| li as usize >= left_old || ri as usize >= right_old)
            .collect()
    }

    /// The delta join with each side's index built over all its rows.
    fn delta(left: &Table, lo: usize, right: &Table, ro: usize, g: &[ColumnGlue]) -> Vec<Pair> {
        let (lcols, rcols) = glue_keys(g);
        let index = |t: &Table, cols: &[usize]| KeyIndex::build(&KeyCols::new(t, cols), 0..t.len());
        let (li, ri) = (index(left, &lcols), index(right, &rcols));
        let pairs = join_glue_pairs_delta(left, lo, &li, right, ro, &ri, g);
        assert_eq!(pairs, join_glue_pairs_delta_nested(left, lo, right, ro, g));
        pairs
    }

    #[test]
    fn delta_join_equals_full_minus_prefix() {
        let (left, right) = big_tables();
        let g = glue();
        let full = join_glue_pairs(&left, &right, &g);
        assert!(!full.is_empty());
        for (left_old, right_old) in [
            (0, 0),
            (left.len(), right.len()),
            (left.len() / 2, right.len() / 2),
            (left.len() - 1, right.len()),
            (left.len(), right.len() - 3),
            (17, right.len() - 17),
        ] {
            let delta = delta(&left, left_old, &right, right_old, &g);
            assert_eq!(
                delta,
                expected_delta(&full, left_old, right_old),
                "prefix ({left_old}, {right_old}) diverged"
            );
        }
    }

    #[test]
    fn delta_join_empty_deltas_emit_nothing() {
        let (l, r, g) = (left_table(), right_table(), glue());
        assert!(delta(&l, l.len(), &r, r.len(), &g).is_empty());
    }

    #[test]
    fn delta_join_zero_prefix_is_full_join() {
        let (l, r, g) = (left_table(), right_table(), glue());
        assert_eq!(delta(&l, 0, &r, 0, &g), join_glue_pairs(&l, &r, &g));
    }

    #[test]
    #[should_panic(expected = "left_old beyond")]
    fn delta_join_prefix_bounds_checked() {
        let (l, r, g) = (left_table(), right_table(), glue());
        delta(&l, l.len() + 1, &r, 0, &g);
    }

    #[test]
    #[should_panic(expected = "right index must cover")]
    fn delta_join_needs_a_current_right_index() {
        let (l, r, g) = (left_table(), right_table(), glue());
        let (lcols, rcols) = glue_keys(&g);
        let li = KeyIndex::build(&KeyCols::new(&l, &lcols), 0..l.len());
        let ri = KeyIndex::build(&KeyCols::new(&r, &rcols), 0..r.len() - 1);
        join_glue_pairs_delta(&l, 1, &li, &r, 1, &ri, &g);
    }
}
