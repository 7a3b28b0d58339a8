//! Property-based tests for the relational engine.
//!
//! The central property is *differential*: the hash join must agree with
//! the nested-loop join on every input — the two are the paper's `PM` vs
//! `PM−join` realization computations, which must only differ in speed —
//! and both must agree with the row-at-a-time reference in [`rowstore`].

mod rowstore;

use proptest::prelude::*;
use rowstore::{join_glue_nested_rows, join_glue_rows, outer_join_glue_rows, RowTable};
use wiclean_rel::{
    distinct_left_values, join_glue, join_glue_nested, join_glue_pairs, join_glue_pairs_delta,
    join_glue_pairs_nested, outer_join_glue, ColumnGlue, Pair, Schema, Table, Value,
};
use wiclean_types::EntityId;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0u32..6).prop_map(|i| Some(EntityId::from_u32(i))),
        1 => Just(None),
    ]
}

fn table_strategy(cols: &'static [&'static str]) -> impl Strategy<Value = Table> {
    proptest::collection::vec(
        proptest::collection::vec(value_strategy(), cols.len()),
        0..12,
    )
    .prop_map(move |rows| Table::from_rows(Schema::new(cols.iter().copied()), rows))
}

/// Random glue spec over a 2-wide left and 2-wide right table.
fn glue_strategy() -> impl Strategy<Value = Vec<ColumnGlue>> {
    let col = 0usize..2;
    let one = prop_oneof![
        col.clone().prop_map(ColumnGlue::Glued),
        proptest::collection::vec(0usize..2, 0..3).prop_map(|d| ColumnGlue::New {
            name: "n0".into(),
            distinct_from: d,
        }),
    ];
    let two = prop_oneof![
        col.prop_map(ColumnGlue::Glued),
        proptest::collection::vec(0usize..2, 0..3).prop_map(|d| ColumnGlue::New {
            name: "n1".into(),
            distinct_from: d,
        }),
    ];
    (one, two).prop_map(|(a, b)| vec![a, b])
}

proptest! {
    /// Hash join ≡ nested loop join, on all inputs and glue specs: the
    /// same pair stream pair for pair, hence the same table row for row.
    #[test]
    fn hash_equals_nested(
        left in table_strategy(&["a", "b"]),
        right in table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let h = join_glue_pairs(&left, &right, &glue);
        prop_assert_eq!(&h, &join_glue_pairs_nested(&left, &right, &glue));
        prop_assert_eq!(join_glue(&left, &right, &glue), join_glue_nested(&left, &right, &glue));
    }

    /// The inner join is a sub-multiset of the outer join, and the outer
    /// join's extra rows all contain nulls.
    #[test]
    fn outer_extends_inner(
        left in table_strategy(&["a", "b"]),
        right in table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let inner = join_glue(&left, &right, &glue);
        let outer = outer_join_glue(&left, &right, &glue);
        prop_assert!(outer.len() >= inner.len());

        let inner_rows = inner.sorted_rows();
        let outer_rows = outer.sorted_rows();
        // Every inner row appears in the outer result.
        for r in &inner_rows {
            prop_assert!(outer_rows.contains(r));
        }
        // Outer-only rows are null-padded — provided the join actually has
        // columns to pad: unmatched left rows get nulls in New columns,
        // unmatched right rows get nulls in left columns not covered by a
        // glued right column. If no such column exists on either side,
        // unmatched rows can be null-free.
        let has_new = glue.iter().any(|g| matches!(g, ColumnGlue::New { .. }));
        let covered: std::collections::HashSet<usize> = glue
            .iter()
            .filter_map(|g| match g {
                ColumnGlue::Glued(i) => Some(*i),
                _ => None,
            })
            .collect();
        let left_fully_covered = covered.len() == left.width();
        if has_new && !left_fully_covered {
            let extra = outer.len() - inner.len();
            let nulls = outer.rows().filter(|r| r.iter().any(Option::is_none)).count();
            prop_assert!(nulls >= extra);
        }
    }

    /// Every left row is represented in the full outer join at least once.
    #[test]
    fn outer_covers_left(
        left in table_strategy(&["a", "b"]),
        right in table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let outer = outer_join_glue(&left, &right, &glue);
        prop_assert!(outer.len() >= left.len());
    }

    /// Joining against an empty right yields: inner → empty, outer → left
    /// padded with nulls on the new columns.
    #[test]
    fn empty_right_identities(
        left in table_strategy(&["a", "b"]),
        glue in glue_strategy(),
    ) {
        let right = Table::new(Schema::new(["x", "y"]));
        prop_assert!(join_glue(&left, &right, &glue).is_empty());
        let outer = outer_join_glue(&left, &right, &glue);
        prop_assert_eq!(outer.len(), left.len());
    }

    /// Projection then dedup never grows a table.
    #[test]
    fn project_dedup_shrinks(t in table_strategy(&["a", "b"])) {
        let mut p = t.project(&[0]);
        p.dedup();
        prop_assert!(p.len() <= t.len());
        prop_assert_eq!(p.width(), 1);
    }

    /// distinct_count equals the length of a deduped non-null projection.
    #[test]
    fn distinct_count_consistent(t in table_strategy(&["a", "b"])) {
        let dc = t.distinct_count(0);
        let set = t.distinct_values(0);
        prop_assert_eq!(dc, set.len());
    }
}

// ---------------------------------------------------------------------------
// Differential suite: every columnar operator vs the retained row-oriented
// reference engine (`rowstore`), under set semantics.
// ---------------------------------------------------------------------------

/// A value strategy skewed heavily toward nulls, so whole-column-null
/// tables occur regularly.
fn nullish_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => (0u32..4).prop_map(|i| Some(EntityId::from_u32(i))),
        2 => Just(None),
    ]
}

fn nullish_table_strategy(cols: &'static [&'static str]) -> impl Strategy<Value = Table> {
    proptest::collection::vec(
        proptest::collection::vec(nullish_value_strategy(), cols.len()),
        0..12,
    )
    .prop_map(move |rows| Table::from_rows(Schema::new(cols.iter().copied()), rows))
}

proptest! {
    /// Columnar inner joins (hash, nested loop) agree with the row-oriented
    /// reference joins under set semantics, before and after dedup, and in
    /// distinct-source support.
    #[test]
    fn columnar_joins_match_row_reference(
        left in table_strategy(&["a", "b"]),
        right in table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let (rl, rr) = (RowTable::from_table(&left), RowTable::from_table(&right));

        let row_hash = join_glue_rows(&rl, &rr, &glue);
        let mut row_deduped = join_glue_nested_rows(&rl, &rr, &glue);
        prop_assert_eq!(row_hash.sorted_rows(), row_deduped.sorted_rows());
        row_deduped.dedup();
        for mut col in [join_glue(&left, &right, &glue), join_glue_nested(&left, &right, &glue)] {
            prop_assert_eq!(col.sorted_rows(), row_hash.sorted_rows());
            prop_assert_eq!(col.schema().names(), row_hash.schema().names());
            col.dedup();
            prop_assert_eq!(col.sorted_rows(), row_deduped.sorted_rows());
            prop_assert_eq!(col.distinct_count(0), row_deduped.distinct_values(0).len());
        }
    }

    /// The columnar outer join agrees with the row-oriented reference —
    /// including under null-heavy inputs where unmatched-row padding and
    /// glued-column fallback dominate the output.
    #[test]
    fn outer_join_matches_row_reference(
        left in nullish_table_strategy(&["a", "b"]),
        right in nullish_table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let (rl, rr) = (RowTable::from_table(&left), RowTable::from_table(&right));
        let col = outer_join_glue(&left, &right, &glue);
        let row = outer_join_glue_rows(&rl, &rr, &glue);
        prop_assert_eq!(col.sorted_rows(), row.sorted_rows());
    }

    /// Columnar project + dedup agree with the reference, including the
    /// zero-width projection (COUNT(*) preservation, collapse to one row).
    #[test]
    fn project_dedup_match_row_reference(
        t in nullish_table_strategy(&["a", "b", "c"]),
        mask in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let keep: Vec<usize> = (0..3).filter(|&c| mask[c]).collect();
        let rt = RowTable::from_table(&t);
        let mut cp = t.project(&keep);
        let mut rp = rt.project(&keep);
        prop_assert_eq!(cp.len(), rp.len());
        prop_assert_eq!(cp.sorted_rows(), rp.sorted_rows());
        cp.dedup();
        rp.dedup();
        prop_assert_eq!(cp.len(), rp.len());
        prop_assert_eq!(cp.sorted_rows(), rp.sorted_rows());
    }

    /// Self-join glue: joining a table with itself (the degenerate case
    /// where build and probe sides alias) agrees with the reference.
    #[test]
    fn self_join_matches_row_reference(
        t in table_strategy(&["a", "b"]),
        glue in glue_strategy(),
    ) {
        let rt = RowTable::from_table(&t);
        let col = join_glue(&t, &t, &glue);
        let row = join_glue_rows(&rt, &rt, &glue);
        prop_assert_eq!(col.sorted_rows(), row.sorted_rows());

        let col_outer = outer_join_glue(&t, &t, &glue);
        let row_outer = outer_join_glue_rows(&rt, &rt, &glue);
        prop_assert_eq!(col_outer.sorted_rows(), row_outer.sorted_rows());
    }

    /// The distinct-source fast path (support counted off the pair stream)
    /// equals the distinct count of the materialized, deduped join — the
    /// invariant that lets the miner prune candidates without materializing.
    #[test]
    fn pair_stream_support_equals_materialized_support(
        left in nullish_table_strategy(&["a", "b"]),
        right in nullish_table_strategy(&["x", "y"]),
        glue in glue_strategy(),
    ) {
        let pairs = join_glue_pairs(&left, &right, &glue);
        let fast = distinct_left_values(&left, 0, &pairs);
        let mut full = join_glue(&left, &right, &glue);
        full.dedup();
        prop_assert_eq!(fast, full.distinct_values(0));
    }
}

// ---------------------------------------------------------------------------
// Every pair stage against the nested-loop reference, pair for pair, on
// 2- to 4-column tables whose glue specs join on up to four columns.
// ---------------------------------------------------------------------------

/// Cells drawn from a 3-entity domain; `nulls` of every 6 draws are null
/// (0 = none, 4 = null-heavy).
fn wide_table(width: usize, nulls: u8, cells: &[Vec<u8>]) -> Table {
    let cell = |c: u8| (c >= nulls).then(|| EntityId::from_u32(u32::from(c % 3)));
    let rows = cells
        .iter()
        .map(|r| r[..width].iter().map(|&c| cell(c)).collect::<Vec<_>>());
    Table::from_rows(Schema::new((0..width).map(|c| format!("c{c}"))), rows)
}

/// The outer join's expected rows, derived from the nested-loop pairs:
/// per left row its matches (or one null-padded row), then every unmatched
/// right row with glued columns taken from the right (last glue wins).
fn outer_reference(
    left: &Table,
    right: &Table,
    glue: &[ColumnGlue],
    inner: &[Pair],
) -> Vec<Vec<Value>> {
    let new_cols: Vec<usize> = (0..glue.len())
        .filter(|&j| matches!(glue[j], ColumnGlue::New { .. }))
        .collect();
    let new = |ri: Option<usize>| {
        new_cols
            .iter()
            .map(move |&j| ri.and_then(|ri| right.cell(ri, j)))
    };
    let mut rows = Vec::new();
    for li in 0..left.len() {
        let mut matches: Vec<Option<usize>> = inner
            .iter()
            .filter(|p| p.0 as usize == li)
            .map(|p| Some(p.1 as usize))
            .collect();
        if matches.is_empty() {
            matches.push(None);
        }
        for ri in matches {
            rows.push(left.row(li).into_iter().chain(new(ri)).collect());
        }
    }
    for ri in (0..right.len()).filter(|&ri| inner.iter().all(|p| p.1 as usize != ri)) {
        let glued = |c| glue.iter().rposition(|g| *g == ColumnGlue::Glued(c));
        let lcols = (0..left.width()).map(|c| glued(c).and_then(|j| right.cell(ri, j)));
        rows.push(lcols.chain(new(Some(ri))).collect());
    }
    rows
}

proptest! {
    /// The hash pair stage, the delta pair stage at any prefix marks and
    /// the outer join equal the nested-loop reference exactly, on 2- to
    /// 4-column tables with keys of up to four glued columns and
    /// null-heavy cells.
    #[test]
    fn wide_key_joins_equal_nested_reference(
        dims in (2usize..5, 2usize..5, 0u8..5),
        lcells in proptest::collection::vec(proptest::collection::vec(0u8..6, 4), 0..14),
        rcells in proptest::collection::vec(proptest::collection::vec(0u8..6, 4), 0..14),
        spec in proptest::collection::vec((0u8..3, 0usize..4, proptest::collection::vec(0usize..4, 0..3)), 4),
        marks in (0usize..15, 0usize..15),
    ) {
        let (lw, rw, nulls) = dims;
        let (left, right) = (wide_table(lw, nulls, &lcells), wide_table(rw, nulls, &rcells));
        let glue: Vec<ColumnGlue> = spec[..rw]
            .iter()
            .enumerate()
            .map(|(j, (kind, col, d))| match kind {
                0 | 1 => ColumnGlue::Glued(col % lw),
                _ => ColumnGlue::New {
                    name: format!("n{j}"),
                    distinct_from: d.iter().map(|c| c % lw).collect(),
                },
            })
            .collect();
        let reference = join_glue_pairs_nested(&left, &right, &glue);
        prop_assert_eq!(&join_glue_pairs(&left, &right, &glue), &reference);

        let (lo, ro) = (marks.0.min(left.len()), marks.1.min(right.len()));
        let delta: Vec<Pair> = reference
            .iter()
            .copied()
            .filter(|&(li, ri)| li as usize >= lo || ri as usize >= ro)
            .collect();
        prop_assert_eq!(&join_glue_pairs_delta(&left, lo, &right, ro, &glue), &delta);

        let outer: Vec<Vec<Value>> = outer_join_glue(&left, &right, &glue).rows().collect();
        prop_assert_eq!(outer, outer_reference(&left, &right, &glue, &reference));
    }
}
