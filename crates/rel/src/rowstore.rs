//! The row-oriented reference engine.
//!
//! This is the pre-columnar implementation of [`Table`]/[`join_glue`]
//! retained verbatim: a flat row-major `Vec<Value>` buffer, fully
//! materialized joins, and `Vec`-keyed dedup. It serves two purposes:
//!
//! * **differential testing** — the property suite checks every columnar
//!   operator against this engine under set semantics;
//! * **benchmarking** — `fig5_join` measures the columnar engine's speedup
//!   against this baseline on the realization-pipeline workload.
//!
//! It is deliberately not optimized; do not use it outside tests/benches.
//!
//! [`Table`]: crate::Table
//! [`join_glue`]: crate::join_glue

use crate::column::Value;
use crate::join::ColumnGlue;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::{HashMap, HashSet};
use wiclean_types::EntityId;

/// A relation stored in one flat, row-major buffer (`width` cells per row).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RowTable {
    schema: Schema,
    data: Vec<Value>,
    rows: usize,
}

impl RowTable {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Creates a table and bulk-loads rows.
    pub fn from_rows<R>(schema: Schema, rows: impl IntoIterator<Item = R>) -> Self
    where
        R: AsRef<[Value]>,
    {
        let mut t = Self::new(schema);
        for r in rows {
            t.push_row(r.as_ref());
        }
        t
    }

    /// Converts a columnar table (transposes every row).
    pub fn from_table(t: &Table) -> Self {
        let mut out = Self::new(t.schema().clone());
        for r in t.rows() {
            out.push_row(&r);
        }
        out.rows = t.len(); // preserve zero-width cardinality
        out
    }

    /// Converts to a columnar table.
    pub fn to_table(&self) -> Table {
        let mut out = Table::new(self.schema.clone());
        for r in self.rows() {
            out.push_row(r);
        }
        out
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.schema.width()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends a row; its arity must match the schema.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.schema.width(),
            "row arity does not match schema {}",
            self.schema
        );
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Row `i` as a cell slice.
    pub fn row(&self, i: usize) -> &[Value] {
        let w = self.schema.width();
        &self.data[i * w..(i + 1) * w]
    }

    /// Iterates rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        let w = self.schema.width();
        (0..self.rows).map(move |i| &self.data[i * w..(i + 1) * w])
    }

    /// The distinct non-null values of a column.
    pub fn distinct_values(&self, col: usize) -> HashSet<EntityId> {
        self.rows().filter_map(|r| r[col]).collect()
    }

    /// Projection onto the given columns (row-at-a-time copy).
    pub fn project(&self, cols: &[usize]) -> RowTable {
        let schema = Schema::new(cols.iter().map(|&c| self.schema.name(c).to_owned()));
        let mut out = RowTable::new(schema);
        let mut row = Vec::with_capacity(cols.len());
        for r in self.rows() {
            row.clear();
            row.extend(cols.iter().map(|&c| r[c]));
            out.push_row(&row);
        }
        out.rows = self.rows; // zero-width projections keep COUNT(*)
        out
    }

    /// Removes duplicate rows via a `Vec`-keyed seen-set (allocates one key
    /// per input row — the behavior the columnar dedup replaced).
    pub fn dedup(&mut self) {
        let w = self.schema.width();
        if w == 0 {
            self.rows = self.rows.min(1);
            return;
        }
        if self.data.is_empty() {
            return;
        }
        let mut seen: HashSet<Vec<Value>> = HashSet::with_capacity(self.len());
        let mut out = Vec::with_capacity(self.data.len());
        for r in self.data.chunks_exact(w) {
            if seen.insert(r.to_vec()) {
                out.extend_from_slice(r);
            }
        }
        self.data = out;
        self.rows = self.data.len() / w;
    }

    /// Sorted copy of the rows (null sorts first).
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = self.rows().map(|r| r.to_vec()).collect();
        rows.sort();
        rows
    }
}

/// Whether the (left row, right row) pair satisfies all glue conditions.
fn pair_matches(l: &[Value], r: &[Value], glue: &[ColumnGlue]) -> bool {
    for (j, g) in glue.iter().enumerate() {
        match g {
            ColumnGlue::Glued(i) => match (l[*i], r[j]) {
                (Some(a), Some(b)) if a == b => {}
                _ => return false,
            },
            ColumnGlue::New { distinct_from, .. } => {
                if let Some(b) = r[j] {
                    for i in distinct_from {
                        if l[*i] == Some(b) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// Assembles the combined output row for a matched pair.
fn combined_row(l: &[Value], r: &[Value], glue: &[ColumnGlue], out: &mut Vec<Value>) {
    out.clear();
    out.extend_from_slice(l);
    for (j, g) in glue.iter().enumerate() {
        if matches!(g, ColumnGlue::New { .. }) {
            out.push(r[j]);
        }
    }
}

fn output_schema(left: &RowTable, glue: &[ColumnGlue]) -> Schema {
    let mut schema = left.schema().clone();
    for g in glue {
        if let ColumnGlue::New { name, .. } = g {
            schema.push(name.clone());
        }
    }
    schema
}

/// A row's glued-key columns, packed as the engine packed them when this
/// reference was frozen.
///
/// Glue arity ≤ 2 — by far the common case (patterns glue one or two
/// variables per extension) — packs into a single `u64`, avoiding a heap
/// allocation per row on the build and probe sides of every join. Wider keys
/// fall back to a `Vec`. Both sides of a join derive their key from the same
/// glue spec, so arities always agree and `Eq`/`Ord`/`Hash` are consistent:
/// the packed ordering equals the lexicographic `Vec<EntityId>` ordering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum JoinKey {
    Small(u64),
    Big(Vec<EntityId>),
}

/// Packs glued-column values into a [`JoinKey`]; `None` if any is null (a
/// null key never equi-matches).
fn pack_key(vals: impl Iterator<Item = Value>) -> Option<JoinKey> {
    let (mut a, mut b) = (0u64, 0u64);
    let mut big: Vec<EntityId> = Vec::new();
    let mut n = 0usize;
    for v in vals {
        let v = v?;
        match n {
            0 => a = u64::from(v.as_u32()),
            1 => b = u64::from(v.as_u32()),
            2 => {
                big = vec![
                    EntityId::from_u32(a as u32),
                    EntityId::from_u32(b as u32),
                    v,
                ];
            }
            _ => big.push(v),
        }
        n += 1;
    }
    Some(match n {
        0 => JoinKey::Small(0),
        1 => JoinKey::Small(a),
        2 => JoinKey::Small((a << 32) | b),
        _ => JoinKey::Big(big),
    })
}

fn right_key(r: &[Value], glue: &[ColumnGlue]) -> Option<JoinKey> {
    pack_key(
        glue.iter()
            .enumerate()
            .filter(|(_, g)| matches!(g, ColumnGlue::Glued(_)))
            .map(|(j, _)| r[j]),
    )
}

fn left_key(l: &[Value], glue: &[ColumnGlue]) -> Option<JoinKey> {
    pack_key(glue.iter().filter_map(|g| match g {
        ColumnGlue::Glued(i) => Some(l[*i]),
        ColumnGlue::New { .. } => None,
    }))
}

/// Row-at-a-time hash join with gluing semantics (fully materialized).
pub fn join_glue_rows(left: &RowTable, right: &RowTable, glue: &[ColumnGlue]) -> RowTable {
    let mut out = RowTable::new(output_schema(left, glue));

    let mut index: HashMap<JoinKey, Vec<usize>> = HashMap::new();
    for (ri, r) in right.rows().enumerate() {
        if let Some(key) = right_key(r, glue) {
            index.entry(key).or_default().push(ri);
        }
    }

    let mut row = Vec::with_capacity(out.width());
    for l in left.rows() {
        let Some(key) = left_key(l, glue) else {
            continue;
        };
        let Some(candidates) = index.get(&key) else {
            continue;
        };
        for &ri in candidates {
            let r = right.row(ri);
            if pair_matches(l, r, glue) {
                combined_row(l, r, glue, &mut row);
                out.push_row(&row);
            }
        }
    }
    out
}

/// Row-at-a-time sort–merge join (per-group key clone, as in the seed).
pub fn join_glue_sort_merge_rows(
    left: &RowTable,
    right: &RowTable,
    glue: &[ColumnGlue],
) -> RowTable {
    let mut out = RowTable::new(output_schema(left, glue));

    let mut lkeys: Vec<(JoinKey, usize)> = left
        .rows()
        .enumerate()
        .filter_map(|(i, r)| left_key(r, glue).map(|k| (k, i)))
        .collect();
    let mut rkeys: Vec<(JoinKey, usize)> = right
        .rows()
        .enumerate()
        .filter_map(|(i, r)| right_key(r, glue).map(|k| (k, i)))
        .collect();
    lkeys.sort();
    rkeys.sort();

    let mut row = Vec::with_capacity(out.width());
    let (mut li, mut ri) = (0usize, 0usize);
    while li < lkeys.len() && ri < rkeys.len() {
        match lkeys[li].0.cmp(&rkeys[ri].0) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => ri += 1,
            std::cmp::Ordering::Equal => {
                let key = lkeys[li].0.clone();
                let lhi = lkeys[li..].partition_point(|(k, _)| *k == key) + li;
                let rhi = rkeys[ri..].partition_point(|(k, _)| *k == key) + ri;
                for &(_, l_ix) in &lkeys[li..lhi] {
                    let l = left.row(l_ix);
                    for &(_, r_ix) in &rkeys[ri..rhi] {
                        let r = right.row(r_ix);
                        if pair_matches(l, r, glue) {
                            combined_row(l, r, glue, &mut row);
                            out.push_row(&row);
                        }
                    }
                }
                li = lhi;
                ri = rhi;
            }
        }
    }
    out
}

/// Row-at-a-time nested-loop join over the cross product.
pub fn join_glue_nested_rows(left: &RowTable, right: &RowTable, glue: &[ColumnGlue]) -> RowTable {
    let mut out = RowTable::new(output_schema(left, glue));
    let mut row = Vec::with_capacity(out.width());
    for l in left.rows() {
        for r in right.rows() {
            if pair_matches(l, r, glue) {
                combined_row(l, r, glue, &mut row);
                out.push_row(&row);
            }
        }
    }
    out
}

/// Row-at-a-time full outer join with gluing semantics.
pub fn outer_join_glue_rows(left: &RowTable, right: &RowTable, glue: &[ColumnGlue]) -> RowTable {
    let mut out = RowTable::new(output_schema(left, glue));

    let mut index: HashMap<JoinKey, Vec<usize>> = HashMap::new();
    for (ri, r) in right.rows().enumerate() {
        if let Some(key) = right_key(r, glue) {
            index.entry(key).or_default().push(ri);
        }
    }

    let mut right_matched = vec![false; right.len()];
    let mut row = Vec::with_capacity(out.width());

    for l in left.rows() {
        let mut l_matched = false;
        if let Some(key) = left_key(l, glue) {
            if let Some(candidates) = index.get(&key) {
                for &ri in candidates {
                    let r = right.row(ri);
                    if pair_matches(l, r, glue) {
                        combined_row(l, r, glue, &mut row);
                        out.push_row(&row);
                        l_matched = true;
                        right_matched[ri] = true;
                    }
                }
            }
        }
        if !l_matched {
            combined_row(l, &vec![None; right.width()], glue, &mut row);
            out.push_row(&row);
        }
    }

    for (ri, r) in right.rows().enumerate() {
        if right_matched[ri] {
            continue;
        }
        row.clear();
        row.resize(left.width(), None);
        for (j, g) in glue.iter().enumerate() {
            if let ColumnGlue::Glued(i) = g {
                row[*i] = r[j];
            }
        }
        for (j, g) in glue.iter().enumerate() {
            if matches!(g, ColumnGlue::New { .. }) {
                row.push(r[j]);
            }
        }
        out.push_row(&row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Value {
        Some(EntityId::from_u32(i))
    }

    #[test]
    fn round_trips_through_columnar() {
        let t = Table::from_rows(
            Schema::new(["a", "b"]),
            [vec![v(1), None], vec![v(2), v(3)]],
        );
        let rt = RowTable::from_table(&t);
        assert_eq!(rt.to_table(), t);
    }

    #[test]
    fn reference_join_matches_columnar_on_fixture() {
        let left = Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![v(1), v(10)], vec![v(2), v(20)], vec![v(3), v(10)]],
        );
        let right = Table::from_rows(
            Schema::new(["player", "new_team"]),
            [vec![v(1), v(11)], vec![v(2), v(20)], vec![v(9), v(30)]],
        );
        let glue = [
            ColumnGlue::Glued(0),
            ColumnGlue::New {
                name: "new_team".into(),
                distinct_from: vec![1],
            },
        ];
        let col = crate::join::join_glue(&left, &right, &glue);
        let row = join_glue_rows(
            &RowTable::from_table(&left),
            &RowTable::from_table(&right),
            &glue,
        );
        assert_eq!(col.sorted_rows(), row.sorted_rows());
        // The reference reproduces not just the set but the row order.
        assert_eq!(col.rows().collect::<Vec<_>>().len(), row.len());
    }
}
