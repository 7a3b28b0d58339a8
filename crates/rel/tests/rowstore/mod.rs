//! The row-oriented reference engine.
//!
//! The pre-columnar implementation of `Table`/`join_glue`, kept as the
//! row-at-a-time oracle the property suite compares the columnar engine
//! against under set semantics: a flat row-major `Vec<Value>` buffer,
//! fully materialized joins, `Vec`-keyed join indexes and dedup. It is
//! deliberately unoptimized.

use std::collections::{HashMap, HashSet};
use wiclean_rel::{ColumnGlue, Schema, Table, Value};
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

/// A row's glued-key values in glue order; `None` if any is null (a null
/// key never equi-matches).
type JoinKey = Vec<EntityId>;

fn right_key(r: &[Value], glue: &[ColumnGlue]) -> Option<JoinKey> {
    glue.iter()
        .enumerate()
        .filter(|(_, g)| matches!(g, ColumnGlue::Glued(_)))
        .map(|(j, _)| r[j])
        .collect()
}

fn left_key(l: &[Value], glue: &[ColumnGlue]) -> Option<JoinKey> {
    glue.iter()
        .filter_map(|g| match g {
            ColumnGlue::Glued(i) => Some(l[*i]),
            ColumnGlue::New { .. } => None,
        })
        .collect()
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
        let col = wiclean_rel::join_glue(&left, &right, &glue);
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
