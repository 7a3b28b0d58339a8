//! Columnar storage: one value vector plus a validity bitmap per column.
//!
//! The realization engine is scan- and join-bound: every candidate pattern
//! extension probes one column's values, post-filters a handful of other
//! columns, and finally gathers whole columns into the output relation.
//! A column-major layout makes each of those steps a dense sweep over a
//! `Vec<EntityId>` (4 bytes per cell) instead of strided access into
//! row-major `Option<EntityId>` cells (8 bytes each), and it makes
//! projection a column clone instead of a row-by-row copy.
//!
//! Null representation: a validity bitmap (bit set ⇔ cell holds a value)
//! over a dense value vector. Null cells store `NULL_SENTINEL` in the
//! value vector, so two columns with equal value vectors and equal bitmaps
//! are equal cell-for-cell and the derived `PartialEq`/`Hash` are sound.

use wiclean_types::EntityId;

/// A cell: an entity id, or SQL `NULL` (only produced by outer joins).
pub type Value = Option<EntityId>;

/// Row index meaning "no row" in gather index lists (pads with null).
pub const NULL_IX: u32 = u32::MAX;

/// The value stored under an invalid (null) bit. Never observable through
/// the public API; it exists so derived equality/hashing stay consistent.
const NULL_SENTINEL: EntityId = EntityId::from_u32(0);

/// A 64-bit finalizer (MurmurHash3 fmix64). Deterministic across runs and
/// platforms — the join key index and the dedup bucketing both use it.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// A packed validity bitmap (bit set = cell is non-null).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    #[inline]
    fn push(&mut self, set: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if set {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// One column of a relation: dense values plus a validity bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Column {
    values: Vec<EntityId>,
    valid: Bitmap,
    nulls: usize,
}

impl Column {
    /// An empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty column with room for `cap` cells.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            values: Vec::with_capacity(cap),
            valid: Bitmap {
                words: Vec::with_capacity(cap / 64 + 1),
                len: 0,
            },
            nulls: 0,
        }
    }

    /// An all-valid column over the given values.
    pub fn from_values(values: Vec<EntityId>) -> Self {
        let mut valid = Bitmap::default();
        for _ in 0..values.len() {
            valid.push(true);
        }
        Self {
            values,
            valid,
            nulls: 0,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of null cells.
    #[inline]
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// Whether any cell is null.
    #[inline]
    pub fn has_nulls(&self) -> bool {
        self.nulls > 0
    }

    /// Appends a cell.
    #[inline]
    pub fn push(&mut self, v: Value) {
        match v {
            Some(e) => {
                self.values.push(e);
                self.valid.push(true);
            }
            None => {
                self.values.push(NULL_SENTINEL);
                self.valid.push(false);
                self.nulls += 1;
            }
        }
    }

    /// Cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        if self.valid.get(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// Whether cell `i` is non-null.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.valid.get(i)
    }

    /// The raw value vector. Cells whose validity bit is clear hold a
    /// sentinel — pair with [`Column::is_valid`] when the column has nulls
    /// (check [`Column::has_nulls`] once to skip the bit test on the
    /// common all-valid scan).
    #[inline]
    pub fn values(&self) -> &[EntityId] {
        &self.values
    }

    /// The value of cell `i`, meaningful only when [`Column::is_valid`].
    #[inline]
    pub fn value_unchecked(&self, i: usize) -> EntityId {
        self.values[i]
    }

    /// Gathers `idx` into a new column; [`NULL_IX`] entries become null
    /// cells (outer-join padding).
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut out = Column::with_capacity(idx.len());
        if self.has_nulls() {
            for &i in idx {
                if i == NULL_IX {
                    out.push(None);
                } else {
                    out.push(self.get(i as usize));
                }
            }
        } else {
            // All-valid source: skip the per-cell bit test.
            for &i in idx {
                if i == NULL_IX {
                    out.push(None);
                } else {
                    out.push(Some(self.values[i as usize]));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Value {
        Some(EntityId::from_u32(i))
    }

    #[test]
    fn push_get_round_trip() {
        let mut c = Column::new();
        c.push(v(3));
        c.push(None);
        c.push(v(0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), v(3));
        assert_eq!(c.get(1), None);
        assert_eq!(c.get(2), v(0), "entity 0 is distinct from null");
        assert_eq!(c.null_count(), 1);
        assert!(c.has_nulls());
    }

    #[test]
    fn equality_ignores_nothing_but_cells() {
        let mut a = Column::new();
        let mut b = Column::new();
        a.push(None);
        b.push(v(0));
        // Null and entity-0 store the same raw value but differ by bitmap.
        assert_ne!(a, b);
    }

    #[test]
    fn gather_with_null_sentinel() {
        let mut c = Column::new();
        for i in 0..70 {
            c.push(v(i));
        }
        let g = c.gather(&[69, NULL_IX, 0]);
        assert_eq!(g.get(0), v(69));
        assert_eq!(g.get(1), None);
        assert_eq!(g.get(2), v(0));
        assert_eq!(g.null_count(), 1);
    }

    #[test]
    fn bitmap_crosses_word_boundaries() {
        let mut c = Column::new();
        for i in 0..130 {
            c.push(if i % 3 == 0 { None } else { v(i) });
        }
        for i in 0..130u32 {
            if i % 3 == 0 {
                assert_eq!(c.get(i as usize), None);
            } else {
                assert_eq!(c.get(i as usize), v(i));
            }
        }
    }
}
