//! The join key index shared by every hash pair stage.
//!
//! [`KeyIndex`] is a flat chained hash index over the build rows of one
//! join side: a power-of-two `head` array of bucket → first slot (and a
//! `tail` array of bucket → last slot), and one `Slot` per indexed build
//! row holding the row, its 64-bit key hash, and the next slot of its
//! bucket's chain. Building it allocates a few arrays, never one per key.
//!
//! The index owns no column: it is built and probed with the glued key
//! columns of its side ([`KeyCols`]), so one index can outlive a borrow of
//! its table. A transient join builds one and drops it; the streaming
//! miner keeps one per append-only table and key-column list and
//! [`KeyIndex::extend`]s it as the table grows.
//!
//! * **Ordering.** Slots are laid down in ascending build-row order and
//!   each one is appended at its bucket's tail, so every chain — and
//!   therefore every key's run of matches within a chain — is ascending.
//!   Probing in probe-row order thus yields the canonical pair order the
//!   nested loop also emits. A rehash re-threads the slots in slot order,
//!   which keeps the chains ascending.
//! * **Growth.** Extending appends slots; once there are more slots than
//!   buckets, the head array doubles (or more) and every slot is
//!   re-threaded, so the load factor stays at most one.
//! * **Collisions.** The hash only picks the bucket and pre-screens slots;
//!   a match is decided by comparing the glued column values exactly, so
//!   keys sharing a bucket or even a hash never cross-match.
//! * **Nulls.** A row with a null in any glued column has no key: it is
//!   never indexed and never probes.

use crate::column::{mix64, Column};
use crate::table::Table;
use std::cmp::Ordering;
use std::ops::Range;

const KEY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The glued key columns of one join side, in glue order.
#[derive(Clone)]
pub struct KeyCols<'a>(pub(crate) Vec<&'a Column>);

impl<'a> KeyCols<'a> {
    /// The columns `cols` of `table`, in that order.
    pub fn new(table: &'a Table, cols: &[usize]) -> Self {
        Self(cols.iter().map(|&c| table.col(c)).collect())
    }

    /// The key hash of row `i`, or `None` if any key column is null there.
    /// Keys of up to two columns pack into one word before a single
    /// [`mix64`] (a bijection, so such keys never collide); wider keys fold
    /// one round per column.
    #[inline]
    pub(crate) fn hash(&self, i: usize) -> Option<u64> {
        let word = |c: &Column| {
            c.is_valid(i)
                .then(|| u64::from(c.value_unchecked(i).as_u32()))
        };
        match self.0.as_slice() {
            [] => Some(mix64(KEY_SEED)),
            [a] => Some(mix64(word(a)? ^ KEY_SEED)),
            [a, b] => Some(mix64(((word(a)? << 32) | word(b)?) ^ KEY_SEED)),
            cols => cols
                .iter()
                .try_fold(KEY_SEED, |h, c| Some(mix64(h ^ word(c)?))),
        }
    }

    /// Lexicographic order of row `i`'s key against row `j` of `other`.
    /// Both rows must have a key (no null glued column).
    #[inline]
    pub(crate) fn cmp(&self, i: usize, other: &KeyCols, j: usize) -> Ordering {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| a.value_unchecked(i).cmp(&b.value_unchecked(j)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

const NO_SLOT: u32 = u32::MAX;

/// One indexed build row.
#[derive(Clone, Copy)]
struct Slot {
    hash: u64,
    row: u32,
    next: u32,
}

/// A flat chained hash index over the rows `0..end()` of one join side
/// (see the module docs).
pub struct KeyIndex {
    /// Bucket → first slot of its chain (`NO_SLOT` if empty).
    head: Vec<u32>,
    /// Bucket → last slot of its chain (meaningless where `head` is empty).
    tail: Vec<u32>,
    slots: Vec<Slot>,
    /// Rows considered so far: every keyed row below it is indexed.
    end: usize,
}

impl Default for KeyIndex {
    fn default() -> Self {
        Self::with_buckets(1)
    }
}

impl KeyIndex {
    fn with_buckets(n: usize) -> Self {
        Self {
            head: vec![NO_SLOT; n],
            tail: vec![NO_SLOT; n],
            slots: Vec::new(),
            end: 0,
        }
    }

    /// Indexes the keyed rows among `rows` of the side whose key columns
    /// are `keys`, sized for them up front. Rows with a null key are
    /// skipped.
    pub(crate) fn build(keys: &KeyCols, rows: Range<usize>) -> Self {
        let mut index = Self::with_buckets(rows.len().next_power_of_two());
        index.end = rows.start;
        index.extend(keys, rows);
        index
    }

    /// Indexes the keyed rows among `rows`, which must lie at or past
    /// every row indexed so far; afterwards [`KeyIndex::end`] is
    /// `rows.end`. Rehashes when the slots outgrow the buckets.
    pub fn extend(&mut self, keys: &KeyCols, rows: Range<usize>) {
        assert!(
            rows.start >= self.end,
            "an index extends only past the rows it holds"
        );
        let hashed = rows
            .clone()
            .filter_map(|row| keys.hash(row).map(|h| (h, row as u32)));
        self.append(hashed);
        self.end = rows.end;
    }

    /// Appends one slot per `(hash, row)`, rows ascending, and threads
    /// them onto their chains' tails.
    fn append(&mut self, hashed: impl IntoIterator<Item = (u64, u32)>) {
        let first = self.slots.len();
        self.slots
            .extend(hashed.into_iter().map(|(hash, row)| Slot {
                hash,
                row,
                next: NO_SLOT,
            }));
        if self.slots.len() > self.head.len() {
            let n = self.slots.len().next_power_of_two();
            *self = Self {
                slots: std::mem::take(&mut self.slots),
                end: self.end,
                ..Self::with_buckets(n)
            };
            self.thread(0);
        } else {
            self.thread(first);
        }
    }

    /// Threads slots `first..` onto the tails of their bucket chains.
    fn thread(&mut self, first: usize) {
        let mask = self.head.len() as u64 - 1;
        for s in first..self.slots.len() {
            let b = (self.slots[s].hash & mask) as usize;
            match self.head[b] {
                NO_SLOT => self.head[b] = s as u32,
                _ => self.slots[self.tail[b] as usize].next = s as u32,
            }
            self.tail[b] = s as u32;
        }
    }

    /// The rows the index covers: `0..end()`.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Whether no indexed row has a key.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Calls `f` with every indexed row whose key (in `keys`, the indexed
    /// side's key columns) equals probe row `i` of `probe`, in ascending
    /// row order. Null probe keys match nothing.
    #[inline]
    pub(crate) fn probe(&self, keys: &KeyCols, probe: &KeyCols, i: usize, f: impl FnMut(u32)) {
        if let Some(h) = probe.hash(i) {
            self.probe_hashed(h, keys, probe, i, f);
        }
    }

    /// [`KeyIndex::probe`] with the probe key's hash already computed.
    #[inline]
    fn probe_hashed(
        &self,
        h: u64,
        keys: &KeyCols,
        probe: &KeyCols,
        i: usize,
        mut f: impl FnMut(u32),
    ) {
        let mask = self.head.len() as u64 - 1;
        let mut s = self.head[(h & mask) as usize];
        while s != NO_SLOT {
            let slot = self.slots[s as usize];
            if slot.hash == h && keys.cmp(slot.row as usize, probe, i).is_eq() {
                f(slot.row);
            }
            s = slot.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiclean_types::EntityId;

    /// One column of `cells`, 0 standing for null.
    fn col(cells: &[u32]) -> Column {
        let mut c = Column::new();
        for &v in cells {
            c.push((v > 0).then(|| EntityId::from_u32(v)));
        }
        c
    }

    /// The keyed rows of `keys` among `0..n` whose key equals row `i`'s.
    fn same_key(keys: &KeyCols, n: usize, i: usize) -> Vec<u32> {
        (0..n)
            .filter(|&r| keys.hash(r).is_some() && keys.cmp(r, keys, i).is_eq())
            .map(|r| r as u32)
            .collect()
    }

    #[test]
    fn every_key_in_one_bucket_still_matches_exactly() {
        // Three-column keys with repeats and nulls; every slot is given
        // hash 0, so all rows share one bucket and one hash, and only the
        // exact column comparison separates the keys.
        let (a, b, c) = (
            col(&[1, 1, 2, 0, 1, 2, 1]),
            col(&[5, 5, 5, 5, 6, 5, 5]),
            col(&[7, 7, 7, 7, 7, 0, 8]),
        );
        let keys = KeyCols(vec![&a, &b, &c]);
        let keyed: Vec<u32> = (0..7)
            .filter(|&r| keys.hash(r).is_some())
            .map(|r| r as u32)
            .collect();
        let mut index = KeyIndex::default();
        index.append(keyed.iter().map(|&r| (0, r)));
        for &i in &keyed {
            let mut got = Vec::new();
            index.probe_hashed(0, &keys, &keys, i as usize, |r| got.push(r));
            assert_eq!(got, same_key(&keys, 7, i as usize), "probe row {i}");
        }
        let mut first_key = Vec::new();
        index.probe_hashed(0, &keys, &keys, 0, |r| first_key.push(r));
        assert_eq!(first_key, vec![0, 1], "rows 4 and 6 differ in one column");
    }

    #[test]
    fn extending_across_a_resize_keeps_probes_exact_and_ascending() {
        // 40 rows over 5 keys (and some nulls), every slot hashed to 0 so
        // all keys share one bucket; appended in uneven steps that cross
        // several head resizes.
        let cells: Vec<u32> = (0..40)
            .map(|r| if r % 7 == 3 { 0 } else { 1 + r % 5 })
            .collect();
        let (a, b) = (col(&cells), col(&[9; 40]));
        let keys = KeyCols(vec![&a, &b]);
        let mut index = KeyIndex::default();
        let mut end = 0;
        for step in [1, 2, 1, 5, 9, 3, 19] {
            let rows = end..end + step;
            let keyed = rows.clone().filter(|&r| keys.hash(r).is_some());
            index.append(keyed.map(|r| (0, r as u32)));
            end = rows.end;
            assert!(
                index.slots.len() <= index.head.len(),
                "load factor above one"
            );
            for i in (0..end).filter(|&r| keys.hash(r).is_some()) {
                let mut got = Vec::new();
                index.probe_hashed(0, &keys, &keys, i, |r| got.push(r));
                assert_eq!(
                    got,
                    same_key(&keys, end, i),
                    "probe row {i} after {end} rows"
                );
            }
        }
        assert!(index.head.len() >= 32, "the head was resized");

        // With real hashes, the same steps through `extend` match one
        // build over every row.
        let built = KeyIndex::build(&keys, 0..40);
        let mut grown = KeyIndex::default();
        for rows in [0..1, 1..3, 3..3, 3..21, 21..40] {
            grown.extend(&keys, rows);
        }
        assert_eq!(grown.end(), 40);
        for i in 0..40 {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            built.probe(&keys, &keys, i, |r| want.push(r));
            grown.probe(&keys, &keys, i, |r| got.push(r));
            assert_eq!(got, want, "probe row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "only past the rows it holds")]
    fn extending_backwards_is_refused() {
        let a = col(&[1, 2, 3]);
        let keys = KeyCols(vec![&a]);
        let mut index = KeyIndex::build(&keys, 0..3);
        index.extend(&keys, 1..3);
    }
}
