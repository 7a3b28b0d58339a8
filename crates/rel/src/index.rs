//! The join key index shared by every hash pair stage.
//!
//! [`KeyIndex`] is a flat chained hash index over the build rows of one
//! join side: a power-of-two `head` array of bucket → first slot, and one
//! [`Slot`] per indexed build row holding the row, its 64-bit key hash, and
//! the next slot of its bucket's chain. Building it allocates two arrays,
//! never one per key.
//!
//! * **Ordering.** Slots are laid down in ascending build-row order and
//!   chained by prepending in *reverse* slot order, so every chain — and
//!   therefore every key's run of matches within a chain — is ascending.
//!   Probing in probe-row order thus yields the canonical pair order each
//!   strategy reproduces.
//! * **Collisions.** The hash only picks the bucket and pre-screens slots;
//!   a match is decided by comparing the glued column values exactly, so
//!   keys sharing a bucket or even a hash never cross-match.
//! * **Nulls.** A row with a null in any glued column has no key: it is
//!   never indexed and never probes.

use crate::column::{mix64, Column};
use std::cmp::Ordering;

const KEY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The glued key columns of one join side, in glue order.
#[derive(Clone)]
pub(crate) struct KeyCols<'a>(pub(crate) Vec<&'a Column>);

impl KeyCols<'_> {
    /// The key hash of row `i`, or `None` if any key column is null there.
    /// Keys of up to two columns pack into one word before a single
    /// [`mix64`] (a bijection, so such keys never collide); wider keys fold
    /// one round per column. Seed-free: radix partitions derive from it.
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
pub(crate) struct Slot {
    hash: u64,
    row: u32,
    next: u32,
}

/// One [`Slot`] per keyed row among `rows`, scattered into `parts`
/// partitions by `part(key hash)`; rows stay ascending within each
/// partition. Rows with a null key are skipped.
pub(crate) fn scatter(
    keys: &KeyCols,
    rows: std::ops::Range<usize>,
    parts: usize,
    part: impl Fn(u64) -> usize,
) -> Vec<Vec<Slot>> {
    let mut out = vec![Vec::with_capacity(rows.len() / parts); parts];
    for row in rows {
        if let Some(hash) = keys.hash(row) {
            out[part(hash)].push(Slot {
                hash,
                row: row as u32,
                next: NO_SLOT,
            });
        }
    }
    out
}

/// A flat chained hash index over build rows (see the module docs).
pub(crate) struct KeyIndex<'a> {
    keys: KeyCols<'a>,
    /// Bucket → first slot of its chain (`NO_SLOT` if empty).
    head: Vec<u32>,
    slots: Vec<Slot>,
}

impl<'a> KeyIndex<'a> {
    /// Indexes the keyed rows among `rows` of the side whose key columns
    /// are `keys`, as one partition.
    pub(crate) fn build(keys: KeyCols<'a>, rows: std::ops::Range<usize>) -> Self {
        let slots = scatter(&keys, rows, 1, |_| 0).pop().unwrap_or_default();
        Self::chain(keys, slots)
    }

    /// Threads one partition's [`scatter`]ed `slots` into bucket chains.
    /// Prepending in reverse slot order leaves every chain ascending.
    pub(crate) fn chain(keys: KeyCols<'a>, mut slots: Vec<Slot>) -> Self {
        let mask = slots.len().next_power_of_two() as u64 - 1;
        let mut head = vec![NO_SLOT; mask as usize + 1];
        for (s, slot) in slots.iter_mut().enumerate().rev() {
            let b = &mut head[(slot.hash & mask) as usize];
            slot.next = *b;
            *b = s as u32;
        }
        Self { keys, head, slots }
    }

    /// Whether no build row has a key.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Calls `f` with every build row whose key equals probe row `i` of
    /// `probe`, in ascending row order. Null probe keys match nothing.
    #[inline]
    pub(crate) fn probe(&self, probe: &KeyCols, i: usize, f: impl FnMut(u32)) {
        if let Some(h) = probe.hash(i) {
            self.probe_hashed(h, probe, i, f);
        }
    }

    /// [`KeyIndex::probe`] with the probe key's hash already computed.
    #[inline]
    pub(crate) fn probe_hashed(&self, h: u64, probe: &KeyCols, i: usize, mut f: impl FnMut(u32)) {
        let mask = self.head.len() as u64 - 1;
        let mut s = self.head[(h & mask) as usize];
        while s != NO_SLOT {
            let slot = self.slots[s as usize];
            if slot.hash == h && self.keys.cmp(slot.row as usize, probe, i).is_eq() {
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

    #[test]
    fn every_key_in_one_bucket_still_matches_exactly() {
        // Three-column keys with repeats and nulls (0 = null); every slot
        // is given hash 0, so all rows share one bucket and one hash, and
        // only the exact column comparison separates the keys.
        let col = |cells: [u32; 7]| {
            let mut c = Column::new();
            for v in cells {
                c.push((v > 0).then(|| EntityId::from_u32(v)));
            }
            c
        };
        let (a, b, c) = (
            col([1, 1, 2, 0, 1, 2, 1]),
            col([5, 5, 5, 5, 6, 5, 5]),
            col([7, 7, 7, 7, 7, 0, 8]),
        );
        let keys = KeyCols(vec![&a, &b, &c]);
        let keyed: Vec<u32> = (0..7)
            .filter(|&r| keys.hash(r).is_some())
            .map(|r| r as u32)
            .collect();
        let mut slots = scatter(&keys, 0..7, 1, |_| 0).pop().unwrap();
        slots.iter_mut().for_each(|s| s.hash = 0);
        let index = KeyIndex::chain(keys.clone(), slots);
        for &i in &keyed {
            let mut got = Vec::new();
            index.probe_hashed(0, &keys, i as usize, |r| got.push(r));
            let same = |&&r: &&u32| keys.cmp(r as usize, &keys, i as usize).is_eq();
            let want: Vec<u32> = keyed.iter().filter(same).copied().collect();
            assert_eq!(got, want, "probe row {i}");
        }
        let mut first_key = Vec::new();
        index.probe_hashed(0, &keys, 0, |r| first_key.push(r));
        assert_eq!(first_key, vec![0, 1], "rows 4 and 6 differ in one column");
    }
}
