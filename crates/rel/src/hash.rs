//! Deterministic fast hashing for the engine's internal maps and sets.
//!
//! The columnar operators key their maps by [`EntityId`]s and premixed
//! 64-bit row hashes — short, non-adversarial keys for
//! which std's SipHash (and its per-process `RandomState` seed) costs far
//! more than it buys. A single multiply-mix round (`mix64`) disperses
//! these keys just as well, and deterministically across runs.

use crate::column::mix64;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use wiclean_types::EntityId;

/// A [`Hasher`] applying one `mix64` round per written word.
#[derive(Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            // Fold the chunk length in so prefixes hash differently.
            self.0 = mix64(self.0 ^ u64::from_le_bytes(word) ^ ((chunk.len() as u64) << 56));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// [`BuildHasherDefault`] over [`FastHasher`] — seed-free, so identical
/// keys hash identically in every process.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A [`HashMap`] using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A [`HashSet`] using [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuild>;

/// The distinct-entity sets produced by the engine's `COUNT(DISTINCT)`
/// paths ([`crate::Table::distinct_values`],
/// [`crate::distinct_left_values`]).
pub type EntitySet = FastSet<EntityId>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        let h = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn entity_set_behaves_as_set() {
        let mut s = EntitySet::default();
        for i in 0..100u32 {
            s.insert(EntityId::from_u32(i % 10));
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn byte_writes_distinguish_prefixes() {
        let h = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
