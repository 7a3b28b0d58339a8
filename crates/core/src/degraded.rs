//! Degraded-coverage accounting: exactly what a mining run lost when the
//! fetch layer failed.
//!
//! The ROADMAP's production posture requires the miner to *finish* with
//! partial data and say precisely what is missing, never to abort. Every
//! entity whose history could not be fetched is recorded here, together
//! with the recoverable parse defects healed along the way and whether the
//! loss can bias the frequency denominators of Def. 3.2 (a lost entity of
//! the seed type still counts in `|entities(t)|` but can no longer
//! contribute realizations, silently deflating every frequency).

use serde::{Deserialize, Serialize};
use wiclean_revstore::{FetchError, ShardLoss, ShardRecoveryReport};
use wiclean_types::EntityId;

/// One entity the miner had to skip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LostEntity {
    /// The unfetchable entity.
    pub entity: EntityId,
    /// The terminal fetch error.
    pub error: FetchError,
    /// Revisions known to be lost with it (0 when unknown).
    pub revisions_lost: u64,
}

/// What a mining run lost to fetch failures and damaged text.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedCoverage {
    /// Entities skipped because their histories could not be fetched,
    /// sorted by entity id and deduplicated.
    pub lost: Vec<LostEntity>,
    /// Recoverable markup defects healed by the parser across the
    /// snapshots the extractions read (truncated downloads, broken
    /// closers): each window's base snapshot and in-window revisions, and
    /// nothing for an entity with no revision in the window.
    pub parse_issues: u64,
    /// Whether any lost entity belongs to the seed type, i.e. the
    /// frequency denominator counts entities the run could not observe.
    pub denominator_affected: bool,
    /// Revisions that arrived on a stream after their window had already
    /// sealed (event time at or below the watermark). They are counted —
    /// never silently dropped — because each one is coverage the sealed
    /// result can no longer reflect.
    #[serde(default)]
    pub late_revisions: u64,
    /// Per-shard losses of an out-of-core corpus recovery: shards whose
    /// segment lost a torn or corrupt tail when the store was reopened.
    /// Shards are independent files, so each entry bounds the blast radius
    /// of one crash to one shard.
    #[serde(default)]
    pub shard_losses: Vec<ShardLoss>,
}

impl DegradedCoverage {
    /// Whether coverage is complete: nothing lost, nothing healed, and no
    /// recovery damage.
    pub fn is_empty(&self) -> bool {
        self.lost.is_empty()
            && self.parse_issues == 0
            && self.late_revisions == 0
            && self.shard_losses.is_empty()
    }

    /// Records a skipped entity.
    pub fn record_loss(&mut self, entity: EntityId, error: FetchError) {
        let revisions_lost = match error {
            FetchError::Gone { revisions_lost } => revisions_lost,
            _ => 0,
        };
        self.lost.push(LostEntity {
            entity,
            error,
            revisions_lost,
        });
    }

    /// Number of entities lost.
    pub fn entities_lost(&self) -> usize {
        self.lost.len()
    }

    /// Total revisions known to be lost.
    pub fn revisions_lost(&self) -> u64 {
        self.lost.iter().map(|l| l.revisions_lost).sum()
    }

    /// Sorts losses by entity id and drops exact duplicates (the same
    /// entity can be lost by several windows).
    pub fn normalize(&mut self) {
        self.lost.sort_by_key(|l| l.entity.as_u32());
        self.lost.dedup();
        self.shard_losses.sort_by_key(|l| l.shard);
        self.shard_losses.dedup();
    }

    /// Merges another run's losses into this one.
    pub fn absorb(&mut self, other: &DegradedCoverage) {
        self.lost.extend(other.lost.iter().cloned());
        self.parse_issues += other.parse_issues;
        self.denominator_affected |= other.denominator_affected;
        self.late_revisions += other.late_revisions;
        self.shard_losses.extend(other.shard_losses.iter().copied());
        self.normalize();
    }

    /// Folds a sharded store's recovery into the coverage report: each
    /// damaged shard lands as its own entry, so a report reader sees which
    /// segment lost bytes and how its scan ended.
    pub fn record_shard_recovery(&mut self, recovery: &ShardRecoveryReport) {
        self.shard_losses.extend(recovery.losses.iter().copied());
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eid(i: u32) -> EntityId {
        EntityId::from_u32(i)
    }

    #[test]
    fn records_and_normalizes() {
        let mut d = DegradedCoverage::default();
        assert!(d.is_empty());
        d.record_loss(eid(3), FetchError::Exhausted { attempts: 4 });
        d.record_loss(eid(1), FetchError::Gone { revisions_lost: 9 });
        d.record_loss(eid(3), FetchError::Exhausted { attempts: 4 }); // dup
        d.normalize();
        assert_eq!(d.entities_lost(), 2);
        assert_eq!(d.revisions_lost(), 9);
        assert_eq!(d.lost[0].entity, eid(1));
        assert!(!d.is_empty());
    }

    #[test]
    fn shard_recovery_lands_per_shard() {
        use wiclean_revstore::TailOutcome;
        let mut d = DegradedCoverage::default();
        let rec = ShardRecoveryReport {
            shards: 4,
            records_recovered: 10,
            losses: vec![
                ShardLoss {
                    shard: 2,
                    bytes_dropped: 17,
                    outcome: TailOutcome::TornTail,
                },
                ShardLoss {
                    shard: 0,
                    bytes_dropped: 40,
                    outcome: TailOutcome::CorruptFrame,
                },
            ],
        };
        d.record_shard_recovery(&rec);
        assert!(!d.is_empty());
        assert_eq!(d.shard_losses.len(), 2);
        assert_eq!(d.shard_losses[0].shard, 0, "normalized by shard id");
        // Absorbing the same losses again dedups back to two entries.
        let copy = d.clone();
        d.absorb(&copy);
        assert_eq!(d.shard_losses.len(), 2);
    }

    #[test]
    fn absorb_merges_and_dedups() {
        let mut a = DegradedCoverage::default();
        a.record_loss(eid(1), FetchError::Transient);
        a.parse_issues = 2;
        let mut b = DegradedCoverage::default();
        b.record_loss(eid(1), FetchError::Transient);
        b.record_loss(eid(2), FetchError::Gone { revisions_lost: 1 });
        b.denominator_affected = true;
        a.absorb(&b);
        assert_eq!(a.entities_lost(), 2);
        assert_eq!(a.parse_issues, 2);
        assert!(a.denominator_affected);
    }
}
