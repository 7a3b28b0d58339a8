//! The miner's open/ingest path for out-of-core sharded corpora.
//!
//! A mining run that reads its corpus from a sharded store directory (see
//! [`wiclean_revstore::ShardedStore`]) must surface exactly what the
//! per-shard recovery kept and dropped: a shard's lost tail is coverage
//! the run can no longer observe. This module glues the sharded
//! store to the run accounting so every caller (CLI, eval drivers, the
//! `corpus_scale` run, tests) reports identically, and provides the parallel
//! per-shard ingest that converts an in-memory [`RevisionStore`] into
//! segment logs on the shared [`MiningPool`].

use crate::degraded::DegradedCoverage;
use crate::miner::MineStats;
use crate::pool::MiningPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wiclean_revstore::{
    MemoryBudget, RevisionStore, ShardPolicy, ShardRecoveryReport, ShardedStore, Vfs, WalError,
};
use wiclean_types::EntityId;

/// A sharded store opened from a directory, with the per-shard recovery
/// accounting still attached.
pub struct ShardedCorpus<V: Vfs> {
    /// The opened (valid-per-shard-prefix) store.
    pub store: ShardedStore<V>,
    /// What each shard's scan found, kept, and dropped.
    pub recovery: ShardRecoveryReport,
}

impl<V: Vfs> ShardedCorpus<V> {
    /// Stamps the recovery's per-shard losses into a run's degraded
    /// coverage — call once before mining over the store.
    pub fn stamp(&self, degraded: &mut DegradedCoverage) {
        degraded.record_shard_recovery(&self.recovery);
    }

    /// Stamps the store's I/O and cache counters into a run's mining
    /// stats — call once after mining, when the counters reflect the run.
    pub fn stamp_stats(&self, stats: &mut MineStats) {
        stats.stamp_corpus(&self.store.corpus_stats());
    }
}

/// Opens (recovering damaged shard tails if necessary) the sharded store
/// in `dir`. Per-shard damage never refuses the open: shards are
/// independent files, so a torn tail in one costs only that shard's suffix
/// and lands in the attached [`ShardRecoveryReport`].
pub fn open_sharded_corpus<V: Vfs + Clone>(
    fs: V,
    dir: &std::path::Path,
    policy: ShardPolicy,
    budget: Arc<MemoryBudget>,
) -> Result<ShardedCorpus<V>, WalError> {
    let (store, recovery) = ShardedStore::open(fs, dir, policy, budget)?;
    Ok(ShardedCorpus { store, recovery })
}

/// Ingests every history of an in-memory store into a sharded store,
/// parallelized per shard on `pool`: entities are partitioned by their
/// destination shard, and each shard's partition appends under that
/// shard's lock only — shards never contend with each other. Entities are
/// visited in id order within each shard, so the resulting segment bytes
/// are deterministic for a given source store and shard count.
///
/// Returns the number of revisions ingested. The store is flushed (every
/// segment fsynced) before returning, so a subsequent crash loses nothing.
pub fn ingest_sharded<V: Vfs + Sync>(
    pool: &MiningPool,
    source: &RevisionStore,
    dest: &ShardedStore<V>,
) -> Result<u64, WalError> {
    let shards = dest.policy().shards as usize;
    let mut entities: Vec<EntityId> = source.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    let mut partitions: Vec<Vec<EntityId>> = vec![Vec::new(); shards];
    for entity in entities {
        partitions[dest.shard_of(entity) as usize].push(entity);
    }

    let ingested = AtomicU64::new(0);
    let failure: Mutex<Option<WalError>> = Mutex::new(None);
    pool.run_batch(shards, &|shard| {
        for &entity in &partitions[shard] {
            let Some(history) = source.peek(entity) else {
                continue;
            };
            let result = dest.append_history(
                entity,
                history
                    .revisions()
                    .iter()
                    .map(|r| (r.time, r.text.as_str())),
            );
            match result {
                Ok(()) => {
                    ingested.fetch_add(history.len() as u64, Ordering::Relaxed);
                }
                Err(e) => {
                    failure.lock().unwrap().get_or_insert(e);
                    return;
                }
            }
        }
    });
    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    dest.flush()?;
    Ok(ingested.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use wiclean_revstore::{FetchSource, MemFs};

    fn source_store() -> RevisionStore {
        let mut store = RevisionStore::new();
        for i in 0..40u32 {
            let e = EntityId::from_u32(i);
            for rev in 0..5u64 {
                store.record(e, rev * 7, format!("[[Page {i}]] revision {rev}"));
            }
        }
        store
    }

    #[test]
    fn parallel_ingest_round_trips_every_history() {
        let fs = Arc::new(MemFs::new());
        let source = source_store();
        let dest = ShardedStore::create(
            fs,
            &PathBuf::from("/corpus"),
            ShardPolicy {
                shards: 4,
                ..ShardPolicy::default()
            },
            Arc::new(MemoryBudget::new(8 << 20)),
        )
        .unwrap();
        let pool = MiningPool::new(3);
        let n = ingest_sharded(&pool, &source, &dest).unwrap();
        assert_eq!(n, 200);
        assert_eq!(dest.page_count(), 40);
        for i in 0..40u32 {
            let e = EntityId::from_u32(i);
            let got = dest.materialize(e).unwrap().unwrap();
            assert_eq!(got.revisions(), source.peek(e).unwrap().revisions());
        }
    }

    #[test]
    fn open_stamps_shard_losses_into_run_accounting() {
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/corpus");
        let policy = ShardPolicy {
            shards: 2,
            ..ShardPolicy::default()
        };
        let source = source_store();
        {
            let dest = ShardedStore::create(
                fs.clone(),
                &dir,
                policy,
                Arc::new(MemoryBudget::new(8 << 20)),
            )
            .unwrap();
            let pool = MiningPool::new(1);
            ingest_sharded(&pool, &source, &dest).unwrap();
        }
        // Tear the tail of shard 0's segment.
        let seg = dir.join("shard-0000.seg");
        let len = fs.len(&seg).unwrap();
        fs.truncate(&seg, len - 3).unwrap();

        let corpus =
            open_sharded_corpus(fs, &dir, policy, Arc::new(MemoryBudget::new(8 << 20))).unwrap();
        assert!(!corpus.recovery.is_clean());

        let mut degraded = DegradedCoverage::default();
        corpus.stamp(&mut degraded);
        assert!(!degraded.is_empty(), "shard damage is degraded coverage");
        assert_eq!(degraded.shard_losses.len(), 1);
        assert_eq!(degraded.shard_losses[0].shard, 0);

        // Fetch something so the crawl counters move, then stamp stats.
        let fetched = corpus
            .store
            .fetch_history(EntityId::from_u32(1))
            .unwrap()
            .expect("entity 1 survives the torn tail");
        let crawl = corpus.store.crawl_stats();
        assert_eq!(crawl.pages_fetched, 1);
        assert_eq!(crawl.revisions_scanned, fetched.len() as u64);
        assert!(crawl.bytes_scanned > 0);
        let mut stats = MineStats::default();
        corpus.stamp_stats(&mut stats);
        assert!(stats.bytes_on_disk > 0);
    }
}
