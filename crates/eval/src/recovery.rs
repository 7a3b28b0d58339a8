//! Crash-recovery sweep: the sharded revision store under injected
//! storage faults.
//!
//! A synthetic corpus is flattened into a deterministic ingestion stream
//! and appended to a [`wiclean_revstore::ShardedStore`] over an in-memory
//! filesystem, across a grid of fault class × segment sync policy. Each
//! cell then reopens the directory and audits the outcome against clean
//! in-memory ingestion, shard by shard:
//!
//! * the recovered store must equal clean ingestion of, per shard, an
//!   exact prefix (of whatever length the shard kept) of the appends that
//!   shard received;
//! * any fault that cost acknowledged records must be *detected* —
//!   visible as a shard loss in the
//!   [`wiclean_revstore::ShardRecoveryReport`] — except pure power loss of
//!   never-synced bytes, which legitimately shortens a log cleanly;
//! * recovery must never refuse a directory whose `meta.json` is intact
//!   (no injected fault touches it, so the sweep stops on a refusal).
//!
//! A cell where corrupt data is accepted as valid (`undetected_corruption`)
//! is the failure mode this sweep exists to catch; the `recovery` binary
//! exits nonzero on any such cell, and CI runs it at a fixed seed.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wiclean_revstore::{
    mix64, FailKind, FailOp, FailSpec, FailpointFs, MemFs, MemoryBudget, RevisionStore,
    ShardPolicy, ShardedStore, SyncPolicy, Vfs,
};
use wiclean_synth::{generate, DomainSpec, SynthConfig};
use wiclean_types::{EntityId, Timestamp};

/// Shards of every sweep store: enough that a fault in one shard leaves
/// others to check for collateral damage.
const SWEEP_SHARDS: u32 = 4;

/// The storage-fault classes the sweep injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// No faults: the differential baseline.
    None,
    /// One segment append torn mid-frame partway through ingestion.
    TornAppend,
    /// A bit flipped inside one shard's segment after a clean shutdown.
    SegmentBitFlip,
    /// Seeded storm of torn appends and failed syncs during ingestion.
    FaultStorm,
    /// Power loss: every byte not yet fsynced vanishes.
    PowerLoss,
}

/// All sweep fault classes, in report order.
pub const ALL_FAULT_CLASSES: [FaultClass; 5] = [
    FaultClass::None,
    FaultClass::TornAppend,
    FaultClass::SegmentBitFlip,
    FaultClass::FaultStorm,
    FaultClass::PowerLoss,
];

/// One cell of the fault-class × sync-policy grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCell {
    /// Injected fault class.
    pub fault: FaultClass,
    /// Segment sync policy label (`always`, `every4`, `never`).
    pub sync: String,
    /// Records in the full ingestion stream.
    pub records_total: u64,
    /// Records the store acknowledged before ingestion stopped (equals
    /// `records_total` unless a fault wedged a shard).
    pub records_acked: u64,
    /// Records the recovered store holds.
    pub records_recovered: u64,
    /// Acknowledged records the recovered store no longer holds, summed
    /// over shards.
    pub records_lost: u64,
    /// Segment bytes recovery truncated (torn or corrupt tails).
    pub bytes_dropped: u64,
    /// Shards whose recovery reported a loss.
    pub shards_damaged: u64,
    /// Whether the recovery report flagged any damage.
    pub damage_reported: bool,
    /// Whether the recovered store equals clean ingestion of a prefix of
    /// each shard's appends — the non-negotiable invariant.
    pub prefix_exact: bool,
    /// THE red flag: acknowledged records were lost to a corruption-class
    /// fault and the recovery report claimed every shard was clean —
    /// corrupt data accepted as valid.
    pub undetected_corruption: bool,
}

/// The full recovery sweep for one domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySweepReport {
    /// Domain name.
    pub domain: String,
    /// Records in the ingestion stream.
    pub records: u64,
    /// Grid cells, fault class major, sync policy minor.
    pub cells: Vec<RecoveryCell>,
}

impl RecoverySweepReport {
    /// Whether any cell silently accepted corrupt data.
    pub fn any_undetected_corruption(&self) -> bool {
        self.cells.iter().any(|c| c.undetected_corruption)
    }
}

fn store_dir() -> PathBuf {
    PathBuf::from("/recovery-sweep")
}

fn budget() -> Arc<MemoryBudget> {
    Arc::new(MemoryBudget::new(4 << 20))
}

/// Flattens a revision store into a deterministic arrival stream: entities
/// by id, each history in order — the order an ingesting crawler would
/// produce per page.
fn flatten_stream(store: &RevisionStore) -> Vec<(EntityId, Timestamp, String)> {
    let mut entities: Vec<EntityId> = store.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    let mut out = Vec::new();
    for e in entities {
        if let Some(h) = store.peek(e) {
            for r in h.revisions() {
                out.push((e, r.time, r.text.clone()));
            }
        }
    }
    out
}

/// Whether `store` holds exactly, per shard, clean ingestion of a prefix
/// of the appends that shard received in `stream`. Fills `kept` with the
/// per-shard prefix lengths.
fn shard_prefixes_exact<V: Vfs>(
    store: &ShardedStore<V>,
    stream: &[(EntityId, Timestamp, String)],
    kept: &mut [u64],
) -> bool {
    let mut histories = Vec::new();
    for entity in store.entities() {
        match store.materialize(entity) {
            Ok(Some(h)) => {
                kept[store.shard_of(entity) as usize] += h.len() as u64;
                histories.push((entity, h));
            }
            _ => return false,
        }
    }
    let mut seen = vec![0u64; kept.len()];
    let mut clean = RevisionStore::new();
    for (e, t, text) in stream {
        let shard = store.shard_of(*e) as usize;
        if seen[shard] < kept[shard] {
            clean.record(*e, *t, text.clone());
            seen[shard] += 1;
        }
    }
    seen == kept
        && clean.page_count() == histories.len()
        && histories.iter().all(|(e, h)| {
            clean
                .peek(*e)
                .is_some_and(|c| c.revisions() == h.revisions())
        })
}

/// Flips one seeded byte of one seeded shard segment (the first existing
/// segment at or after the seeded shard).
fn flip_segment_bit(fs: &MemFs, dir: &Path, seed: u64) {
    for i in 0..SWEEP_SHARDS {
        let shard = (mix64(seed ^ 0x5EED) as u32).wrapping_add(i) % SWEEP_SHARDS;
        let path = dir.join(format!("shard-{shard:04}.seg"));
        if let Ok(len) = fs.len(&path) {
            if len > 0 {
                let offset = mix64(seed ^ 0xB17) % len;
                let xor = (mix64(seed ^ 0xF11B) % 255 + 1) as u8;
                fs.corrupt_byte(&path, offset, xor).ok();
                return;
            }
        }
    }
}

/// Runs one cell: ingest under the fault, recover, audit.
fn run_cell(
    stream: &[(EntityId, Timestamp, String)],
    fault: FaultClass,
    sync: SyncPolicy,
    sync_label: &str,
    seed: u64,
) -> RecoveryCell {
    let policy = ShardPolicy {
        shards: SWEEP_SHARDS,
        snapshot_every: 8,
        sync,
        ..ShardPolicy::default()
    };
    let total = stream.len() as u64;
    let mem = Arc::new(MemFs::new());

    // Ingestion-time fault plan.
    let spec = match fault {
        FaultClass::TornAppend => FailSpec::once(
            FailOp::Append,
            (total * 3 / 5).max(1),
            FailKind::TornWrite {
                keep: (mix64(seed) % 61 + 1) as usize,
            },
        ),
        FaultClass::FaultStorm => FailSpec {
            fail_at: vec![],
            seed,
            torn_append_rate: 0.02,
            sync_fail_rate: 0.02,
        },
        _ => FailSpec::default(),
    };
    let fs = FailpointFs::new(mem.clone(), spec);

    let mut acked = vec![0u64; SWEEP_SHARDS as usize];
    // A failed creation sync leaves nothing acknowledged.
    if let Ok(store) = ShardedStore::create(&fs, &store_dir(), policy, budget()) {
        for (e, t, text) in stream {
            if store.append(*e, *t, text).is_err() {
                break;
            }
            acked[store.shard_of(*e) as usize] += 1;
        }
        // A power cut strikes mid-run — no orderly shutdown sync. Every
        // other class gets a clean close so the injected fault is the
        // only damage in play.
        if fault != FaultClass::PowerLoss {
            let _ = store.flush();
        }
    }

    // Post-shutdown damage.
    match fault {
        FaultClass::SegmentBitFlip => flip_segment_bit(&mem, &store_dir(), seed),
        FaultClass::PowerLoss => mem.drop_unsynced(),
        _ => {}
    }

    // No injected fault touches meta.json, so a failed open is a bug in
    // the store, not a recovery outcome.
    let (back, r) = ShardedStore::open(mem, &store_dir(), policy, budget())
        .expect("a store with an intact meta.json opens");
    let mut kept = vec![0u64; SWEEP_SHARDS as usize];
    let prefix_exact = shard_prefixes_exact(&back, stream, &mut kept);
    let records_lost: u64 = acked
        .iter()
        .zip(&kept)
        .map(|(a, k)| a.saturating_sub(*k))
        .sum();
    let damage_reported = !r.is_clean();
    // Losing acknowledged records without a report is silent corruption —
    // except under power loss, where never-synced bytes legitimately
    // vanish from a clean log.
    let loss_excusable = fault == FaultClass::PowerLoss;
    RecoveryCell {
        fault,
        sync: sync_label.to_owned(),
        records_total: total,
        records_acked: acked.iter().sum(),
        records_recovered: r.records_recovered,
        records_lost,
        bytes_dropped: r.bytes_dropped(),
        shards_damaged: r.losses.len() as u64,
        damage_reported,
        prefix_exact,
        undetected_corruption: !prefix_exact
            || (records_lost > 0 && !damage_reported && !loss_excusable),
    }
}

/// Runs the full fault-class × sync-policy sweep for one domain.
///
/// Everything is deterministic from `(domain, synth, fault_seed)`.
pub fn run_recovery(
    domain: DomainSpec,
    synth: SynthConfig,
    fault_seed: u64,
) -> RecoverySweepReport {
    let world = generate(domain, synth);
    let stream = flatten_stream(&world.store);

    let policies = [
        ("always", SyncPolicy::Always),
        ("every4", SyncPolicy::EveryN(4)),
        ("never", SyncPolicy::Never),
    ];

    let mut cells = Vec::new();
    for (fix, &fault) in ALL_FAULT_CLASSES.iter().enumerate() {
        for (pix, (label, sync)) in policies.iter().enumerate() {
            let cell_seed = mix64(fault_seed ^ ((fix as u64) << 24) ^ ((pix as u64) << 8));
            cells.push(run_cell(&stream, fault, *sync, label, cell_seed));
        }
    }

    RecoverySweepReport {
        domain: world.domain.name.clone(),
        records: stream.len() as u64,
        cells,
    }
}

/// Renders the report as an aligned text table.
pub fn render_recovery(r: &RecoverySweepReport) -> String {
    let mut out = format!(
        "{}: {} records in stream\n\
         {:>14}  {:>7}  {:>7}  {:>9}  {:>6}  {:>9}  {:>7}  {:>5}  {:>6}  {:>10}\n",
        r.domain,
        r.records,
        "fault",
        "sync",
        "acked",
        "recovered",
        "lost",
        "dropped-B",
        "shards✗",
        "exact",
        "loud",
        "UNDETECTED"
    );
    for c in &r.cells {
        out.push_str(&format!(
            "{:>14}  {:>7}  {:>7}  {:>9}  {:>6}  {:>9}  {:>7}  {:>5}  {:>6}  {:>10}\n",
            format!("{:?}", c.fault),
            c.sync,
            c.records_acked,
            c.records_recovered,
            c.records_lost,
            c.bytes_dropped,
            c.shards_damaged,
            c.prefix_exact,
            c.damage_reported,
            c.undetected_corruption,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiclean_synth::scenarios;

    fn sweep() -> RecoverySweepReport {
        run_recovery(
            scenarios::politics(),
            SynthConfig {
                seed_count: 12,
                rng_seed: 20200101,
                ..SynthConfig::tiny(41)
            },
            0xC0FFEE,
        )
    }

    #[test]
    fn sweep_has_no_undetected_corruption_and_exact_prefixes() {
        let report = sweep();
        assert!(report.records > 0);
        assert_eq!(report.cells.len(), ALL_FAULT_CLASSES.len() * 3);
        for c in &report.cells {
            assert!(
                !c.undetected_corruption,
                "undetected corruption in cell {c:?}"
            );
            assert!(c.prefix_exact, "inexact prefix in {c:?}");
        }
        // The fault-free baseline recovers everything under every policy.
        for c in report.cells.iter().filter(|c| c.fault == FaultClass::None) {
            assert_eq!(c.records_recovered, report.records, "{c:?}");
            assert!(!c.damage_reported, "{c:?}");
        }
        // Injected segment damage is always caught by the frame checks,
        // and costs exactly the one damaged shard.
        for c in report
            .cells
            .iter()
            .filter(|c| c.fault == FaultClass::SegmentBitFlip)
        {
            assert!(c.damage_reported && c.records_lost > 0, "{c:?}");
            assert_eq!(c.shards_damaged, 1, "{c:?}");
        }
        // Under per-append sync, power loss costs nothing acknowledged.
        let always_power = report
            .cells
            .iter()
            .find(|c| c.fault == FaultClass::PowerLoss && c.sync == "always")
            .unwrap();
        assert_eq!(always_power.records_lost, 0, "{always_power:?}");
        let rendered = render_recovery(&report);
        assert!(rendered.contains("UNDETECTED"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep();
        let b = sweep();
        assert_eq!(a, b);
    }
}
