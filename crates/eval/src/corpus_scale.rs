//! Out-of-core corpus scale (repo extension): mining a million-entity
//! synthetic corpus from delta-encoded sharded segment logs within a
//! bounded memory budget, against the in-memory store as the baseline.
//!
//! The corpus is the streaming bulk generator's soccer world (every player
//! performs one club transfer inside the planted two-week window), ingested
//! one entity history at a time so nothing but the out-of-core store ever
//! holds the revisions. Phase order matters: the disk-backend phases run
//! first and the process' peak RSS (`VmHWM`) is read right after the disk
//! mine, so the recorded peak covers exactly the out-of-core pipeline —
//! the in-memory baseline, which holds every revision the window mine
//! reads in RAM, runs afterwards.
//!
//! [`corpus_scale`] asserts before it reports: delta encoding stores a
//! revision in ≤ 25% of the full-text bytes, the store reopens clean, a
//! `current_club` pattern is found, and the disk and memory backends
//! discover byte-identical patterns. At full scale (1M players) it also
//! asserts the disk phases peak under 2 GiB RSS. The `corpus_scale` binary
//! runs the full scale and writes `BENCH_corpus.json`; the test below runs
//! the 2,000-player fast scale.

use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wiclean_core::{open_sharded_corpus, WindowMiner, WindowResult};
use wiclean_revstore::{
    MemoryBudget, RealFs, RevisionStore, ShardPolicy, ShardedStore, SyncPolicy,
};
use wiclean_synth::{build_bulk_universe, BulkConfig, BulkWorld};
use wiclean_types::{Universe, Window};

/// One ingest's measurements.
#[derive(Debug, Serialize)]
pub struct IngestCell {
    pub entities: u64,
    pub revisions: u64,
    /// Raw wikitext bytes fed in.
    pub text_bytes: u64,
    /// Valid segment bytes the store wrote.
    pub bytes_on_disk: u64,
    pub bytes_per_revision: f64,
    pub wall_s: f64,
    pub mb_per_s: f64,
    pub frames_full: u64,
    pub frames_delta: u64,
}

/// One backend's mining measurements over the planted transfer window.
#[derive(Debug, Serialize)]
pub struct MineCell {
    pub backend: String,
    pub wall_s: f64,
    pub patterns: usize,
    pub most_specific: usize,
    pub delta_chain_replays: u64,
}

/// The whole run, as written to `BENCH_corpus.json`.
#[derive(Debug, Serialize)]
pub struct CorpusScaleReport {
    pub host_cores: usize,
    pub fast_mode: bool,
    pub rng_seed: u64,
    pub players: u32,
    pub clubs: u32,
    pub revisions_per_player: u32,
    pub shards: u32,
    pub snapshot_every: u32,
    pub memory_budget_bytes: u64,
    /// Per-shard ingest delta-base budget (bytes); see the policy comment
    /// in [`corpus_scale`] for why it sits well below the default.
    pub ingest_base_budget_bytes: u64,
    /// Total entities in the corpus (the ≥ 1M acceptance bar).
    pub entities: u64,
    /// Delta-encoded ingest (the real configuration).
    pub ingest_delta: IngestCell,
    /// Full-text ingest baseline (`snapshot_every = 1`, over a subset at
    /// full scale — bytes/revision is what is compared, and it is
    /// per-entity).
    pub ingest_full: IngestCell,
    /// `ingest_delta.bytes_per_revision / ingest_full.bytes_per_revision`;
    /// asserted ≤ 0.25.
    pub delta_to_full_ratio: f64,
    pub mine_disk: MineCell,
    pub mine_memory: MineCell,
    /// Peak process RSS (VmHWM, MiB) measured right after the disk mine,
    /// before the in-memory baseline was built; asserted ≤ 2048 at full
    /// scale.
    pub rss_peak_disk_phase_mb: u64,
    /// Disk and memory backends discovered byte-identical patterns.
    pub digest_identical: bool,
    /// Disk mine wall-clock over memory mine wall-clock.
    pub disk_vs_memory_wall_ratio: f64,
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb / 1024)
}

/// Streams `take` entity histories (all of them if `None`) into a fresh
/// sharded store at `dir`, one history at a time — peak memory is one
/// history plus the store's own index.
fn stream_ingest(
    world: &BulkWorld,
    dir: &Path,
    policy: ShardPolicy,
    budget_bytes: u64,
    take: Option<usize>,
) -> IngestCell {
    let _ = std::fs::remove_dir_all(dir);
    let budget = Arc::new(MemoryBudget::new(budget_bytes));
    let store = ShardedStore::create(RealFs, dir, policy, budget).expect("create sharded store");
    let (mut entities, mut revisions, mut text_bytes) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for (entity, history) in world.histories().take(take.unwrap_or(usize::MAX)) {
        revisions += history.len() as u64;
        text_bytes += history.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
        store
            .append_history(entity, history.iter().map(|(t, s)| (*t, s.as_str())))
            .expect("append history");
        entities += 1;
    }
    store.flush().expect("flush segments");
    let wall = t0.elapsed().as_secs_f64();
    let stats = store.corpus_stats();
    IngestCell {
        entities,
        revisions,
        text_bytes,
        bytes_on_disk: stats.bytes_on_disk,
        bytes_per_revision: stats.bytes_on_disk as f64 / revisions.max(1) as f64,
        wall_s: wall,
        mb_per_s: text_bytes as f64 / (1 << 20) as f64 / wall.max(1e-9),
        frames_full: stats.frames_full,
        frames_delta: stats.frames_delta,
    }
}

/// A sorted, printable digest of the frequent patterns a window mine
/// found — what the backend differential compares byte for byte.
fn pattern_digest(result: &WindowResult, universe: &Universe) -> Vec<String> {
    let mut lines: Vec<String> = result
        .patterns
        .iter()
        .map(|p| {
            format!(
                "{} support={} freq={:.6} most_specific={}",
                p.pattern.display(universe),
                p.support,
                p.frequency,
                p.most_specific
            )
        })
        .collect();
    lines.sort();
    lines
}

/// Runs generate → delta ingest → full-text ingest → reopen and disk mine
/// → in-memory mine, with segment files under `dir` (removed at the end).
/// `fast_mode` runs 2,000 players over 16 clubs; otherwise 1M players over
/// 64 clubs. Panics if any invariant in the module docs fails.
pub fn corpus_scale(fast_mode: bool, dir: &Path) -> CorpusScaleReport {
    let rng_seed = 0xC0A9u64;
    let config = BulkConfig {
        players: if fast_mode { 2_000 } else { 1_000_000 },
        clubs: if fast_mode { 16 } else { 64 },
        revisions_per_player: 8,
        seed: rng_seed,
    };
    // `ingest_base_budget` is PER SHARD, and a streamed ingest appends each
    // entity's whole history exactly once — a retained base is dead weight
    // the moment its entity's last revision lands. 2 MiB/shard (64 MiB
    // total) comfortably covers the one in-flight history (~10 KB) while
    // keeping a million finished bases from pinning ~1 GiB of RSS.
    let policy = ShardPolicy {
        shards: 32,
        snapshot_every: 16,
        sync: SyncPolicy::Never,
        ingest_base_budget: 2 << 20,
    };
    let budget_bytes: u64 = 256 << 20;
    // The full-text baseline only measures bytes/revision (a per-entity
    // quantity), so a subset keeps the full run's wall-clock sane.
    let full_baseline_take = if fast_mode { None } else { Some(100_000) };

    println!(
        "bulk corpus: {} players + {} clubs, {} revisions/player (fast={fast_mode})",
        config.players, config.clubs, config.revisions_per_player
    );
    let world = build_bulk_universe(config);
    let delta_dir = dir.join("delta");
    let full_dir = dir.join("full");

    // Phase 1 (disk): delta-encoded ingest at the real cadence.
    let ingest_delta = stream_ingest(&world, &delta_dir, policy, budget_bytes, None);
    println!(
        "  delta ingest: {} revisions, {:.1} MB/s, {:.1} bytes/revision",
        ingest_delta.revisions, ingest_delta.mb_per_s, ingest_delta.bytes_per_revision
    );

    // Phase 2 (disk): full-text baseline, snapshot frame every revision.
    let full_policy = ShardPolicy {
        snapshot_every: 1,
        ..policy
    };
    let ingest_full = stream_ingest(
        &world,
        &full_dir,
        full_policy,
        budget_bytes,
        full_baseline_take,
    );
    let _ = std::fs::remove_dir_all(&full_dir);
    let delta_to_full_ratio = ingest_delta.bytes_per_revision / ingest_full.bytes_per_revision;
    println!("  delta/full bytes-per-revision ratio: {delta_to_full_ratio:.3}");
    assert!(
        delta_to_full_ratio <= 0.25,
        "delta encoding must store a revision in <= 25% of the full-text bytes"
    );

    // Phase 3 (disk): reopen — the mining read path never sees the writer's
    // in-memory state — and mine the planted transfer window.
    let window = Window::new(
        BulkConfig::transfer_window_start(),
        BulkConfig::transfer_window_end(),
    );
    let miner_config = crate::runtime::base_miner_config(0.5);
    let corpus = open_sharded_corpus(
        RealFs,
        &delta_dir,
        policy,
        Arc::new(MemoryBudget::new(budget_bytes)),
    )
    .expect("open sharded corpus");
    assert!(corpus.recovery.is_clean(), "clean ingest must reopen clean");
    let t0 = Instant::now();
    let result = WindowMiner::new(&corpus.store, &world.universe, miner_config)
        .mine_window(world.seed_type, &window);
    let disk_wall = t0.elapsed().as_secs_f64();
    let disk_digest = pattern_digest(&result, &world.universe);
    let stats = corpus.store.corpus_stats();
    let mine_disk = MineCell {
        backend: "disk".to_owned(),
        wall_s: disk_wall,
        patterns: result.patterns.len(),
        most_specific: result.patterns.iter().filter(|p| p.most_specific).count(),
        delta_chain_replays: stats.delta_chain_replays,
    };
    drop(corpus);
    assert!(
        disk_digest.iter().any(|l| l.contains("current_club")),
        "expected a current_club pattern, got {disk_digest:?}"
    );

    // The acceptance bar: peak RSS so far covers generation, out-of-core
    // ingest, and the disk mine — everything but the in-memory baseline.
    let rss_peak_disk_phase_mb = peak_rss_mb();
    println!(
        "  disk mine: {disk_wall:.1}s, {} patterns, peak RSS {rss_peak_disk_phase_mb} MiB",
        mine_disk.patterns
    );
    if !fast_mode {
        assert!(
            rss_peak_disk_phase_mb <= 2048,
            "out-of-core phases must stay under 2 GiB peak RSS, saw {rss_peak_disk_phase_mb} MiB"
        );
    }

    // Phase 4 (memory baseline): the same mine over the in-memory store,
    // holding only what it reads (the `FetchSource::fetch_window`
    // contract): each entity's last revision before the window opens and
    // its revisions inside the window. The whole corpus would not fit in
    // RAM at full scale.
    let mut mem_store = RevisionStore::new();
    for (entity, history) in world.histories() {
        let base = history.partition_point(|(time, _)| *time < window.start);
        let end = history.partition_point(|(time, _)| *time < window.end);
        for (time, text) in history.into_iter().take(end).skip(base.saturating_sub(1)) {
            mem_store.record(entity, time, text);
        }
    }
    let t0 = Instant::now();
    let result = WindowMiner::new(&mem_store, &world.universe, miner_config)
        .mine_window(world.seed_type, &window);
    let memory_wall = t0.elapsed().as_secs_f64();
    let memory_digest = pattern_digest(&result, &world.universe);
    let mine_memory = MineCell {
        backend: "memory".to_owned(),
        wall_s: memory_wall,
        patterns: result.patterns.len(),
        most_specific: result.patterns.iter().filter(|p| p.most_specific).count(),
        delta_chain_replays: 0,
    };
    drop(mem_store);
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(
        disk_digest, memory_digest,
        "backends must discover byte-identical patterns"
    );
    println!("  memory mine: {memory_wall:.1}s; digests identical");

    CorpusScaleReport {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        fast_mode,
        rng_seed,
        players: config.players,
        clubs: config.clubs,
        revisions_per_player: config.revisions_per_player,
        shards: policy.shards,
        snapshot_every: policy.snapshot_every,
        memory_budget_bytes: budget_bytes,
        ingest_base_budget_bytes: policy.ingest_base_budget,
        entities: config.entity_total(),
        ingest_delta,
        ingest_full,
        delta_to_full_ratio,
        mine_disk,
        mine_memory,
        rss_peak_disk_phase_mb,
        digest_identical: true,
        disk_vs_memory_wall_ratio: disk_wall / memory_wall.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "mining run — run with --release")]
    fn fast_scale_disk_matches_memory() {
        let dir = std::env::temp_dir().join(format!("wiclean-corpus-scale-{}", std::process::id()));
        let report = corpus_scale(true, &dir);
        assert!(!dir.exists(), "segment files are removed");
        assert_eq!(report.entities, 2_016);
        assert!(report.delta_to_full_ratio <= 0.25, "{report:?}");
        assert!(report.digest_identical);
        assert_eq!(report.mine_disk.patterns, report.mine_memory.patterns);
        assert!(report.mine_disk.delta_chain_replays > 0, "{report:?}");
        assert_eq!(report.ingest_full.frames_delta, 0);
        assert!(report.ingest_delta.frames_delta > 0);
    }
}
