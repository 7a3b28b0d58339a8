//! Out-of-core corpus figure (repo extension) — mining a million-entity
//! synthetic corpus from delta-encoded sharded segment logs within a
//! bounded memory budget, against the in-memory store as the baseline.
//!
//! The corpus is the streaming bulk generator's soccer world (every player
//! performs one club transfer inside the planted two-week window), ingested
//! one entity history at a time so nothing but the out-of-core store ever
//! holds the revisions. Phase order matters: the disk-backend phases run
//! FIRST and the process' peak RSS (`VmHWM`) is read right after the disk
//! mine, so the recorded peak covers exactly the out-of-core pipeline —
//! the in-memory baseline, which deliberately holds the whole corpus in
//! RAM, runs afterwards. The cell asserts the correctness anchor — the
//! disk and memory backends discover byte-identical patterns — before
//! reporting a number.
//!
//! Headlines, asserted in full mode: delta encoding stores a revision in
//! ≤ 25% of the full-text bytes, and the disk-backend mine of a ≥ 1M-entity
//! corpus peaks under 2 GiB RSS. Results land in `BENCH_corpus.json` at
//! the repo root. Set `WICLEAN_BENCH_FAST=1` for a CI-sized smoke run (no
//! JSON write).

use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use wiclean_core::config::MinerConfig;
use wiclean_core::{open_sharded_corpus, WindowMiner, WindowResult};
use wiclean_revstore::{
    MemoryBudget, RealFs, RevisionStore, ShardPolicy, ShardedStore, SyncPolicy,
};
use wiclean_synth::{build_bulk_universe, BulkConfig, BulkWorld};
use wiclean_types::{Universe, Window};

/// One backend's ingest measurements.
#[derive(Serialize)]
struct IngestCell {
    entities: u64,
    revisions: u64,
    /// Raw wikitext bytes fed in.
    text_bytes: u64,
    /// Valid segment bytes the store wrote.
    bytes_on_disk: u64,
    bytes_per_revision: f64,
    wall_s: f64,
    mb_per_s: f64,
    frames_full: u64,
    frames_delta: u64,
}

/// One backend's mining measurements over the planted transfer window.
#[derive(Serialize)]
struct MineCell {
    backend: String,
    wall_s: f64,
    patterns: usize,
    most_specific: usize,
    snapshot_cache_hits: u64,
    snapshot_cache_misses: u64,
    snapshot_cache_evictions: u64,
    snapshot_cache_hit_rate: f64,
    delta_chain_replays: u64,
}

#[derive(Serialize)]
struct Report {
    host_cores: usize,
    fast_mode: bool,
    rng_seed: u64,
    players: u32,
    clubs: u32,
    revisions_per_player: u32,
    shards: u32,
    snapshot_every: u32,
    memory_budget_bytes: u64,
    /// Per-shard ingest delta-base budget (bytes); see the policy comment
    /// in `main` for why the bench pins it well below the default.
    ingest_base_budget_bytes: u64,
    /// Total entities in the corpus (the ≥ 1M acceptance bar).
    entities: u64,
    /// Delta-encoded ingest (the real configuration).
    ingest_delta: IngestCell,
    /// Full-text ingest baseline (`snapshot_every = 1`, possibly over a
    /// subset — bytes/revision is what is compared, and it is per-entity).
    ingest_full: IngestCell,
    /// `ingest_delta.bytes_per_revision / ingest_full.bytes_per_revision`;
    /// asserted ≤ 0.25.
    delta_to_full_ratio: f64,
    mine_disk: MineCell,
    mine_memory: MineCell,
    /// Peak process RSS (VmHWM, MiB) measured right after the disk mine,
    /// before the in-memory baseline was built; asserted ≤ 2048 in full
    /// mode.
    rss_peak_disk_phase_mb: u64,
    /// Disk and memory backends discovered byte-identical patterns.
    digest_identical: bool,
    /// Disk mine wall-clock over memory mine wall-clock.
    disk_vs_memory_wall_ratio: f64,
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb / 1024;
        }
    }
    0
}

/// Streams `take` entity histories (all of them if `None`) into a fresh
/// sharded store at `dir`, one history at a time — peak memory is one
/// history plus the store's own index.
fn stream_ingest(
    world: &BulkWorld,
    dir: &std::path::Path,
    policy: ShardPolicy,
    budget: Arc<MemoryBudget>,
    take: Option<usize>,
) -> (ShardedStore<RealFs>, IngestCell) {
    let _ = std::fs::remove_dir_all(dir);
    let store = ShardedStore::create(RealFs, dir, policy, budget).expect("create sharded store");
    let limit = take.unwrap_or(usize::MAX);
    let mut entities = 0u64;
    let mut revisions = 0u64;
    let mut text_bytes = 0u64;
    let t0 = Instant::now();
    for (entity, history) in world.histories().take(limit) {
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
    let cell = IngestCell {
        entities,
        revisions,
        text_bytes,
        bytes_on_disk: stats.bytes_on_disk,
        bytes_per_revision: stats.bytes_on_disk as f64 / revisions.max(1) as f64,
        wall_s: wall,
        mb_per_s: text_bytes as f64 / (1 << 20) as f64 / wall.max(1e-9),
        frames_full: stats.frames_full,
        frames_delta: stats.frames_delta,
    };
    (store, cell)
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

fn main() {
    let fast_mode = std::env::var_os("WICLEAN_BENCH_FAST").is_some();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rng_seed = 0xC0A9u64;

    let config = if fast_mode {
        BulkConfig {
            players: 2_000,
            clubs: 16,
            revisions_per_player: 8,
            seed: rng_seed,
        }
    } else {
        BulkConfig {
            players: 1_000_000,
            clubs: 64,
            revisions_per_player: 8,
            seed: rng_seed,
        }
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
    let entities = config.entity_total();
    println!("  universe built: peak RSS {} MiB", peak_rss_mb());

    let tmp = std::env::temp_dir().join("wiclean-bench-corpus");
    let delta_dir = tmp.join("delta");
    let full_dir = tmp.join("full");

    // Phase 1 (disk): delta-encoded ingest at the real cadence.
    let (store, ingest_delta) = stream_ingest(
        &world,
        &delta_dir,
        policy,
        Arc::new(MemoryBudget::new(budget_bytes)),
        None,
    );
    println!(
        "  delta ingest: {} revisions, {:.1} MB/s, {:.1} bytes/revision ({} full + {} delta frames)",
        ingest_delta.revisions,
        ingest_delta.mb_per_s,
        ingest_delta.bytes_per_revision,
        ingest_delta.frames_full,
        ingest_delta.frames_delta
    );
    drop(store);
    println!("  after delta ingest: peak RSS {} MiB", peak_rss_mb());

    // Phase 2 (disk): full-text baseline, snapshot frame every revision.
    let (store, ingest_full) = stream_ingest(
        &world,
        &full_dir,
        ShardPolicy {
            snapshot_every: 1,
            ..policy
        },
        Arc::new(MemoryBudget::new(budget_bytes)),
        full_baseline_take,
    );
    println!(
        "  full-text baseline: {} entities, {:.1} bytes/revision",
        ingest_full.entities, ingest_full.bytes_per_revision
    );
    drop(store);
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
    let miner_config = MinerConfig {
        tau: 0.5,
        max_abstraction_height: 1,
        max_pattern_actions: 4,
        mine_relative: false,
        ..MinerConfig::default()
    };
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
    let lookups = stats.snapshot_cache_hits + stats.snapshot_cache_misses;
    let mine_disk = MineCell {
        backend: "disk".to_owned(),
        wall_s: disk_wall,
        patterns: result.patterns.len(),
        most_specific: result.patterns.iter().filter(|p| p.most_specific).count(),
        snapshot_cache_hits: stats.snapshot_cache_hits,
        snapshot_cache_misses: stats.snapshot_cache_misses,
        snapshot_cache_evictions: stats.snapshot_cache_evictions,
        snapshot_cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            stats.snapshot_cache_hits as f64 / lookups as f64
        },
        delta_chain_replays: stats.delta_chain_replays,
    };
    drop(corpus);
    assert!(
        !disk_digest.is_empty(),
        "the planted transfer pattern must be discovered"
    );
    assert!(
        disk_digest.iter().any(|l| l.contains("current_club")),
        "expected a current_club pattern, got {disk_digest:?}"
    );

    // The acceptance bar: peak RSS so far covers generation, out-of-core
    // ingest, and the disk mine — everything but the in-memory baseline.
    let rss_peak_disk_phase_mb = peak_rss_mb();
    println!(
        "  disk mine: {:.1}s, {} patterns, cache hit rate {:.3}, peak RSS {} MiB",
        mine_disk.wall_s,
        mine_disk.patterns,
        mine_disk.snapshot_cache_hit_rate,
        rss_peak_disk_phase_mb
    );
    if !fast_mode {
        assert!(
            rss_peak_disk_phase_mb <= 2048,
            "out-of-core phases must stay under 2 GiB peak RSS, saw {rss_peak_disk_phase_mb} MiB"
        );
    }

    // Phase 4 (memory baseline): the whole corpus in RAM, same mine.
    let mut mem_store = RevisionStore::new();
    for (entity, history) in world.histories() {
        for (time, text) in history {
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
        snapshot_cache_hits: 0,
        snapshot_cache_misses: 0,
        snapshot_cache_evictions: 0,
        snapshot_cache_hit_rate: 0.0,
        delta_chain_replays: 0,
    };
    drop(mem_store);
    let _ = std::fs::remove_dir_all(&tmp);

    assert_eq!(
        disk_digest, memory_digest,
        "backends must discover byte-identical patterns"
    );
    let ratio = disk_wall / memory_wall.max(1e-9);
    println!(
        "  memory mine: {memory_wall:.1}s; disk/memory wall ratio {ratio:.2}; digests identical"
    );

    let report = Report {
        host_cores,
        fast_mode,
        rng_seed,
        players: config.players,
        clubs: config.clubs,
        revisions_per_player: config.revisions_per_player,
        shards: policy.shards,
        snapshot_every: policy.snapshot_every,
        memory_budget_bytes: budget_bytes,
        ingest_base_budget_bytes: policy.ingest_base_budget,
        entities,
        ingest_delta,
        ingest_full,
        delta_to_full_ratio,
        mine_disk,
        mine_memory,
        rss_peak_disk_phase_mb,
        digest_identical: true,
        disk_vs_memory_wall_ratio: ratio,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_corpus.json");
    if fast_mode {
        println!("fast mode: skipping write of {path}");
    } else {
        std::fs::write(path, json + "\n").expect("write BENCH_corpus.json");
        println!("wrote {path}");
    }
}
