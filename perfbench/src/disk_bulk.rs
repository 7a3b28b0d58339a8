//! `disk-bulk`: a corpus larger than the program's own cache, mined from
//! disk.
//!
//! Input generation builds a `synth::bulk` corpus (every player transfers
//! clubs inside one planted two-week window) whose page text is several
//! times the snapshot-cache budget. Set-up streams it into a fresh
//! `ShardedStore` on one thread, one page history at a time as the
//! generator yields it (the writes; `setup_s` times only the store's own
//! calls). No whole corpus is ever resident, so `peak_rss_mb` follows the
//! store's ingest buffers and read path. A round reopens the store and
//! mines the planted transfer window from disk (the reads): decode, parse
//! and the store format dominate, and with one window and almost no join
//! work a miner change should not move this workload.
//!
//! Checks: the store reopens clean, and the planted current-club transfer
//! pattern is found with support equal to the number of players, as the
//! generator guarantees.

use crate::measure::{end_to_end, median, repeat_timed_setup, timed_rounds, Checks, Layers};
use crate::trace::Tracer;
use crate::{derive_seed, Outcome, Params};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wiclean_core::abstract_action::AbstractAction;
use wiclean_core::config::MinerConfig;
use wiclean_core::pattern::Pattern;
use wiclean_core::var::Var;
use wiclean_core::{open_sharded_corpus, WindowMiner, WindowResult};
use wiclean_revstore::{
    CorpusStats, EditOp, MemoryBudget, RealFs, ShardPolicy, ShardedStore, SyncPolicy,
};
use wiclean_synth::{build_bulk_universe, BulkConfig, BulkWorld};
use wiclean_types::Window;

/// Snapshot-cache budget of the stores. The corpus' page text is many
/// times this, so the mine evicts and re-decodes.
fn snapshot_budget(params: &Params) -> u64 {
    if params.small {
        2 << 20
    } else {
        16 << 20
    }
}

/// Store layout: delta frames with a full frame every 16 revisions, no
/// fsync (the benchmark measures the format, not the disk's flush).
fn policy() -> ShardPolicy {
    ShardPolicy {
        shards: 8,
        snapshot_every: 16,
        sync: SyncPolicy::Never,
        ingest_base_budget: 2 << 20,
    }
}

/// The corpus: the benchmark size, or the small-input size.
fn bulk_config(params: &Params) -> BulkConfig {
    BulkConfig {
        players: if params.small { 1_500 } else { 20_000 },
        clubs: 64,
        revisions_per_player: 8,
        seed: derive_seed(params.seed, 0xB01C),
    }
}

/// The mining configuration of the transfer window.
fn miner_config() -> MinerConfig {
    MinerConfig {
        tau: 0.5,
        max_abstraction_height: 1,
        max_pattern_actions: 4,
        mine_relative: false,
        ..MinerConfig::default()
    }
}

/// The pattern the generator plants: every player removes one club link
/// and adds another inside the transfer window.
fn transfer_pattern(world: &BulkWorld) -> Pattern {
    let rel = world
        .universe
        .lookup_relation("current_club")
        .expect("bulk universe has current_club");
    let player = Var::new(world.seed_type, 0);
    Pattern::canonical_from(&[
        AbstractAction::new(EditOp::Remove, player, rel, Var::new(world.club_type, 0)),
        AbstractAction::new(EditOp::Add, player, rel, Var::new(world.club_type, 1)),
    ])
}

/// Checks one reopen-and-mine round: the reopen was clean and the planted
/// transfer pattern is a most specific pattern with support equal to the
/// number of players.
fn check_mine(
    clean: bool,
    result: &WindowResult,
    expected: &Pattern,
    players: usize,
    checks: &mut Checks,
) -> bool {
    checks.check(clean, || {
        "reopened store reported recovery losses".to_owned()
    });
    let support = result
        .most_specific()
        .find(|p| &p.pattern == expected)
        .map(|p| p.support);
    checks.check(support == Some(players), || {
        format!("transfer pattern support {support:?}, expected {players}")
    });
    support == Some(players)
}

/// What one ingest wrote.
struct Ingested {
    /// The store's counters after the last append.
    stats: CorpusStats,
    /// Revisions appended.
    revisions: u64,
    /// Page-text bytes appended.
    text_bytes: u64,
}

/// Ingests the generated corpus into a new store at `dir` on one thread,
/// one page history at a time as the generator yields it, so no whole
/// corpus is ever resident. Returns what was written and the seconds spent
/// in the store's own calls (creation and appends; generating each history
/// is left out). Nothing is fsynced: the benchmark measures the store
/// format, not the disk's flush.
fn ingest(world: &BulkWorld, dir: &Path, budget: u64, tracer: &Tracer) -> (Ingested, f64) {
    let t0 = Instant::now();
    let store = ShardedStore::create(RealFs, dir, policy(), Arc::new(MemoryBudget::new(budget)))
        .expect("create sharded store");
    let mut seconds = t0.elapsed().as_secs_f64();
    let (mut revisions, mut text_bytes) = (0u64, 0u64);
    for (entity, history) in world.histories() {
        revisions += history.len() as u64;
        text_bytes += history.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
        let t0 = Instant::now();
        store
            .append_history(entity, history.iter().map(|(t, s)| (*t, s.as_str())))
            .expect("append history");
        let t1 = Instant::now();
        tracer.record("revstore.shard.append", t0, t1);
        seconds += (t1 - t0).as_secs_f64();
    }
    let ingested = Ingested {
        stats: store.corpus_stats(),
        revisions,
        text_bytes,
    };
    (ingested, seconds)
}

/// Runs the workload.
pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    let config = bulk_config(params);
    let budget = snapshot_budget(params);
    let world = build_bulk_universe(config);

    let mut rep = 0;
    let (ingested, setup_s) = repeat_timed_setup(|| {
        let _ = std::fs::remove_dir_all(params.work_dir.join(format!("store-{rep}")));
        rep += 1;
        let dir = params.work_dir.join(format!("store-{rep}"));
        ingest(&world, &dir, budget, tracer)
    });
    let dir = params.work_dir.join(format!("store-{rep}"));
    let Ingested {
        stats: ingested,
        revisions,
        text_bytes,
    } = ingested;
    eprintln!(
        "disk-bulk: {} players, {revisions} revisions, {:.1} MiB of page text, \
         snapshot budget {:.0} MiB; the store holds {:.1} MiB \
         ({:.1}x the snapshot budget in page text)",
        config.players,
        text_bytes as f64 / (1 << 20) as f64,
        budget as f64 / (1 << 20) as f64,
        ingested.bytes_on_disk as f64 / (1 << 20) as f64,
        text_bytes as f64 / budget as f64
    );

    let window = Window::new(
        BulkConfig::transfer_window_start(),
        BulkConfig::transfer_window_end(),
    );
    let expected = transfer_pattern(&world);
    let players = world.players().len();
    let mut checks = Checks::default();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut found = 0usize;
    let round_s = timed_rounds(
        tracer,
        params.seconds,
        || {
            let corpus = tracer.span("revstore.shard.open", || {
                open_sharded_corpus(RealFs, &dir, policy(), Arc::new(MemoryBudget::new(budget)))
                    .expect("reopen sharded store")
            });
            let result = tracer.span("core.miner.mine_window", || {
                WindowMiner::new(&corpus.store, &world.universe, miner_config())
                    .mine_window(world.seed_type, &window)
            });
            (
                corpus.recovery.is_clean(),
                result,
                corpus.store.corpus_stats(),
            )
        },
        |(clean, result, stats)| {
            if check_mine(clean, &result, &expected, players, &mut checks) {
                found += 1;
            }
            let mut l = Layers::default();
            l.set_mine_stats(&result.stats);
            l.set(
                "revstore.shard.bytes_per_revision",
                ingested.bytes_on_disk as f64 / revisions as f64,
            );
            l.set("revstore.shard.frames_full", ingested.frames_full as f64);
            l.set("revstore.shard.frames_delta", ingested.frames_delta as f64);
            l.set(
                "revstore.shard.snapshot_cache_misses",
                stats.snapshot_cache_misses as f64,
            );
            l.set(
                "revstore.shard.snapshot_cache_evictions",
                stats.snapshot_cache_evictions as f64,
            );
            l.set(
                "revstore.shard.delta_chain_replays",
                stats.delta_chain_replays as f64,
            );
            l.set(
                "revstore.shard.map_residency_releases",
                stats.map_residency_releases as f64,
            );
            rounds.push(l);
        },
    );
    let _ = std::fs::remove_dir_all(&dir);

    if tracer.enabled() {
        let ingest_s = median(&setup_s);
        let open = tracer.per_round_s("revstore.shard.open");
        let mine = tracer.per_round("core.miner.mine_window");
        for (r, l) in rounds.iter_mut().enumerate() {
            l.set(
                "revstore.shard.ingest_mb_per_s",
                text_bytes as f64 / (1 << 20) as f64 / ingest_s,
            );
            l.set("revstore.shard.open_s", open[r]);
            l.set_window_times(&mine[r]);
        }
    }
    Outcome {
        end_to_end: end_to_end(&setup_s, &round_s, found as f64 / round_s.len() as f64),
        per_layer: Layers::median_of(&rounds),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use wiclean_revstore::MemFs;

    #[test]
    fn wrong_support_on_the_transfer_pattern_fails_its_check() {
        let world = build_bulk_universe(BulkConfig::small(5));
        let store = ShardedStore::create(
            Arc::new(MemFs::new()),
            &PathBuf::from("/bulk"),
            policy(),
            Arc::new(MemoryBudget::new(1 << 20)),
        )
        .expect("create store");
        for (entity, history) in world.histories() {
            store
                .append_history(entity, history.iter().map(|(t, s)| (*t, s.as_str())))
                .expect("append history");
        }
        let window = Window::new(
            BulkConfig::transfer_window_start(),
            BulkConfig::transfer_window_end(),
        );
        let mut result = WindowMiner::new(&store, &world.universe, miner_config())
            .mine_window(world.seed_type, &window);
        let expected = transfer_pattern(&world);
        let players = world.players().len();

        let mut checks = Checks::default();
        assert!(check_mine(true, &result, &expected, players, &mut checks));
        assert_eq!((checks.attempted, checks.failed), (2, 0));

        let planted = result
            .patterns
            .iter_mut()
            .find(|p| p.pattern == expected)
            .expect("transfer pattern mined");
        planted.support -= 1;
        let mut checks = Checks::default();
        assert!(!check_mine(true, &result, &expected, players, &mut checks));
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }
}
