//! Kill-and-recover integration: the crawler dies mid-ingestion — a torn
//! final segment write at 25%, 50%, and 90% of the stream — and the full
//! pipeline runs over whatever recovery salvages from the sharded store.
//!
//! Acceptance properties:
//!
//! 1. Recovery never panics and never refuses a directory whose
//!    `meta.json` is intact; it returns exactly the acknowledged prefix
//!    (segments are synced per record here, so nothing buffered is in
//!    play), and the torn frame lands as a per-shard loss.
//! 2. Mining over the recovered store produces the identical pattern set
//!    as mining over that same prefix ingested cleanly in memory — a
//!    crash-recovered corpus is indistinguishable from one that never
//!    crashed, minus the honestly-reported tail.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wiclean::core::degraded::DegradedCoverage;
use wiclean::core::pattern::Pattern;
use wiclean::core::windows::find_windows_and_patterns;
use wiclean::core::{open_sharded_corpus, ShardedCorpus};
use wiclean::eval::quality::default_wc_config;
use wiclean::revstore::{
    FailKind, FailOp, FailSpec, FailpointFs, MemFs, MemoryBudget, RevisionStore, ShardPolicy,
    ShardedStore, SyncPolicy, TailOutcome,
};
use wiclean::synth::{generate, scenarios, SynthConfig};
use wiclean::types::{EntityId, Timestamp};

fn stream() -> (
    wiclean::types::Universe,
    wiclean::types::TypeId,
    Vec<(EntityId, Timestamp, String)>,
) {
    let world = generate(
        scenarios::soccer(),
        SynthConfig {
            seed_count: 40,
            rng_seed: 777,
            distractor_entities: 20,
            ..SynthConfig::default()
        },
    );
    let mut entities: Vec<EntityId> = world.store.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    let mut out = Vec::new();
    for e in entities {
        for r in world.store.peek(e).expect("entity has a page").revisions() {
            out.push((e, r.time, r.text.clone()));
        }
    }
    (world.universe, world.seed_type, out)
}

fn ingest_clean(prefix: &[(EntityId, Timestamp, String)]) -> RevisionStore {
    let mut s = RevisionStore::new();
    for (e, t, text) in prefix {
        s.record(*e, *t, text.clone());
    }
    s
}

fn policy() -> ShardPolicy {
    ShardPolicy {
        shards: 4,
        snapshot_every: 8,
        sync: SyncPolicy::Always,
        ..ShardPolicy::default()
    }
}

fn budget() -> Arc<MemoryBudget> {
    Arc::new(MemoryBudget::new(8 << 20))
}

/// Appends `stream` through a filesystem whose `kill_at`-th append tears
/// `keep` bytes in and halts — the process dies there — and reopens what
/// reached the disk. Returns the recovered corpus and the records the
/// store acknowledged.
fn crash_and_recover(
    stream: &[(EntityId, Timestamp, String)],
    kill_at: u64,
    keep: usize,
) -> (ShardedCorpus<Arc<MemFs>>, u64) {
    let mem = Arc::new(MemFs::new());
    let fs = FailpointFs::new(
        mem.clone(),
        FailSpec::once(FailOp::Append, kill_at, FailKind::TornWrite { keep }),
    );
    let dir = PathBuf::from("/crawl");
    let store = ShardedStore::create(&fs, &dir, policy(), budget()).expect("create store");
    let mut acked: u64 = 0;
    for (e, t, text) in stream {
        if store.append(*e, *t, text).is_err() {
            break;
        }
        acked += 1;
    }
    drop(store);
    let corpus = open_sharded_corpus(mem, Path::new(&dir), policy(), budget())
        .expect("recovery must not refuse");
    (corpus, acked)
}

/// Whether the recovered store serves exactly the histories of `clean`.
fn same_histories(corpus: &ShardedCorpus<Arc<MemFs>>, clean: &RevisionStore) -> bool {
    let store = &corpus.store;
    store.page_count() == clean.page_count()
        && store.entities().into_iter().all(|e| {
            let got = store.materialize(e).unwrap().unwrap();
            clean
                .peek(e)
                .is_some_and(|want| got.revisions() == want.revisions())
        })
}

fn pattern_set(result: &wiclean::core::windows::WcResult) -> BTreeSet<Pattern> {
    result
        .discovered
        .iter()
        .map(|d| d.pattern.clone())
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full pipeline over three crashes — run with --release"
)]
fn kill_and_recover_mines_exactly_the_surviving_prefix() {
    let (universe, seed_type, stream) = stream();
    let total = stream.len() as u64;
    assert!(total > 100, "stream too small to place kill points");
    let wc = default_wc_config(2);

    for percent in [25u64, 50, 90] {
        let kill_at = total * percent / 100;
        // Tear the kill_at-th append a few bytes in and halt the
        // filesystem — the process is dead from this point on.
        let (corpus, acked) = crash_and_recover(&stream, kill_at, 7);
        assert_eq!(acked, kill_at, "the torn append kills record #{kill_at}");
        let n = corpus.recovery.records_recovered;
        assert_eq!(
            n, acked,
            "per-record sync ⇒ exactly the acked prefix survives"
        );
        assert_eq!(corpus.recovery.losses.len(), 1, "only the torn shard");
        assert_eq!(corpus.recovery.losses[0].outcome, TailOutcome::TornTail);
        assert!(
            corpus.recovery.bytes_dropped() > 0,
            "the torn frame is accounted"
        );

        let clean = ingest_clean(&stream[..n as usize]);
        assert!(
            same_histories(&corpus, &clean),
            "recovered store ≡ clean prefix at {percent}%"
        );

        // The losses flow into run accounting like any coverage loss.
        let mut degraded = DegradedCoverage::default();
        corpus.stamp(&mut degraded);
        assert!(!degraded.is_empty());
        assert_eq!(degraded.shard_losses, corpus.recovery.losses);

        // Full pipeline: recovered vs clean prefix must mine identically.
        let mined_recovered = find_windows_and_patterns(&corpus.store, &universe, seed_type, &wc);
        let mined_clean = find_windows_and_patterns(&clean, &universe, seed_type, &wc);
        assert_eq!(
            pattern_set(&mined_recovered),
            pattern_set(&mined_clean),
            "pattern sets diverge after recovery at {percent}%"
        );
        assert_eq!(mined_recovered.final_width, mined_clean.final_width);
        assert_eq!(mined_recovered.final_tau, mined_clean.final_tau);
    }
}

#[test]
fn kill_and_recover_is_exact_without_mining() {
    // The debug-profile variant: same crash points, everything but the
    // full mining runs — so `cargo test` exercises recovery too.
    let (_, _, stream) = stream();
    let total = stream.len() as u64;
    for percent in [25u64, 50, 90] {
        let kill_at = total * percent / 100;
        let (corpus, acked) = crash_and_recover(&stream, kill_at, 3);
        assert_eq!(acked, kill_at);
        assert_eq!(corpus.recovery.records_recovered, kill_at);
        assert!(same_histories(
            &corpus,
            &ingest_clean(&stream[..kill_at as usize])
        ));
    }
}
