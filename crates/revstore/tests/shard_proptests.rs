//! Property-based tests for the out-of-core sharded store: delta-encoded
//! segment logs must be an invisible representation change. Whatever
//! revision sequence is ingested — out of order, with non-append-only
//! edits (text shrinking, lines vanishing), at any shard count or
//! checkpoint cadence — materializing an entity must return bytes
//! identical to what the plain in-memory [`RevisionStore`] holds, and
//! per-shard crash damage must stay confined to the damaged shard.
//!
//! The crash properties check one invariant from several directions:
//!
//! ```text
//! recover(segments(ingest(revs))) == in-memory ingest of, per shard,
//!                                    a prefix of that shard's appends
//! ```
//!
//! exactly (every prefix complete) for fault-free runs, and as a reported
//! per-shard prefix under every injected-fault class — never a silently
//! corrupted store.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wiclean_revstore::wal::crc32;
use wiclean_revstore::{
    try_extract_actions_with, CrawlStats, ExtractMode, FailKind, FailOp, FailSpec, FailpointFs,
    FetchSource, MemFs, MemoryBudget, PageHistory, RevisionStore, ShardPolicy, ShardedStore,
    SyncPolicy, TailOutcome, Vfs,
};
use wiclean_types::{EntityId, Timestamp, TypeId, Universe, Window};

/// A revision text assembled from a small line vocabulary, so consecutive
/// revisions share lines (the delta encoder's working regime) but can also
/// shrink, empty out, or change completely (non-append-only edits).
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..6, 0u32..4), 0..6).prop_map(|parts| {
        let lines: Vec<String> = parts
            .into_iter()
            .map(|(kind, n)| match kind {
                0 => format!("| current_club = [[Club {n}]]"),
                1 => format!("* [[Player {n}]]"),
                2 => "== Career ==".to_owned(),
                3 => format!("Appearances: {n}"),
                4 => String::new(),
                _ => format!("prose about [[City {n}]] and more"),
            })
            .collect();
        lines.join("\n")
    })
}

/// `(entity, time, text)` appends over a tiny entity space so per-entity
/// chains get long enough to cross checkpoint boundaries, with timestamps
/// drawn unsorted so out-of-order ingestion occurs constantly.
fn append_strategy() -> impl Strategy<Value = Vec<(u32, Timestamp, String)>> {
    proptest::collection::vec((0u32..5, 0u64..1_000, text_strategy()), 0..40)
}

fn policy(shards: u32, snapshot_every: u32) -> ShardPolicy {
    ShardPolicy {
        shards,
        snapshot_every,
        sync: SyncPolicy::Never,
        ..ShardPolicy::default()
    }
}

fn budget() -> Arc<MemoryBudget> {
    Arc::new(MemoryBudget::new(1 << 20))
}

/// Ingests the same appends into a reference in-memory store and a sharded
/// store, returning both.
fn ingest(
    fs: Arc<MemFs>,
    dir: &Path,
    appends: &[(u32, Timestamp, String)],
    shards: u32,
    snapshot_every: u32,
) -> (RevisionStore, ShardedStore<Arc<MemFs>>) {
    let mut reference = RevisionStore::new();
    let sharded = ShardedStore::create(fs, dir, policy(shards, snapshot_every), budget()).unwrap();
    for (e, t, text) in appends {
        let entity = EntityId::from_u32(*e);
        reference.record(entity, *t, text.clone());
        sharded.append(entity, *t, text).unwrap();
    }
    sharded.flush().unwrap();
    (reference, sharded)
}

/// A universe that resolves some of [`text_strategy`]'s links (clubs
/// under `current_club`, two of the players) and leaves the rest
/// unresolved, so extraction exercises every counter.
fn club_universe() -> Universe {
    let mut u = Universe::new("Thing");
    let page = u.taxonomy_mut().add("Page", TypeId::from_u32(0)).unwrap();
    u.relation("current_club");
    for n in 0..4 {
        u.add_entity(&format!("Club {n}"), page).unwrap();
    }
    for n in 0..2 {
        u.add_entity(&format!("Player {n}"), page).unwrap();
    }
    u
}

/// Arbitrary windows over the append timestamps' range, empty ones and
/// ones starting at 0 included.
fn window_strategy() -> impl Strategy<Value = Vec<Window>> {
    proptest::collection::vec(
        (0u64..1_100, 0u64..400).prop_map(|(start, len)| Window::new(start, start + len)),
        1..5,
    )
}

/// Checks that `trimmed` answers the two queries extraction makes over
/// `window` exactly as the full history does.
fn check_window_view(
    trimmed: &PageHistory,
    full: &PageHistory,
    window: &Window,
) -> Result<(), TestCaseError> {
    if let Some(before) = window.start.checked_sub(1) {
        prop_assert_eq!(trimmed.snapshot_at(before), full.snapshot_at(before));
    }
    prop_assert_eq!(trimmed.revisions_in(window), full.revisions_in(window));
    Ok(())
}

/// The crawl counters a fetch moves, as the difference of two snapshots.
fn crawl_delta(before: CrawlStats, after: CrawlStats) -> (u64, u64, u64) {
    (
        after.pages_fetched - before.pages_fetched,
        after.revisions_scanned - before.revisions_scanned,
        after.bytes_scanned - before.bytes_scanned,
    )
}

/// Frames an arbitrary payload exactly as the store's writer does
/// (`len:u32 crc:u32 payload`), so it passes the open scan's checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Structurally valid frames with hostile contents: full texts of
/// arbitrary bytes (not always UTF-8), and splices with arbitrary
/// prefix/suffix lengths and middles, over three entities.
fn hostile_segment() -> impl Strategy<Value = Vec<u8>> {
    let full = (
        0u32..3,
        0u64..50,
        proptest::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(e, t, text)| {
            let mut p = vec![0x01];
            p.extend_from_slice(&e.to_le_bytes());
            p.extend_from_slice(&t.to_le_bytes());
            p.extend_from_slice(&(text.len() as u32).to_le_bytes());
            p.extend_from_slice(&text);
            p
        });
    let delta = (
        0u32..3,
        0u64..50,
        0u32..30,
        0u32..30,
        proptest::collection::vec(any::<u8>(), 0..12),
    )
        .prop_map(|(e, t, prefix, suffix, mid)| {
            let mut p = vec![0x02];
            p.extend_from_slice(&e.to_le_bytes());
            p.extend_from_slice(&t.to_le_bytes());
            p.extend_from_slice(&prefix.to_le_bytes());
            p.extend_from_slice(&suffix.to_le_bytes());
            p.extend_from_slice(&(mid.len() as u32).to_le_bytes());
            p.extend_from_slice(&mid);
            p
        });
    proptest::collection::vec(prop_oneof![full, delta], 0..12)
        .prop_map(|payloads| payloads.iter().flat_map(|p| frame(p)).collect())
}

/// Writes `bytes` as shard 0 of a one-shard store at `/store` (meta
/// written by a real creation) and opens it.
fn open_hostile(bytes: &[u8]) -> ShardedStore<Arc<MemFs>> {
    let fs = Arc::new(MemFs::new());
    let dir = PathBuf::from("/store");
    drop(ShardedStore::create(fs.clone(), &dir, policy(1, 4), budget()).unwrap());
    fs.write(&dir.join("shard-0000.seg"), bytes).unwrap();
    let (store, _) = ShardedStore::open(fs, &dir, policy(1, 4), budget()).unwrap();
    store
}

/// Reads every entity of `store` through both read paths, which must
/// agree: both lose the page, or both serve the same window view.
fn check_read_paths_agree<V: Vfs>(
    store: &ShardedStore<V>,
    window: &Window,
) -> Result<(), TestCaseError> {
    for entity in store.entities() {
        let windowed = store.fetch_window(entity, window);
        let full = store.fetch_history(entity);
        match (windowed, full) {
            (Ok(Some(w)), Ok(Some(f))) => check_window_view(&w, &f, window)?,
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "read paths disagree: {:?} vs {:?}", a, b),
        }
    }
    Ok(())
}

/// How many revisions each shard of `store` holds.
fn kept_per_shard<V: Vfs>(store: &ShardedStore<V>) -> Vec<u64> {
    let mut kept = vec![0u64; store.policy().shards as usize];
    for entity in store.entities() {
        let history = store.materialize(entity).unwrap().unwrap();
        kept[store.shard_of(entity) as usize] += history.len() as u64;
    }
    kept
}

/// How many of `appends` each shard of `store` receives.
fn appended_per_shard<V: Vfs>(
    store: &ShardedStore<V>,
    appends: &[(u32, Timestamp, String)],
) -> Vec<u64> {
    let mut n = vec![0u64; store.policy().shards as usize];
    for (e, _, _) in appends {
        n[store.shard_of(EntityId::from_u32(*e)) as usize] += 1;
    }
    n
}

/// Checks that `store` holds exactly, per shard `s`, clean in-memory
/// ingestion of the first `kept[s]` appends that shard received — the
/// state per-shard prefix recovery must reproduce — and returns `kept`.
fn check_shard_prefixes<V: Vfs>(
    store: &ShardedStore<V>,
    appends: &[(u32, Timestamp, String)],
) -> Result<Vec<u64>, TestCaseError> {
    let kept = kept_per_shard(store);
    let mut seen = vec![0u64; kept.len()];
    let mut clean = RevisionStore::new();
    for (e, t, text) in appends {
        let entity = EntityId::from_u32(*e);
        let shard = store.shard_of(entity) as usize;
        if seen[shard] < kept[shard] {
            clean.record(entity, *t, text.clone());
            seen[shard] += 1;
        }
    }
    prop_assert_eq!(&seen, &kept, "a shard holds more than it was sent");
    prop_assert_eq!(store.page_count(), clean.page_count());
    for entity in store.entities() {
        let got = store.materialize(entity).unwrap().unwrap();
        let want = clean.peek(entity).unwrap();
        prop_assert_eq!(got.revisions(), want.revisions());
    }
    Ok(kept)
}

/// Appends `appends` in order until the first failure, returning how many
/// appends each shard acknowledged.
fn ingest_until_failure<V: Vfs>(
    store: &ShardedStore<V>,
    appends: &[(u32, Timestamp, String)],
) -> Vec<u64> {
    let mut acked = vec![0u64; store.policy().shards as usize];
    for (e, t, text) in appends {
        let entity = EntityId::from_u32(*e);
        if store.append(entity, *t, text).is_err() {
            break;
        }
        acked[store.shard_of(entity) as usize] += 1;
    }
    acked
}

proptest! {
    /// Delta-encode → materialize is byte-identical to the in-memory store
    /// for arbitrary sequences, at any shard count and checkpoint cadence
    /// (including 1 = deltas disabled).
    #[test]
    fn materialize_matches_in_memory_store(
        appends in append_strategy(),
        shards in 1u32..5,
        snapshot_every in 1u32..6,
    ) {
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        let (reference, sharded) = ingest(fs, &dir, &appends, shards, snapshot_every);
        prop_assert_eq!(sharded.page_count(), reference.page_count());
        for entity in sharded.entities() {
            let got = sharded.materialize(entity).unwrap().unwrap();
            let want = reference.peek(entity).unwrap();
            prop_assert_eq!(got.revisions(), want.revisions());
        }
    }

    /// Reopening the store from its segment bytes — the crash-recovery
    /// read path — serves the same histories as the original in-memory
    /// reference, and reports a clean recovery when nothing was damaged.
    #[test]
    fn reopen_round_trips_byte_identical(
        appends in append_strategy(),
        shards in 1u32..4,
        snapshot_every in 1u32..5,
    ) {
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        let (reference, sharded) = ingest(fs.clone(), &dir, &appends, shards, snapshot_every);
        drop(sharded);
        let (reopened, recovery) =
            ShardedStore::open(fs, &dir, policy(shards, snapshot_every), budget()).unwrap();
        prop_assert!(recovery.is_clean());
        prop_assert_eq!(reopened.page_count(), reference.page_count());
        for entity in reopened.entities() {
            let got = reopened.materialize(entity).unwrap().unwrap();
            let want = reference.peek(entity).unwrap();
            prop_assert_eq!(got.revisions(), want.revisions());
        }
    }

    /// Tearing an arbitrary number of bytes off one shard's segment tail —
    /// a crash mid-append — must (a) reopen successfully, (b) report the
    /// loss against that shard only, and (c) leave every *other* shard's
    /// histories byte-identical to the reference. The damaged shard serves
    /// a prefix of its appends: every materialized revision it still has
    /// must appear in the reference history.
    #[test]
    fn torn_shard_tail_is_contained(
        appends in append_strategy(),
        shards in 2u32..4,
        snapshot_every in 1u32..5,
        victim in 0u32..4,
        cut in 1u64..200,
    ) {
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        let (reference, sharded) = ingest(fs.clone(), &dir, &appends, shards, snapshot_every);
        drop(sharded);

        let victim = victim % shards;
        let seg = dir.join(format!("shard-{victim:04}.seg"));
        prop_assume!(fs.exists(&seg));
        let len = fs.len(&seg).unwrap();
        prop_assume!(len > 0);
        let cut = cut.min(len);
        fs.truncate(&seg, len - cut).unwrap();

        let (reopened, recovery) =
            ShardedStore::open(fs, &dir, policy(shards, snapshot_every), budget()).unwrap();
        for loss in &recovery.losses {
            prop_assert_eq!(loss.shard, victim, "loss must land on the damaged shard");
        }
        for entity in reopened.entities() {
            let got = reopened.materialize(entity).unwrap().unwrap();
            let want = reference.peek(entity).unwrap();
            if reopened.shard_of(entity) == victim {
                // Damaged shard: a (possibly complete) subset of the
                // reference — never an invented or corrupted revision.
                prop_assert!(got.len() <= want.len());
                for rev in got.revisions() {
                    prop_assert!(
                        want.revisions().contains(rev),
                        "revision not in reference history"
                    );
                }
            } else {
                prop_assert_eq!(got.revisions(), want.revisions());
            }
        }
    }

    /// Reopening is idempotent: the first open truncates whatever tail
    /// damage it finds, and a second open of the same directory is clean
    /// and serves the identical histories.
    #[test]
    fn reopen_is_idempotent(
        appends in append_strategy(),
        shards in 1u32..4,
        snapshot_every in 1u32..5,
        cut in 0u64..40,
    ) {
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        drop(ingest(fs.clone(), &dir, &appends, shards, snapshot_every));
        let seg = dir.join("shard-0000.seg");
        if fs.exists(&seg) {
            let len = fs.len(&seg).unwrap();
            fs.truncate(&seg, len - cut.min(len)).unwrap();
        }
        let (first, _) =
            ShardedStore::open(fs.clone(), &dir, policy(shards, snapshot_every), budget())
                .unwrap();
        let kept = check_shard_prefixes(&first, &appends)?;
        drop(first);
        let (second, recovery) =
            ShardedStore::open(fs, &dir, policy(shards, snapshot_every), budget()).unwrap();
        prop_assert!(recovery.is_clean(), "{:?}", recovery);
        prop_assert_eq!(check_shard_prefixes(&second, &appends)?, kept);
    }

    /// Torn append (every cut point): the filesystem dies mid-frame, and
    /// recovery restores exactly the acknowledged appends, reports the
    /// torn tail, and equals clean ingestion of that prefix.
    #[test]
    fn torn_append_recovers_acked_prefix(
        appends in append_strategy(),
        shards in 1u32..4,
        tear_at_frac in 0.0f64..1.0,
        keep in 1usize..64,
    ) {
        prop_assume!(appends.len() >= 2);
        let tear_at = ((appends.len() - 1) as f64 * tear_at_frac) as u64;
        let mem = Arc::new(MemFs::new());
        let fs = FailpointFs::new(
            mem.clone(),
            FailSpec::once(FailOp::Append, tear_at, FailKind::TornWrite { keep }),
        );
        let dir = PathBuf::from("/store");
        let pol = ShardPolicy {
            sync: SyncPolicy::Always,
            ..policy(shards, 4)
        };
        let store = ShardedStore::create(&fs, &dir, pol, budget()).unwrap();
        let acked = ingest_until_failure(&store, &appends);
        prop_assert_eq!(acked.iter().sum::<u64>(), tear_at);
        drop(store);
        let (back, recovery) = ShardedStore::open(mem, &dir, pol, budget()).unwrap();
        prop_assert_eq!(recovery.records_recovered, tear_at);
        prop_assert_eq!(check_shard_prefixes(&back, &appends)?, acked);
        // A tear that keeps no byte leaves a clean, shorter log; any
        // mid-frame cut is a torn tail with its bytes counted.
        prop_assert!(recovery.losses.len() <= 1, "{:?}", recovery);
        for loss in &recovery.losses {
            prop_assert_eq!(loss.outcome, TailOutcome::TornTail);
            prop_assert!(loss.bytes_dropped > 0);
        }
    }

    /// Bit flips at arbitrary segment offsets: the flipped shard keeps a
    /// strictly shorter exact prefix AND reports the damage, every other
    /// shard is untouched, and nothing panics.
    #[test]
    fn segment_bit_flip_never_silently_accepted(
        appends in append_strategy(),
        shards in 1u32..4,
        snapshot_every in 1u32..5,
        victim in 0u32..4,
        offset_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        let (_, sharded) = ingest(fs.clone(), &dir, &appends, shards, snapshot_every);
        let appended = appended_per_shard(&sharded, &appends);
        drop(sharded);
        let victim = victim % shards;
        let seg = dir.join(format!("shard-{victim:04}.seg"));
        prop_assume!(fs.exists(&seg));
        let len = fs.len(&seg).unwrap();
        let offset = ((len - 1) as f64 * offset_frac) as u64;
        fs.corrupt_byte(&seg, offset, xor).unwrap();

        let (back, recovery) =
            ShardedStore::open(fs, &dir, policy(shards, snapshot_every), budget()).unwrap();
        let kept = check_shard_prefixes(&back, &appends)?;
        for shard in 0..shards {
            let s = shard as usize;
            if shard == victim {
                prop_assert!(kept[s] < appended[s], "a flip in live data must cost records");
                prop_assert!(
                    recovery.losses.iter().any(|l| l.shard == shard && l.bytes_dropped > 0),
                    "dropped records without reporting: {:?}",
                    recovery
                );
            } else {
                prop_assert_eq!(kept[s], appended[s]);
            }
        }
        prop_assert_eq!(recovery.losses.len(), 1);
    }

    /// Seeded storms of torn appends and failed syncs: whatever the fault
    /// pattern, recovery yields an exact per-shard prefix that holds every
    /// acknowledged append, plus at most the one append whose sync failed.
    #[test]
    fn seeded_fault_storm_recovers_acked_prefixes(
        appends in append_strategy(),
        shards in 1u32..4,
        seed in 0u64..1_000,
    ) {
        prop_assume!(!appends.is_empty());
        let mem = Arc::new(MemFs::new());
        let fs = FailpointFs::new(
            mem.clone(),
            FailSpec {
                fail_at: vec![],
                seed,
                torn_append_rate: 0.15,
                sync_fail_rate: 0.10,
            },
        );
        let dir = PathBuf::from("/store");
        let pol = ShardPolicy {
            sync: SyncPolicy::EveryN(2),
            ..policy(shards, 3)
        };
        let store = match ShardedStore::create(&fs, &dir, pol, budget()) {
            Ok(store) => store,
            // A seeded fault can hit the creation sync; nothing was
            // acknowledged, nothing to verify.
            Err(_) => return Ok(()),
        };
        let acked = ingest_until_failure(&store, &appends);
        drop(store);
        let (back, _) = ShardedStore::open(mem, &dir, pol, budget()).unwrap();
        let kept = check_shard_prefixes(&back, &appends)?;
        for (s, (&k, &a)) in kept.iter().zip(&acked).enumerate() {
            prop_assert!(a <= k && k <= a + 1, "shard {s}: kept {k}, acked {a}");
        }
        prop_assert!(
            kept.iter().sum::<u64>() <= acked.iter().sum::<u64>() + 1,
            "only the failing append may land unacknowledged"
        );
    }
}

proptest! {
    /// The window-scoped read equals the in-memory store on the two
    /// queries extraction makes, for in-order and out-of-order logs, at
    /// any shard count and checkpoint cadence. Extraction over the sharded
    /// store equals extraction over the in-memory store, actions and every
    /// counter, in both modes, and the window read counts the same crawl
    /// work as a full fetch.
    #[test]
    fn window_reads_and_extraction_match_in_memory_store(
        appends in append_strategy(),
        in_order in any::<bool>(),
        shards in 1u32..5,
        snapshot_every in 1u32..7,
        windows in window_strategy(),
    ) {
        let mut appends = appends;
        if in_order {
            appends.sort_by_key(|a| a.1);
        }
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        let (reference, sharded) = ingest(fs, &dir, &appends, shards, snapshot_every);
        let u = club_universe();
        for entity in sharded.entities() {
            let full = reference.peek(entity).unwrap();
            for w in &windows {
                let before = sharded.crawl_stats();
                let trimmed = sharded.fetch_window(entity, w).unwrap().unwrap();
                let mid = sharded.crawl_stats();
                check_window_view(&trimmed, full, w)?;
                drop(sharded.fetch_history(entity).unwrap());
                let after = sharded.crawl_stats();
                prop_assert_eq!(crawl_delta(before, mid), crawl_delta(mid, after));
                for mode in [ExtractMode::Incremental, ExtractMode::FullReparse] {
                    let disk = try_extract_actions_with(&sharded, &u, entity, w, mode).unwrap();
                    let memory = try_extract_actions_with(&reference, &u, entity, w, mode).unwrap();
                    prop_assert_eq!(disk, memory);
                }
            }
        }
        let absent = EntityId::from_u32(99);
        prop_assert!(sharded.fetch_window(absent, &windows[0]).unwrap().is_none());
    }

    /// Arbitrary bytes as a segment file never make `open` panic, and
    /// whatever it indexes reads the same through both read paths.
    #[test]
    fn arbitrary_segment_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        start in 0u64..60,
        len in 0u64..60,
    ) {
        let store = open_hostile(&bytes);
        check_read_paths_agree(&store, &Window::new(start, start + len))?;
    }

    /// Frames that pass the open scan but carry hostile contents
    /// (non-UTF-8 text, splices past their base) never panic a read, and
    /// both read paths lose or serve each page alike.
    #[test]
    fn hostile_frames_fail_both_read_paths_alike(
        bytes in hostile_segment(),
        start in 0u64..60,
        len in 0u64..60,
    ) {
        let store = open_hostile(&bytes);
        check_read_paths_agree(&store, &Window::new(start, start + len))?;
    }

    /// One byte flipped after `open` and before the first read: for every
    /// entity the window read and the full read both report the page gone,
    /// or both serve exactly the written texts — never different text.
    #[test]
    fn flip_after_open_fails_both_read_paths_alike(
        appends in append_strategy(),
        in_order in any::<bool>(),
        shards in 1u32..4,
        snapshot_every in 1u32..5,
        victim in 0u32..4,
        offset_frac in 0.0f64..1.0,
        xor in 1u8..=255,
        windows in window_strategy(),
    ) {
        let mut appends = appends;
        if in_order {
            appends.sort_by_key(|a| a.1);
        }
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        let (reference, sharded) = ingest(fs.clone(), &dir, &appends, shards, snapshot_every);
        drop(sharded);
        let (store, recovery) =
            ShardedStore::open(fs.clone(), &dir, policy(shards, snapshot_every), budget())
                .unwrap();
        prop_assert!(recovery.is_clean());
        let seg = dir.join(format!("shard-{:04}.seg", victim % shards));
        prop_assume!(fs.exists(&seg));
        let seg_len = fs.len(&seg).unwrap();
        fs.corrupt_byte(&seg, ((seg_len - 1) as f64 * offset_frac) as u64, xor)
            .unwrap();

        for entity in store.entities() {
            let written = reference.peek(entity).unwrap();
            for w in &windows {
                match (store.fetch_window(entity, w), store.materialize(entity)) {
                    (Ok(Some(trimmed)), Ok(Some(full))) => {
                        check_window_view(&trimmed, written, w)?;
                        prop_assert_eq!(full.revisions(), written.revisions());
                    }
                    (Err(gone), Err(_)) => {
                        prop_assert_eq!(gone, store.fetch_history(entity).unwrap_err());
                    }
                    (a, b) => prop_assert!(false, "read paths disagree: {:?} vs {:?}", a, b),
                }
            }
        }
    }
}

/// Power loss (all unsynced bytes vanish) under each sync policy: every
/// shard keeps an exact prefix, at most the policy's sync cadence short.
#[test]
fn power_loss_respects_sync_policy() {
    let appends: Vec<(u32, Timestamp, String)> = (0..40)
        .map(|i| (i % 5, i as u64 * 5, format!("text [[T{i}]] body")))
        .collect();
    for (sync, max_lost_per_shard) in [
        (SyncPolicy::Always, 0u64),
        (SyncPolicy::EveryN(4), 3),
        (SyncPolicy::Never, u64::MAX),
    ] {
        let fs = Arc::new(MemFs::new());
        let dir = PathBuf::from("/store");
        let pol = ShardPolicy {
            sync,
            ..policy(3, 4)
        };
        let store = ShardedStore::create(fs.clone(), &dir, pol, budget()).unwrap();
        let acked = ingest_until_failure(&store, &appends);
        drop(store);
        fs.drop_unsynced();
        let (back, recovery) = ShardedStore::open(fs, &dir, pol, budget()).unwrap();
        assert!(recovery.is_clean(), "syncs are frame-aligned: {recovery:?}");
        let kept = check_shard_prefixes(&back, &appends).unwrap();
        for (s, (&k, &a)) in kept.iter().zip(&acked).enumerate() {
            assert!(
                a - k <= max_lost_per_shard,
                "{sync:?}: shard {s} kept only {k} of {a} appends"
            );
        }
        if sync == SyncPolicy::Never {
            assert_eq!(kept.iter().sum::<u64>(), 0, "nothing was ever synced");
        }
    }
}
