//! Property-based tests for the pattern model and for mining robustness
//! under injected faults.

use proptest::prelude::*;
use std::collections::HashMap;
use wiclean_core::abstract_action::AbstractAction;
use wiclean_core::config::{MinerConfig, WcConfig};
use wiclean_core::miner::{WindowMiner, WindowResult};
use wiclean_core::parallel::run_windows;
use wiclean_core::pattern::{most_specific, Pattern};
use wiclean_core::var::Var;
use wiclean_core::windows::{find_windows_and_patterns, WcResult};
use wiclean_core::MiningPool;
use wiclean_revstore::{
    EditOp, FaultPlan, FaultyStore, ResilientFetcher, RetryPolicy, RevisionStore,
};
use wiclean_types::{RelId, Taxonomy, TypeId, Universe, Window};

/// A fixed 3-level taxonomy: Thing → {A → A1, B → B1}.
fn taxonomy() -> Taxonomy {
    let mut tax = Taxonomy::new("Thing");
    let a = tax.add("A", tax.root()).unwrap();
    tax.add("A1", a).unwrap();
    let b = tax.add("B", tax.root()).unwrap();
    tax.add("B1", b).unwrap();
    tax
}

/// Type ids in the fixed taxonomy: 0 root, 1 A, 2 A1, 3 B, 4 B1.
fn ty(i: u32) -> TypeId {
    TypeId::from_u32(i)
}

fn action_strategy() -> impl Strategy<Value = AbstractAction> {
    (prop::bool::ANY, 1u32..5, 0u8..3, 0u32..3, 1u32..5, 0u8..3).prop_map(
        |(add, sty, six, rel, tty, tix)| {
            AbstractAction::new(
                if add { EditOp::Add } else { EditOp::Remove },
                Var::new(ty(sty), six),
                RelId::from_u32(rel),
                Var::new(ty(tty), tix),
            )
        },
    )
}

fn actions_strategy() -> impl Strategy<Value = Vec<AbstractAction>> {
    proptest::collection::vec(action_strategy(), 1..6)
}

/// Renames same-type variable indices with a random bijection.
fn permute_vars(actions: &[AbstractAction], seed: u64) -> Vec<AbstractAction> {
    use std::collections::BTreeSet;
    // Collect indices per type, derive a rotation per type from `seed`.
    let mut per_type: HashMap<TypeId, BTreeSet<u8>> = HashMap::new();
    for a in actions {
        per_type.entry(a.source.ty).or_default().insert(a.source.ix);
        per_type.entry(a.target.ty).or_default().insert(a.target.ix);
    }
    let mut mapping: HashMap<(TypeId, u8), u8> = HashMap::new();
    for (t, ixs) in &per_type {
        let ixs: Vec<u8> = ixs.iter().copied().collect();
        let rot = (seed as usize) % ixs.len().max(1);
        for (k, &old) in ixs.iter().enumerate() {
            let new = ixs[(k + rot) % ixs.len()];
            mapping.insert((*t, old), new);
        }
    }
    actions
        .iter()
        .map(|a| {
            AbstractAction::new(
                a.op,
                Var::new(a.source.ty, mapping[&(a.source.ty, a.source.ix)]),
                a.rel,
                Var::new(a.target.ty, mapping[&(a.target.ty, a.target.ix)]),
            )
        })
        .collect()
}

proptest! {
    /// Canonicalization is invariant under same-type variable renaming.
    #[test]
    fn canonical_invariant_under_renaming(
        actions in actions_strategy(),
        seed in 0u64..7,
    ) {
        let renamed = permute_vars(&actions, seed);
        prop_assert_eq!(
            Pattern::canonical_from(&actions),
            Pattern::canonical_from(&renamed)
        );
    }

    /// Canonicalization is idempotent: canonicalizing a canonical action
    /// list yields the same pattern.
    #[test]
    fn canonical_idempotent(actions in actions_strategy()) {
        let once = Pattern::canonical_from(&actions);
        let twice = Pattern::canonical_from(once.actions());
        prop_assert_eq!(once, twice);
    }

    /// `≺` is irreflexive and antisymmetric.
    #[test]
    fn specificity_is_a_strict_order(
        a in actions_strategy(),
        b in actions_strategy(),
    ) {
        let tax = taxonomy();
        let pa = Pattern::canonical_from(&a);
        let pb = Pattern::canonical_from(&b);
        prop_assert!(!pa.more_specific_than(&pa, &tax), "irreflexive");
        if pa.more_specific_than(&pb, &tax) {
            prop_assert!(!pb.more_specific_than(&pa, &tax), "antisymmetric");
        }
    }

    /// Removing an action always yields a more general pattern.
    #[test]
    fn subset_is_more_general(actions in actions_strategy()) {
        prop_assume!(actions.len() >= 2);
        let tax = taxonomy();
        let full = Pattern::canonical_from(&actions);
        let sub = Pattern::canonical_from(&actions[..actions.len() - 1]);
        if full != sub {
            prop_assert!(full.more_specific_than(&sub, &tax));
        }
    }

    /// Lifting every variable to a supertype — injectively, so distinct
    /// variables stay distinct — yields a more general pattern.
    #[test]
    fn lifted_types_are_more_general(actions in actions_strategy()) {
        let tax = taxonomy();
        // Injective lift: every distinct (type, index) variable gets a
        // fresh index within its lifted type.
        let mut mapping: HashMap<Var, Var> = HashMap::new();
        let mut counters: HashMap<TypeId, u8> = HashMap::new();
        let mut lift = |v: Var| -> Var {
            *mapping.entry(v).or_insert_with(|| {
                let lifted_ty = match tax.parent(v.ty) {
                    Some(p) if p != tax.root() => p,
                    _ => v.ty,
                };
                let c = counters.entry(lifted_ty).or_insert(0);
                let out = Var::new(lifted_ty, *c);
                *c += 1;
                out
            })
        };
        let lifted: Vec<AbstractAction> = actions
            .iter()
            .map(|a| AbstractAction::new(a.op, lift(a.source), a.rel, lift(a.target)))
            .collect();
        let p = Pattern::canonical_from(&actions);
        let q = Pattern::canonical_from(&lifted);
        if p != q {
            prop_assert!(p.more_specific_than(&q, &tax));
        }
    }

    /// `most_specific` returns an antichain: no survivor is more specific
    /// than another, and every dropped pattern has a surviving refinement.
    #[test]
    fn most_specific_is_an_antichain(
        sets in proptest::collection::vec(actions_strategy(), 1..5),
    ) {
        let tax = taxonomy();
        let patterns: Vec<Pattern> =
            sets.iter().map(|a| Pattern::canonical_from(a)).collect();
        let kept = most_specific(&patterns, &tax);
        for x in &kept {
            for y in &kept {
                if x != y {
                    prop_assert!(!x.more_specific_than(y, &tax));
                }
            }
        }
        for dropped in patterns.iter().filter(|p| !kept.contains(p)) {
            prop_assert!(
                kept.iter().any(|k| k.more_specific_than(dropped, &tax)),
                "dropped pattern has no surviving refinement"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Robustness: mining under injected fetch faults and worker panics.
// ---------------------------------------------------------------------------

/// A small transfer world: six players moving between three clubs inside
/// `[10, 100)`, all edits reciprocated so a pair pattern is frequent.
fn transfer_world() -> (Universe, RevisionStore, TypeId, Window) {
    use wiclean_wikitext::render::render_links;
    use wiclean_wikitext::PageLinks;

    let mut u = Universe::new("Thing");
    let root = u.taxonomy().root();
    let player_ty = u.taxonomy_mut().add("Player", root).unwrap();
    let club_ty = u.taxonomy_mut().add("Club", root).unwrap();
    u.relation("current_club");
    u.relation("squad");

    let players: Vec<_> = (0..6)
        .map(|i| u.add_entity(&format!("Player {i}"), player_ty).unwrap())
        .collect();
    let clubs: Vec<_> = (0..3)
        .map(|i| u.add_entity(&format!("Club {i}"), club_ty).unwrap())
        .collect();

    let mut store = RevisionStore::new();
    let mut club_state: Vec<PageLinks> = (0..3).map(|_| PageLinks::new()).collect();
    for (i, &c) in clubs.iter().enumerate() {
        let text = render_links(u.entity_name(c), "club", &club_state[i]);
        store.record(c, 1, text);
    }
    for (i, &p) in players.iter().enumerate() {
        store.record(
            p,
            1,
            render_links(u.entity_name(p), "bio", &PageLinks::new()),
        );
        let club_ix = i % 3;
        let mut links = PageLinks::new();
        links.insert("current_club", u.entity_name(clubs[club_ix]));
        let t = 20 + 10 * i as u64;
        store.record(p, t, render_links(u.entity_name(p), "bio", &links));
        club_state[club_ix].insert("squad", u.entity_name(p));
        let text = render_links(u.entity_name(clubs[club_ix]), "club", &club_state[club_ix]);
        store.record(clubs[club_ix], t + 3, text);
    }
    (u, store, player_ty, Window::new(10, 100))
}

fn transfer_config() -> MinerConfig {
    MinerConfig {
        tau: 0.5,
        ..MinerConfig::default()
    }
}

/// Order-independent digest of a mining result: canonical pattern, support,
/// and the sorted realization rows rendered to text.
fn digest(result: &WindowResult) -> Vec<(Pattern, usize, String)> {
    let mut v: Vec<_> = result
        .patterns
        .iter()
        .map(|p| {
            (
                p.pattern.clone(),
                p.support,
                format!("{:?}", p.table.sorted_rows()),
            )
        })
        .collect();
    v.sort();
    v
}

/// Byte-exact digest of a mining result: every pattern in output order with
/// its full realization table and rel-patterns, plus all stats counters
/// except wall-clock timings. Two results with equal digests are identical
/// in everything the engine promises to keep deterministic.
fn exact_digest(result: &WindowResult) -> String {
    let mut stats = result.stats.clone();
    stats.preprocess = std::time::Duration::ZERO;
    stats.mine = std::time::Duration::ZERO;
    format!("{:?}|{:?}|{:?}", result.patterns, stats, result.degraded)
}

proptest! {
    // Each case runs real mining; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Intra-window parallel mining is byte-identical to sequential mining
    /// at any thread count — patterns in the same order, identical tables,
    /// identical counters — even when the store injects deterministic
    /// fetch faults (degraded coverage must replay identically too).
    #[test]
    fn intra_window_parallelism_is_deterministic(
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.5,
    ) {
        let (u, store, player_ty, window) = transfer_world();
        let mine_with = |threads: usize| {
            // Fresh FaultyStore per run: its per-entity attempt counters
            // must start equal so all runs see the same fault pattern.
            let faulty = FaultyStore::new(&store, FaultPlan::transient_only(rate, fault_seed));
            let result = WindowMiner::new(&faulty, &u, transfer_config())
                .with_pool(Arc::new(MiningPool::new(threads)))
                .mine_window(player_ty, &window);
            exact_digest(&result)
        };
        let sequential = mine_with(1);
        prop_assert_eq!(&sequential, &mine_with(2), "2 threads must match sequential");
        prop_assert_eq!(&sequential, &mine_with(8), "8 threads must match sequential");
    }

    /// Mining through a `ResilientFetcher` over transient-only faults is
    /// byte-identical to fault-free mining: every fault heals on retry, so
    /// coverage is full and the pattern set (including realization tables)
    /// matches exactly.
    #[test]
    fn mining_deterministic_under_transient_retry(
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.30,
    ) {
        let (u, store, player_ty, window) = transfer_world();
        let clean = WindowMiner::new(&store, &u, transfer_config())
            .mine_window(player_ty, &window);

        let faulty = FaultyStore::new(&store, FaultPlan::transient_only(rate, fault_seed));
        // 30 attempts at a ≤30% fault rate: a page permanently failing has
        // probability ≤ 0.3^30 ≈ 2e-16, negligible even over many cases.
        let policy = RetryPolicy {
            max_attempts: 30,
            base_backoff_us: 0,
            max_backoff_us: 0,
            ..RetryPolicy::default()
        };
        let fetcher = ResilientFetcher::new(&faulty, policy);
        let healed = WindowMiner::new(&fetcher, &u, transfer_config())
            .mine_window(player_ty, &window);

        prop_assert!(
            healed.degraded.is_empty(),
            "transient faults must heal under retry: {:?}",
            healed.degraded
        );
        prop_assert_eq!(clean.stats.entities_processed, healed.stats.entities_processed);
        prop_assert_eq!(digest(&clean), digest(&healed));
    }

    /// `parallel == sequential` holds under injected worker faults: windows
    /// whose worker panics surface as failures, and every surviving window's
    /// result is identical to the sequential fault-free run.
    #[test]
    fn parallel_equals_sequential_under_worker_faults(poison_mask in 0u8..16) {
        let (u, store, player_ty, _) = transfer_world();
        let windows = Window::split_span(0, 100, 25);
        prop_assert_eq!(windows.len(), 4);
        let miner = WindowMiner::new(&store, &u, transfer_config());
        let sequential: Vec<_> = windows
            .iter()
            .map(|w| miner.mine_window(player_ty, w))
            .collect();

        let pool = wiclean_core::MiningPool::new(4);
        let out = run_windows(&windows, player_ty, &pool, |w| {
            let i = windows.iter().position(|x| x == w).unwrap();
            if poison_mask & (1 << i) != 0 {
                panic!("injected worker fault in window {i}");
            }
            miner.mine_window(player_ty, w)
        });

        prop_assert_eq!(out.len(), windows.len());
        for (i, r) in out.iter().enumerate() {
            if poison_mask & (1 << i) != 0 {
                let failure = r.as_ref().expect_err("poisoned window must fail");
                prop_assert_eq!(failure.window, windows[i]);
                prop_assert!(failure.panic.contains("injected worker fault"));
            } else {
                let ok = r.as_ref().expect("healthy window must succeed");
                prop_assert_eq!(digest(ok), digest(&sequential[i]));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Preprocessing (action) cache: cached mining ≡ uncached mining, bytewise.
// ---------------------------------------------------------------------------

/// Everything observable about an Algorithm 2 run except timings and the
/// action-cache counters themselves: discovered patterns with their
/// discovery context, the final iteration's full per-window tables, the
/// degraded-coverage record, and the work counters.
fn wc_digest(r: &WcResult) -> String {
    let discovered: Vec<String> = r
        .discovered
        .iter()
        .map(|d| {
            format!(
                "{:?} win={} width={} tau={} f={} sup={} rels={}",
                d.pattern,
                d.window,
                d.window_width,
                d.tau,
                d.frequency,
                d.support,
                d.rel_patterns.len()
            )
        })
        .collect();
    let windows: Vec<_> = r.window_results.iter().map(digest).collect();
    format!(
        "iters={} width={} tau={} discovered={discovered:?} windows={windows:?} \
         degraded={:?} work=({},{},{},{},{},{},{})",
        r.iterations,
        r.final_width,
        r.final_tau,
        r.degraded,
        r.stats.candidates_considered,
        r.stats.joins_executed,
        r.stats.entities_processed,
        r.stats.actions_extracted,
        r.stats.reduced_actions,
        r.stats.patterns_found,
        r.stats.most_specific_found,
    )
}

proptest! {
    // Each case runs two full window/threshold searches; keep cases modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mining with the preprocessing cache is byte-identical to mining
    /// without it — same discovered patterns, same realization tables, same
    /// degraded coverage, same work counters — including over a faulty
    /// source (transient faults healed by deep retry, permanently gone
    /// pages, garbled text). Only the cache counters and timings may
    /// differ, and the cached run must actually reuse work.
    #[test]
    fn action_cached_search_is_byte_identical(
        fault_seed in any::<u64>(),
        transient in 0.0f64..0.25,
        gone in 0.0f64..0.25,
        garble in 0.0f64..0.5,
    ) {
        let (u, store, player_ty, _) = transfer_world();
        let plan = FaultPlan {
            seed: fault_seed,
            transient_rate: transient,
            gone_rate: gone,
            garble_rate: garble,
            ..FaultPlan::default()
        };
        // 30 attempts at ≤25% transient rate: exhaustion probability
        // ≈ 0.25^30 per page — negligible, so losses come only from the
        // per-entity (attempt-independent) `Gone` rolls and are identical
        // across runs even though the two runs' fetch sequences differ.
        let policy = RetryPolicy {
            max_attempts: 30,
            base_backoff_us: 0,
            max_backoff_us: 0,
            ..RetryPolicy::default()
        };
        let run = |use_action_cache: bool| {
            let faulty = FaultyStore::new(&store, plan);
            let fetcher = ResilientFetcher::new(&faulty, policy);
            let config = WcConfig {
                w_min: 30,
                tau0: 0.6,
                max_window: 120,
                min_tau: 0.2,
                timeline_start: 0,
                timeline_end: 120,
                miner: transfer_config(),
                threads: 2,
                use_action_cache,
                ..WcConfig::default()
            };
            find_windows_and_patterns(&fetcher, &u, player_ty, &config)
        };
        let cached = run(true);
        let uncached = run(false);
        prop_assert_eq!(wc_digest(&cached), wc_digest(&uncached));
        prop_assert!(
            cached.stats.action_cache_hits + cached.stats.action_cache_composed > 0,
            "refinement must reuse preprocessing: {:?}",
            cached.stats
        );
        prop_assert_eq!(uncached.stats.action_cache_misses, 0);
    }
}

// ---------------------------------------------------------------------------
// Streaming differential properties: the incremental streaming miner must
// seal every window to exactly what batch mining produces over the same
// revisions — at any arrival order, any refresh cadence, any watermark
// grace, any batch thread count, and across a storage-fault crash/replay.

use std::sync::Arc;
use wiclean_core::config::StreamPolicy;
use wiclean_core::stream::{StreamConfig, StreamMiner};
use wiclean_revstore::{
    DurableFeed, FailKind, FailOp, FailSpec, FailpointFs, FeedEvent, MemFs, RevisionFeed,
    ShardPolicy, SyncPolicy, VecFeed,
};

/// Every revision of `store` as feed events in chronological order.
fn feed_events(store: &RevisionStore) -> Vec<FeedEvent> {
    let mut entities: Vec<_> = store.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    let mut out = Vec::new();
    for e in entities {
        let Some(history) = store.peek(e) else {
            continue;
        };
        for r in history.revisions() {
            out.push(FeedEvent {
                entity: e,
                time: r.time,
                text: r.text.clone(),
            });
        }
    }
    out.sort_by_key(|e| (e.time, e.entity.as_u32()));
    out
}

/// Drains a feed into a vector (preserving its arrival order).
fn drain(mut feed: VecFeed) -> Vec<FeedEvent> {
    let mut out = Vec::new();
    while let Some(e) = feed.next_event() {
        out.push(e);
    }
    out
}

fn stream_cfg(width: u64, grace: u64, cadence: u64) -> StreamConfig {
    StreamConfig {
        width,
        timeline_start: 10,
        miner: transfer_config(),
        policy: StreamPolicy {
            grace,
            refresh_revisions: cadence,
        },
        use_action_cache: true,
    }
}

/// Streams `events` to the end and checks that every sealed window is
/// equivalent to batch-mining the revisions the stream actually accepted
/// (its own store — late arrivals are excluded from both sides and must
/// all be accounted for in the late counter).
fn assert_stream_matches_batch(
    u: &Universe,
    player_ty: TypeId,
    events: Vec<FeedEvent>,
    config: StreamConfig,
    batch_threads: usize,
) -> Result<StreamStats, TestCaseError> {
    let total = events.len();
    let mut sm = StreamMiner::new(u, player_ty, config);
    let mut feed = VecFeed::new(events);
    sm.ingest_from(&mut feed);
    sm.flush();
    prop_assert!(!sm.sealed().is_empty(), "stream must seal some window");
    prop_assert_eq!(
        sm.store().revision_count() as u64 + sm.late_revisions(),
        total as u64,
        "every event is either recorded or counted late — never silently dropped"
    );
    let miner = WindowMiner::new(sm.store(), u, transfer_config())
        .with_pool(Arc::new(MiningPool::new(batch_threads)));
    for r in sm.sealed() {
        let batch = miner.mine_window(player_ty, &r.window);
        prop_assert_eq!(
            digest(r),
            digest(&batch),
            "sealed window {} diverged from batch",
            r.window
        );
        prop_assert_eq!(r.stats.entities_processed, batch.stats.entities_processed);
        prop_assert_eq!(r.stats.actions_extracted, batch.stats.actions_extracted);
        prop_assert_eq!(r.stats.reduced_actions, batch.stats.reduced_actions);
        prop_assert_eq!(r.degraded.parse_issues, batch.degraded.parse_issues);
    }
    Ok(StreamStats {
        late: sm.late_revisions(),
        delta_rows: sm.stats().delta_rows_joined,
        fallbacks: sm.stats().full_remine_fallbacks,
    })
}

struct StreamStats {
    late: u64,
    delta_rows: u64,
    fallbacks: u64,
}

proptest! {
    // Each case streams and re-mines several windows; keep cases modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sealed streamed windows equal batch mining at any arrival order,
    /// refresh cadence, window width, watermark grace, and batch thread
    /// count. With a tight grace, shuffled arrival makes some events late
    /// (their window sealed before they arrived): they are excluded from
    /// the store AND counted, never silently dropped.
    #[test]
    fn streamed_windows_equal_batch_at_any_arrival_order(
        shuffle_seed in any::<u64>(),
        cadence in 1u64..9,
        width_ix in 0usize..3,
        grace_ix in 0usize..3,
        batch_threads in 1usize..5,
    ) {
        let (u, store, player_ty, _) = transfer_world();
        let width = [90u64, 45, 30][width_ix];
        let grace = [1u64, 5, 200][grace_ix];
        let stats = assert_stream_matches_batch(
            &u,
            player_ty,
            drain(VecFeed::shuffled(feed_events(&store), shuffle_seed)),
            stream_cfg(width, grace, cadence),
            batch_threads,
        )?;
        if grace >= 200 {
            prop_assert_eq!(stats.late, 0, "no window seals before the feed ends");
        }
    }

    /// Chronological arrival at per-event cadence drives the delta-join
    /// path (later transfers extend already-accepted tables), and the
    /// sealed output still equals batch.
    #[test]
    fn chronological_stream_delta_joins_and_equals_batch(cadence in 1u64..3) {
        let (u, store, player_ty, _) = transfer_world();
        let stats = assert_stream_matches_batch(
            &u,
            player_ty,
            feed_events(&store),
            stream_cfg(90, 200, cadence),
            1,
        )?;
        prop_assert!(
            stats.delta_rows > 0,
            "chronological per-event refreshes must exercise delta joins"
        );
    }

    /// Link retractions (a revision that removes a previously added link)
    /// break the append-only delta invariant: the stream must fall back to
    /// a full window re-mine and still seal to the batch answer, at any
    /// arrival order.
    #[test]
    fn retractions_fall_back_and_still_equal_batch(
        shuffle_seed in any::<u64>(),
        cadence in 1u64..5,
        retract_mask in 1u8..64,
    ) {
        use wiclean_wikitext::render::render_links;
        use wiclean_wikitext::PageLinks;
        let (u, mut store, player_ty, _) = transfer_world();
        // Players whose mask bit is set retract their transfer near the
        // window's end: the page reverts to the empty link state, so
        // reduction cancels the earlier add.
        let mut retract_time = 80;
        for i in 0..6u8 {
            if retract_mask & (1 << i) == 0 {
                continue;
            }
            let name = format!("Player {i}");
            let Some(p) = u.entities().lookup(&name) else { continue };
            store.record(
                p,
                retract_time,
                render_links(&name, "bio", &PageLinks::new()),
            );
            retract_time += 1;
        }
        let stats = assert_stream_matches_batch(
            &u,
            player_ty,
            drain(VecFeed::shuffled(feed_events(&store), shuffle_seed)),
            stream_cfg(90, 200, cadence),
            2,
        )?;
        let _ = stats.fallbacks; // fallback count depends on arrival order
    }

    /// Crash-replay property: events are appended by a `DurableFeed` until
    /// a torn write kills the store; reopening replays exactly the
    /// delivered prefix (in a different, normalized order), and streaming
    /// that replay seals to the same windows as batch-mining the prefix.
    #[test]
    fn durable_feed_wal_fault_replay_streams_like_batch(
        shuffle_seed in any::<u64>(),
        kill_at in 3u64..40,
        cadence in 1u64..6,
    ) {
        let (u, store, player_ty, _) = transfer_world();
        let events = drain(VecFeed::shuffled(feed_events(&store), shuffle_seed));
        let policy = ShardPolicy {
            shards: 3,
            sync: SyncPolicy::Always,
            ..ShardPolicy::default()
        };
        let fs = Arc::new(MemFs::new());
        let spec = FailSpec::once(FailOp::Append, kill_at, FailKind::TornWrite { keep: 5 });
        let failing = Arc::new(FailpointFs::new(fs.clone(), spec));
        let mut feed = DurableFeed::create(failing, "/feed", policy).unwrap();
        let mut delivered = Vec::new();
        for e in events {
            if feed.push(e.entity, e.time, &e.text).is_err() {
                break; // torn write: the event was neither logged nor delivered
            }
            delivered.push(e);
        }
        drop(feed); // crash without a flush

        let mut replay = DurableFeed::open(fs, "/feed", policy).unwrap();
        prop_assert_eq!(
            replay.recovery().records_recovered as usize,
            delivered.len(),
            "recovery returns exactly the delivered prefix"
        );
        let mut replayed = Vec::new();
        while let Some(e) = replay.next_event() {
            replayed.push(e);
        }
        assert_stream_matches_batch(
            &u,
            player_ty,
            replayed,
            stream_cfg(90, 200, cadence),
            1,
        )?;
    }
}

// ---------------------------------------------------------------------------
// Join-engine differential property: the `PM−join` nested loop mines what
// the hash join mines, byte for byte, at any thread count.
// ---------------------------------------------------------------------------

proptest! {
    // Each case runs real mining; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batch mining with the nested-loop pair stage is identical to the
    /// hash join — same patterns, supports, realization tables, and
    /// logical join counters — at any thread count.
    #[test]
    fn nested_loop_mines_byte_identically(threads in 1usize..5) {
        let (u, store, player_ty, window) = transfer_world();
        let baseline = WindowMiner::new(&store, &u, transfer_config())
            .mine_window(player_ty, &window);
        let mut config = transfer_config();
        config.join_impl = wiclean_core::JoinImpl::NestedLoop;
        let nested = WindowMiner::new(&store, &u, config)
            .with_pool(Arc::new(MiningPool::new(threads)))
            .mine_window(player_ty, &window);
        prop_assert_eq!(digest(&baseline), digest(&nested));
        prop_assert_eq!(baseline.stats.rows_probed, nested.stats.rows_probed);
        prop_assert_eq!(baseline.stats.pairs_matched, nested.stats.pairs_matched);
    }
}
