//! Differential tests: the served suggestion path must agree, suggestion
//! for suggestion and in order, with the batch Algorithm-3 path
//! (`wiclean_core::assist::suggest_completions`) — including across a
//! mid-stream hot swap, where every wire response is attributable to
//! exactly one index epoch and none are dropped.

mod common;

use common::soccer_world;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use wiclean_core::assist::suggest_completions;
use wiclean_core::config::StreamPolicy;
use wiclean_core::pattern::WorkingPattern;
use wiclean_core::stream::{wc_result_from_sealed, StreamConfig, StreamMiner};
use wiclean_revstore::FeedEvent;
use wiclean_serve::{serve, IndexLimits, PatternIndex, PatternSet, ServeConfig, SuggestClient};
use wiclean_types::{EntityId, Window};

/// The batch answer: rendered suggestion strings, in output order.
fn batch_answers(
    fx: &common::Fixture,
    patterns: &[(WorkingPattern, f64)],
    entity: EntityId,
) -> Vec<String> {
    suggest_completions(
        &fx.store,
        &fx.universe,
        &fx.config(),
        patterns,
        fx.player_ty,
        entity,
        &fx.window,
    )
    .iter()
    .map(|s| s.display(&fx.universe))
    .collect()
}

/// The served answer (in-process index lookup): rendered strings, in
/// output order.
fn served_answers(index: &PatternIndex, fx: &common::Fixture, entity: EntityId) -> Vec<String> {
    index
        .suggest_by_name(fx.universe.entity_name(entity), None)
        .iter()
        .map(|s| s.text.clone())
        .collect()
}

fn build_index(fx: &common::Fixture, patterns: &[(WorkingPattern, f64)]) -> PatternIndex {
    let set = PatternSet::single_window(fx.player_ty, fx.window, patterns);
    PatternIndex::build(
        &fx.store,
        &fx.universe,
        &fx.config(),
        &set,
        IndexLimits::default(),
    )
    .expect("fixture set fits default limits")
}

#[test]
fn index_matches_batch_for_every_entity() {
    let fx = soccer_world();
    let patterns = vec![(fx.pair_working(), 0.8), (fx.single_working(), 0.6)];
    let index = build_index(&fx, &patterns);
    for &e in fx.players.iter().chain(fx.clubs.iter()) {
        assert_eq!(
            served_answers(&index, &fx, e),
            batch_answers(&fx, &patterns, e),
            "entity {}",
            fx.universe.entity_name(e)
        );
    }
    // The fixture's partial player actually has a suggestion to serve.
    assert!(!served_answers(&index, &fx, fx.partial_player).is_empty());
}

#[test]
fn confidence_ordering_matches_batch_ties_and_all() {
    let fx = soccer_world();
    // Reversed confidences flip the ranking; equal confidences exercise
    // the stable tie-break (batch: pattern order).
    for confs in [[0.2, 0.9], [0.9, 0.2], [0.5, 0.5]] {
        let patterns = vec![
            (fx.pair_working(), confs[0]),
            (fx.single_working(), confs[1]),
        ];
        let index = build_index(&fx, &patterns);
        for &e in &fx.players {
            assert_eq!(
                served_answers(&index, &fx, e),
                batch_answers(&fx, &patterns, e),
                "confs {confs:?}, entity {}",
                fx.universe.entity_name(e)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any pattern subset with any confidences: served == batch for every
    /// entity in the world.
    #[test]
    fn served_equals_batch(
        use_pair in any::<bool>(),
        use_single in any::<bool>(),
        c1 in 0.0f64..1.0,
        c2 in 0.0f64..1.0,
    ) {
        let fx = soccer_world();
        let mut patterns: Vec<(WorkingPattern, f64)> = Vec::new();
        if use_pair {
            patterns.push((fx.pair_working(), c1));
        }
        if use_single {
            patterns.push((fx.single_working(), c2));
        }
        let index = build_index(&fx, &patterns);
        for &e in fx.players.iter().chain(fx.clubs.iter()) {
            prop_assert_eq!(
                served_answers(&index, &fx, e),
                batch_answers(&fx, &patterns, e)
            );
        }
    }
}

/// The tentpole guarantee over the wire: a hot swap mid-stream drops
/// nothing, and every response matches the batch answer for the epoch
/// that served it.
#[test]
fn hot_swap_mid_stream_drops_nothing_and_stays_correct() {
    let fx = soccer_world();
    // Two generations of the same pattern, distinguishable by confidence
    // (the rendered text embeds it).
    let set_a = vec![(fx.pair_working(), 0.8)];
    let set_b = vec![(fx.pair_working(), 0.5)];
    let expect_a = batch_answers(&fx, &set_a, fx.partial_player);
    let expect_b = batch_answers(&fx, &set_b, fx.partial_player);
    assert_ne!(expect_a, expect_b, "generations must be distinguishable");

    let index_a = build_index(&fx, &set_a);
    let universe = Arc::new(fx.universe.clone());
    let mut handle = serve(ServeConfig::default(), universe, index_a, None).expect("server starts");
    let addr = handle.addr();
    let entity = fx.universe.entity_name(fx.partial_player).to_string();

    const TOTAL: usize = 400;
    const SWAP_AT: usize = TOTAL / 2;
    let mut client = SuggestClient::connect(addr).expect("client connects");
    let mut seen_epochs = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        if i == SWAP_AT {
            // Swap between requests on a live connection with more
            // traffic to come: post-swap requests must see the new
            // generation, nothing gets dropped.
            handle.swap_index(build_index(&fx, &set_b));
        }
        let v = client.suggest(&entity, None).expect("response arrives");
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
        let epoch = v.get("epoch").and_then(|e| e.as_u64()).expect("epoch");
        let got: Vec<String> = v
            .get("suggestions")
            .and_then(|s| s.as_array())
            .expect("suggestions array")
            .iter()
            .map(|s| s.get("text").and_then(|t| t.as_str()).unwrap().to_string())
            .collect();
        let expected = match epoch {
            1 => &expect_a,
            2 => &expect_b,
            other => panic!("unexpected epoch {other}"),
        };
        assert_eq!(&got, expected, "request {i} (epoch {epoch})");
        seen_epochs.push(epoch);
    }
    // Zero dropped: all TOTAL requests answered. Both generations actually
    // served, and the epoch sequence is monotone (no flap back to the old
    // index).
    assert_eq!(seen_epochs.len(), TOTAL);
    assert!(seen_epochs.contains(&1) && seen_epochs.contains(&2));
    assert!(seen_epochs.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        handle
            .stats()
            .swaps
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    handle.shutdown();

    // Same swap, concurrent clients: every in-flight request completes
    // with an answer valid for *some* generation.
    let index_a = build_index(&fx, &set_a);
    let universe = Arc::new(fx.universe.clone());
    let mut handle = serve(ServeConfig::default(), universe, index_a, None).expect("server starts");
    let addr = handle.addr();
    let answered: Vec<(u64, Vec<String>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let entity = entity.clone();
                s.spawn(move || {
                    let mut client = SuggestClient::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    for _ in 0..100 {
                        let v = client.suggest(&entity, None).expect("response");
                        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
                        let epoch = v.get("epoch").and_then(|e| e.as_u64()).unwrap();
                        let texts: Vec<String> = v
                            .get("suggestions")
                            .and_then(|x| x.as_array())
                            .unwrap()
                            .iter()
                            .map(|x| x.get("text").and_then(|t| t.as_str()).unwrap().to_string())
                            .collect();
                        out.push((epoch, texts));
                    }
                    out
                })
            })
            .collect();
        // Swap while the clients hammer away.
        std::thread::sleep(std::time::Duration::from_millis(5));
        handle.swap_index(build_index(&fx, &set_b));
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(answered.len(), 200, "zero dropped responses");
    for (epoch, texts) in &answered {
        let expected = match epoch {
            1 => &expect_a,
            2 => &expect_b,
            other => panic!("unexpected epoch {other}"),
        };
        assert_eq!(texts, expected);
    }
    handle.shutdown();
}

/// The streaming PR's end-to-end guarantee: a `StreamMiner` consuming a
/// live feed seals windows mid-stream, each seal publishes a refreshed
/// index via hot swap, and a client hammering the connection throughout
/// gets an answer to *every* request — attributable to exactly one epoch
/// and equal to that epoch's index's own answers. The final epoch, mined
/// entirely by the stream, must actually carry the planted transfer
/// pattern and flag the partial player.
#[test]
fn stream_sealed_windows_drive_epoch_swaps_with_zero_drops() {
    let fx = soccer_world();

    // A chronological feed from the fixture store, plus a trailing quiet
    // event (the partial player's latest text re-saved — an empty diff)
    // far enough out that the watermark passes the pattern-bearing window
    // [10, 110) *mid-stream*, so at least one swap happens while events
    // are still arriving, not only at flush.
    let mut events: Vec<FeedEvent> = Vec::new();
    let mut entities: Vec<EntityId> = fx.store.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    for e in entities {
        for r in fx.store.peek(e).expect("fixture history").revisions() {
            events.push(FeedEvent {
                entity: e,
                time: r.time,
                text: r.text.clone(),
            });
        }
    }
    events.sort_by_key(|e| (e.time, e.entity.as_u32()));
    let quiet = {
        let last = events.last().expect("fixture has events").clone();
        FeedEvent {
            entity: last.entity,
            time: 200,
            text: last.text,
        }
    };
    events.push(quiet);

    const WIDTH: u64 = 100;
    let config = StreamConfig {
        width: WIDTH,
        timeline_start: fx.window.start,
        miner: fx.config(),
        policy: StreamPolicy {
            grace: 1,
            refresh_revisions: 2,
        },
    };

    // Serve from an empty index first: the stream has mined nothing yet.
    let empty = PatternSet::single_window(fx.player_ty, Window::new(0, 0), &[]);
    let index0 = PatternIndex::build(
        &fx.store,
        &fx.universe,
        &fx.config(),
        &empty,
        IndexLimits::default(),
    )
    .expect("empty set fits default limits");
    let universe = Arc::new(fx.universe.clone());
    let mut handle = serve(ServeConfig::default(), universe, index0, None).expect("server starts");
    let addr = handle.addr();
    let entity_name = fx.universe.entity_name(fx.partial_player).to_string();

    // Epoch → the publishing side's own answers for the partial player.
    let mut expected_by_epoch: HashMap<u64, Vec<String>> = HashMap::new();
    expected_by_epoch.insert(1, Vec::new());

    let stop = Arc::new(AtomicBool::new(false));
    let answered_so_far = Arc::new(AtomicUsize::new(0));
    let answered: Vec<(u64, Vec<String>)> = std::thread::scope(|s| {
        let hammer = {
            let stop = Arc::clone(&stop);
            let answered_so_far = Arc::clone(&answered_so_far);
            let entity = entity_name.clone();
            s.spawn(move || {
                let mut client = SuggestClient::connect(addr).expect("client connects");
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let v = client.suggest(&entity, None).expect("response arrives");
                    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
                    let epoch = v.get("epoch").and_then(|e| e.as_u64()).expect("epoch");
                    let texts: Vec<String> = v
                        .get("suggestions")
                        .and_then(|x| x.as_array())
                        .expect("suggestions array")
                        .iter()
                        .map(|x| x.get("text").and_then(|t| t.as_str()).unwrap().to_string())
                        .collect();
                    out.push((epoch, texts));
                    answered_so_far.fetch_add(1, Ordering::Relaxed);
                }
                out
            })
        };

        // Drive the stream on this thread; every seal publishes a fresh
        // index built from *all* sealed windows over the stream's own
        // store.
        let mut sm = StreamMiner::new(&fx.universe, fx.player_ty, config);
        let mut publish = |sm: &StreamMiner| {
            let wc = wc_result_from_sealed(
                sm.sealed(),
                fx.player_ty,
                WIDTH,
                fx.config().tau,
                sm.late_revisions(),
            );
            let set = PatternSet::from_wc_result(&wc);
            let index = PatternIndex::build(
                sm.store(),
                &fx.universe,
                &fx.config(),
                &set,
                IndexLimits::default(),
            )
            .expect("streamed set fits default limits");
            let expected: Vec<String> = index
                .suggest_by_name(&entity_name, None)
                .iter()
                .map(|s| s.text.clone())
                .collect();
            let epoch = handle.swap_index(index);
            expected_by_epoch.insert(epoch, expected);
        };

        let mut mid_stream_swaps = 0usize;
        for event in &events {
            if sm.ingest(event) > 0 {
                publish(&sm);
                mid_stream_swaps += 1;
            }
        }
        assert!(
            mid_stream_swaps >= 1,
            "the quiet event's watermark must seal (and publish) mid-stream"
        );
        if sm.flush() > 0 {
            publish(&sm);
        }
        assert_eq!(sm.late_revisions(), 0, "nothing arrived late in this feed");

        // The stream can outrun the client's first round-trip (release
        // builds mine this fixture in well under a connect + request):
        // keep serving until a few requests have landed so the zero-drop
        // claim below is exercised against real traffic.
        while answered_so_far.load(Ordering::Relaxed) < 3 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        hammer.join().expect("client thread")
    });

    // Zero dropped: every request the client issued got an ok response,
    // each attributable to a published epoch and matching that epoch's
    // own answers; epochs never flap backwards on one connection.
    assert!(!answered.is_empty(), "client got at least one answer");
    for (i, (epoch, texts)) in answered.iter().enumerate() {
        let expected = expected_by_epoch
            .get(epoch)
            .unwrap_or_else(|| panic!("request {i}: unpublished epoch {epoch}"));
        assert_eq!(texts, expected, "request {i} (epoch {epoch})");
    }
    assert!(
        answered.windows(2).all(|w| w[0].0 <= w[1].0),
        "epochs monotone"
    );

    // The stream actually mined: ≥ 2 swaps (mid-stream seal + flush), and
    // the final generation flags the partial player with a suggestion.
    let swaps = handle.stats().swaps.load(Ordering::Relaxed);
    assert!(
        swaps >= 2,
        "expected mid-stream and flush swaps, got {swaps}"
    );
    let last_epoch = *expected_by_epoch.keys().max().expect("published epochs");
    assert!(
        !expected_by_epoch[&last_epoch].is_empty(),
        "streamed mining must rediscover the transfer pattern and flag the partial player"
    );
    handle.shutdown();
}
