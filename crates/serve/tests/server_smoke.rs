//! End-to-end server behavior: liveness, hostile input, panic-proofing,
//! admin reload (including rejection paths), stats consistency, and wire
//! shutdown.

mod common;

use common::soccer_world;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use wiclean_serve::{
    serve, IndexLimits, PatternIndex, PatternSet, ReloadFn, ServeConfig, SuggestClient,
    MAX_REQUEST_BYTES,
};

fn build(fx: &common::Fixture, conf: f64, limits: IndexLimits) -> Result<PatternIndex, String> {
    let set = PatternSet::single_window(fx.player_ty, fx.window, &[(fx.pair_working(), conf)]);
    PatternIndex::build(&fx.store, &fx.universe, &fx.config(), &set, limits)
        .map_err(|e| e.to_string())
}

#[test]
fn serves_suggestions_and_survives_hostile_input() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let mut client = SuggestClient::connect(handle.addr()).unwrap();

    // Liveness.
    let pong = client.send(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(pong.get("ack").and_then(|a| a.as_str()), Some("pong"));

    // A real suggestion, with and without a narrowing signature.
    let entity = fx.universe.entity_name(fx.partial_player);
    let v = client.suggest(entity, None).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    let n = v
        .get("suggestions")
        .and_then(|s| s.as_array())
        .unwrap()
        .len();
    assert!(n > 0, "partial player has a suggestion");
    let v = client
        .suggest(entity, Some(("add", "current_club")))
        .unwrap();
    assert_eq!(
        v.get("suggestions")
            .and_then(|s| s.as_array())
            .unwrap()
            .len(),
        n,
        "matching signature keeps the suggestions"
    );
    // A signature the pattern set has no action for filters everything.
    let v = client
        .suggest(entity, Some(("remove", "current_club")))
        .unwrap();
    assert_eq!(
        v.get("suggestions")
            .and_then(|s| s.as_array())
            .unwrap()
            .len(),
        0
    );
    // An unknown entity is an empty answer, not an error.
    let v = client.suggest("No Such Page", None).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(
        v.get("suggestions")
            .and_then(|s| s.as_array())
            .unwrap()
            .len(),
        0
    );

    // Hostile input: garbage bytes, wrong shapes, unknown relations — each
    // gets an error response on the same live connection.
    for bad in [
        "garbage",
        r#"{"op":42}"#,
        r#"{"op":"suggest"}"#,
        r#"{"op":"nope"}"#,
        r#"{"op":"suggest","entity":"E","sig":{"edit":"add","rel":"no_such_rel"}}"#,
    ] {
        let v = client.send(bad).unwrap();
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false), "{bad}");
        assert!(v.get("error").and_then(|e| e.as_str()).is_some());
    }
    // ...and the connection still serves afterwards.
    let v = client.suggest(entity, None).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));

    let errors = handle.stats().errors.load(Ordering::Relaxed);
    assert_eq!(errors, 5, "each hostile line counted once");
    handle.shutdown();
}

#[test]
fn panics_become_error_responses_not_dead_workers() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig {
            enable_debug_ops: true,
            max_connections: 1, // the sole handler thread must survive
            ..ServeConfig::default()
        },
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let mut client = SuggestClient::connect(handle.addr()).unwrap();
    let v = client.send(r#"{"op":"panic"}"#).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    assert!(v
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap()
        .contains("panicked"));
    // The same connection's handler thread keeps serving.
    let v = client
        .suggest(fx.universe.entity_name(fx.partial_player), None)
        .unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(handle.stats().panics_caught.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

#[test]
fn debug_ops_rejected_unless_enabled() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let mut client = SuggestClient::connect(handle.addr()).unwrap();
    let v = client.send(r#"{"op":"panic"}"#).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    assert_eq!(handle.stats().panics_caught.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

#[test]
fn reload_swaps_and_rejections_keep_previous_index() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    // The reload closure: spec "v2" → a rebuilt index with new confidence;
    // spec "too-big" → an index build that exceeds a 1-entity interner
    // limit, i.e. the InternerFull path surfaced through reload; anything
    // else → a loader error.
    let fx2 = soccer_world();
    let reload: ReloadFn = Box::new(move |spec| match spec {
        Some("v2") => build(&fx2, 0.5, IndexLimits::default()),
        Some("too-big") => build(
            &fx2,
            0.5,
            IndexLimits {
                max_entities: 1,
                ..IndexLimits::default()
            },
        ),
        other => Err(format!("unknown spec {other:?}")),
    });
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        Some(reload),
    )
    .unwrap();
    let mut client = SuggestClient::connect(handle.addr()).unwrap();
    let entity = fx.universe.entity_name(fx.partial_player);

    let before = client.suggest(entity, None).unwrap();
    assert_eq!(before.get("epoch").and_then(|e| e.as_u64()), Some(1));

    // A good reload hot-swaps: epoch bumps, answers change.
    let v = client.reload(Some("v2")).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(2));
    let after = client.suggest(entity, None).unwrap();
    assert_eq!(after.get("epoch").and_then(|e| e.as_u64()), Some(2));
    assert_ne!(
        before.get("suggestions"),
        after.get("suggestions"),
        "new generation answers differently"
    );

    // An oversized pattern set is *rejected*: the error names the interner
    // capacity and epoch 2 keeps serving.
    let v = client.reload(Some("too-big")).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    assert!(v
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap()
        .contains("interner full"));
    // A loader failure is also a rejection.
    let v = client.reload(None).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    let still = client.suggest(entity, None).unwrap();
    assert_eq!(still.get("epoch").and_then(|e| e.as_u64()), Some(2));
    assert_eq!(still.get("suggestions"), after.get("suggestions"));

    assert_eq!(handle.stats().swaps.load(Ordering::Relaxed), 1);
    assert_eq!(handle.stats().reloads_rejected.load(Ordering::Relaxed), 2);
    handle.shutdown();
}

#[test]
fn reload_without_loader_is_rejected() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let mut client = SuggestClient::connect(handle.addr()).unwrap();
    let v = client.reload(None).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
    assert!(v
        .get("error")
        .and_then(|e| e.as_str())
        .unwrap()
        .contains("not configured"));
    handle.shutdown();
}

#[test]
fn stats_report_counters_and_latency_percentiles() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let mut client = SuggestClient::connect(handle.addr()).unwrap();
    let entity = fx.universe.entity_name(fx.partial_player);
    for _ in 0..10 {
        client.suggest(entity, None).unwrap();
    }
    client.send("not json").unwrap();
    let v = client.stats().unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    let serve_stats = v.get("serve").expect("serve section");
    assert_eq!(
        serve_stats.get("suggest_requests").and_then(|x| x.as_u64()),
        Some(10)
    );
    assert_eq!(serve_stats.get("errors").and_then(|x| x.as_u64()), Some(1));
    assert!(
        serve_stats
            .get("suggest_p99_us")
            .and_then(|x| x.as_f64())
            .is_some(),
        "latency histogram populated"
    );
    let index_stats = v.get("index").expect("index section");
    assert_eq!(
        index_stats.get("patterns").and_then(|x| x.as_u64()),
        Some(1)
    );
    assert!(
        index_stats
            .get("suggestions")
            .and_then(|x| x.as_u64())
            .unwrap()
            > 0
    );
    handle.shutdown();
}

#[test]
fn wire_shutdown_stops_the_server() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let mut client = SuggestClient::connect(handle.addr()).unwrap();
    let v = client.shutdown().unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    // The server winds down on its own; wait() must return.
    handle.wait();
}

#[test]
fn oversized_pattern_set_is_a_typed_build_error() {
    let fx = soccer_world();
    let err = build(
        &fx,
        0.8,
        IndexLimits {
            max_entities: 1,
            ..IndexLimits::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("interner full"), "{err}");
    let err = build(
        &fx,
        0.8,
        IndexLimits {
            max_patterns: 0,
            ..IndexLimits::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("interner full"), "{err}");
}

#[test]
fn split_and_oversized_requests_keep_the_connection_usable() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Sends `request` in two writes split at byte `at`, pausing longer
    // than the server's read timeout in between, and reads the response.
    let mut send_split = |request: &[u8], at: usize| -> serde_json::Value {
        writer.write_all(&request[..at]).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(250));
        writer.write_all(&request[at..]).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    let entity = fx.universe.entity_name(fx.partial_player);
    let request = format!("{{\"op\":\"suggest\",\"entity\":\"{entity}\"}}\n");
    let v = send_split(request.as_bytes(), 10);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
    assert!(!v["suggestions"].as_array().unwrap().is_empty());

    // A split inside a two-byte character: both halves must be kept.
    let request = "{\"op\":\"suggest\",\"entity\":\"Zoë Müller\"}\n";
    let at = request.find('ë').unwrap() + 1;
    assert!(!request.is_char_boundary(at));
    let v = send_split(request.as_bytes(), at);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");

    // An over-long line is answered with an error, its tail is skipped,
    // and the connection keeps serving.
    let mut long = vec![b'x'; MAX_REQUEST_BYTES + 10];
    long.push(b'\n');
    let v = send_split(&long, MAX_REQUEST_BYTES / 2);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false), "{v:?}");
    assert!(v["error"].as_str().unwrap().contains("exceeds"), "{v:?}");
    let v = send_split(b"{\"op\":\"ping\"}\n", 3);
    assert_eq!(v.get("ack").and_then(|a| a.as_str()), Some("pong"));
    // A line of exactly the cap is still a request (a malformed one).
    let mut max = vec![b' '; MAX_REQUEST_BYTES - 1];
    max.insert(0, b'x');
    max.push(b'\n');
    let v = send_split(&max, 1);
    assert!(!v["error"].as_str().unwrap().contains("exceeds"), "{v:?}");

    assert_eq!(handle.stats().errors.load(Ordering::Relaxed), 2);
    handle.shutdown();
}
