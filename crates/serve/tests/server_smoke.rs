//! End-to-end server behavior: liveness, hostile input, panic-proofing,
//! admin reload (including rejection paths), stats consistency, wire
//! shutdown, and pipelined bursts answered in one write each.

mod common;

use common::soccer_world;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use wiclean_serve::index::StoredSuggestion;
use wiclean_serve::protocol::{write_suggest_response, SuggestResponse, SuggestionOut};
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

/// A raw connection whose reads time out, so a response the server holds
/// back fails the test instead of hanging it.
fn raw_connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    (stream.try_clone().unwrap(), BufReader::new(stream))
}

fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("response arrives before the read timeout");
    assert!(line.ends_with('\n'), "whole response line: {line:?}");
    line.trim_end().to_owned()
}

/// A `suggest` response without its `latency_ns`, the one field that
/// differs between two answers to the same request.
fn without_latency(response: &str) -> &str {
    let at = response
        .rfind(",\"latency_ns\":")
        .unwrap_or_else(|| panic!("suggest response: {response:?}"));
    &response[..at]
}

#[test]
fn pipelined_burst_answers_in_order_with_fewer_writes() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    // A mix of entities with and without suggestions, signatures that keep
    // and drop them, and an unknown page.
    let mut names = fx.all_names();
    names.push("No Such Page".to_owned());
    let mut requests = Vec::new();
    for name in &names {
        let entity = serde_json::to_string(name).unwrap();
        requests.push(format!(r#"{{"op":"suggest","entity":{entity}}}"#));
        for edit in ["add", "remove"] {
            requests.push(format!(
                r#"{{"op":"suggest","entity":{entity},"sig":{{"edit":"{edit}","rel":"current_club"}}}}"#
            ));
        }
    }
    let requests: Vec<String> = requests.iter().cycle().take(64).cloned().collect();

    let mut client = SuggestClient::connect(handle.addr()).unwrap();
    let one_at_a_time: Vec<String> = requests
        .iter()
        .map(|r| client.send_line(r).unwrap())
        .collect();
    assert!(
        one_at_a_time
            .iter()
            .any(|r| !r.contains("\"suggestions\":[]")),
        "the mix has answers with suggestions"
    );

    let writes_before = handle.stats().writes.load(Ordering::Relaxed);
    let (mut writer, mut reader) = raw_connect(handle.addr());
    let burst: String = requests.iter().map(|r| format!("{r}\n")).collect();
    writer.write_all(burst.as_bytes()).unwrap();
    for (i, expected) in one_at_a_time.iter().enumerate() {
        let got = read_response(&mut reader);
        assert_eq!(
            without_latency(&got),
            without_latency(expected),
            "response {i} to {}",
            requests[i]
        );
    }
    let writes = handle.stats().writes.load(Ordering::Relaxed) - writes_before;
    assert!(
        writes < requests.len() as u64,
        "{writes} writes for {} pipelined responses",
        requests.len()
    );
    let stats = client.stats().unwrap();
    assert_eq!(
        stats["serve"]["requests"].as_u64(),
        Some(2 * requests.len() as u64 + 1)
    );
    assert!(stats["serve"]["writes"].as_u64().unwrap() < 2 * requests.len() as u64);
    handle.shutdown();
}

#[test]
fn complete_lines_before_a_partial_one_are_answered_at_once() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let (mut writer, mut reader) = raw_connect(handle.addr());
    let entity = fx.universe.entity_name(fx.partial_player);
    let last = format!("{{\"op\":\"suggest\",\"entity\":\"{entity}\"}}\n");
    let (head, tail) = last.split_at(12);
    writer
        .write_all(format!("{{\"op\":\"ping\"}}\n{last}{head}").as_bytes())
        .unwrap();
    // Both complete lines are answered while the third waits for its end.
    assert!(read_response(&mut reader).contains("pong"));
    let first = read_response(&mut reader);
    assert!(first.starts_with("{\"ok\":true,"), "{first}");
    writer.write_all(tail.as_bytes()).unwrap();
    let second = read_response(&mut reader);
    assert_eq!(without_latency(&second), without_latency(&first));
    handle.shutdown();
}

#[test]
fn pipelined_ping_and_shutdown_are_both_acknowledged() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig::default(),
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let (mut writer, mut reader) = raw_connect(handle.addr());
    writer
        .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n")
        .unwrap();
    assert!(read_response(&mut reader).contains("\"ack\":\"pong\""));
    assert!(read_response(&mut reader).contains("\"ack\":\"shutting down\""));
    handle.wait();
}

#[test]
fn a_panic_inside_a_burst_answers_only_its_own_request() {
    let fx = soccer_world();
    let index = build(&fx, 0.8, IndexLimits::default()).unwrap();
    let mut handle = serve(
        ServeConfig {
            enable_debug_ops: true,
            ..ServeConfig::default()
        },
        Arc::new(fx.universe.clone()),
        index,
        None,
    )
    .unwrap();
    let (mut writer, mut reader) = raw_connect(handle.addr());
    let entity = fx.universe.entity_name(fx.partial_player);
    let suggest = format!("{{\"op\":\"suggest\",\"entity\":\"{entity}\"}}\n");
    writer
        .write_all(format!("{suggest}{{\"op\":\"panic\"}}\n{suggest}").as_bytes())
        .unwrap();
    let before = read_response(&mut reader);
    let panicked = read_response(&mut reader);
    let after = read_response(&mut reader);
    assert!(panicked.starts_with("{\"ok\":false,"), "{panicked}");
    assert!(panicked.contains("panicked"), "{panicked}");
    assert_eq!(without_latency(&before), without_latency(&after));
    assert_eq!(handle.stats().panics_caught.load(Ordering::Relaxed), 1);
    handle.shutdown();
}

/// Texts that exercise every escape the serializer makes: quotes,
/// backslashes, each control character, and non-ASCII characters.
fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..6, any::<u32>()), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, x)| match kind {
                0 => '"',
                1 => '\\',
                2 => char::from(b"\x00\x08\t\n\x0c\r\x1b\x1f\x7f"[x as usize % 9]),
                3 => char::from(b' ' + (x % 95) as u8),
                4 => ['é', 'ß', '€', '漢', '😀', '\u{2028}'][x as usize % 6],
                _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

fn confidence_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        2 => (0u32..=1000).prop_map(|c| f64::from(c) / 1000.0),
        1 => any::<u64>().prop_map(f64::from_bits),
    ]
}

proptest! {
    /// The direct renderer writes exactly the bytes serializing the
    /// matching `SuggestResponse` gives.
    #[test]
    fn direct_render_equals_serde(
        epoch in any::<u64>(),
        latency_ns in any::<u64>(),
        found in prop::collection::vec(
            (text_strategy(), text_strategy(), confidence_strategy()),
            0..5,
        ),
    ) {
        let stored: Vec<StoredSuggestion> = found
            .iter()
            .enumerate()
            .map(|(i, (text, pattern, confidence))| StoredSuggestion {
                pattern_ix: i as u32,
                pattern_text: pattern.clone(),
                text: text.clone(),
                confidence: *confidence,
            })
            .collect();
        let refs: Vec<&StoredSuggestion> = stored.iter().collect();
        let mut out = b"prior bytes\n".to_vec();
        write_suggest_response(&mut out, epoch, &refs, latency_ns);
        let expected = serde_json::to_string(&SuggestResponse {
            ok: true,
            epoch,
            suggestions: found
                .into_iter()
                .map(|(text, pattern, confidence)| SuggestionOut { text, pattern, confidence })
                .collect(),
            latency_ns,
        })
        .unwrap();
        prop_assert_eq!(String::from_utf8(out).unwrap(), format!("prior bytes\n{expected}"));
    }
}
