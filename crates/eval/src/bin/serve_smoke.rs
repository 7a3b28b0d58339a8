//! Serving smoke test: mine a synthetic corpus, serve it, hammer the
//! server, hot-swap under traffic — and fail loudly if anything drops.
//!
//! Usage: `serve_smoke [seeds] [requests]` (defaults: 40 seeds, 2000
//! requests). The sequence CI runs:
//!
//! 1. generate a soccer corpus and mine it (Algorithm 2);
//! 2. build the suggestion index from every discovered pattern and start
//!    the server with a re-mining reload hook;
//! 3. fire `requests` suggest requests across two connections — every
//!    response must be `ok`;
//! 4. issue an admin `reload` mid-run: the epoch must advance, traffic
//!    after it must be answered by the new generation;
//! 5. send hostile lines over the admin connection: a line nested
//!    100,000 containers deep must get a `bad json` error, and a name
//!    sent with its first character as a `\u` escape, or next to an
//!    unknown member holding a nested object, must get the plain
//!    request's answer;
//! 6. send `requests` more suggest requests pipelined over one connection,
//!    in bursts of [`BURST`] lines per write: every response must be `ok`
//!    and on the new epoch, and the server must have answered them in
//!    fewer writes than responses;
//! 7. assert the final stats: exactly one error (the nested line), zero
//!    caught panics, exactly one swap, every request accounted for, and
//!    fewer writes than responses.
//!
//! Exits nonzero on any violation so CI can gate on it.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use wiclean_core::windows::find_windows_and_patterns;
use wiclean_eval::quality::default_wc_config;
use wiclean_serve::{
    serve, IndexLimits, PatternIndex, PatternSet, ReloadFn, ServeConfig, SuggestClient,
};
use wiclean_synth::{generate, scenarios, SynthConfig};

/// Requests per pipelined burst.
const BURST: usize = 64;

/// Sends `count` suggest requests over one connection, [`BURST`] lines per
/// write, and checks that every response is `ok` and answered by `epoch`.
/// Returns (failures, responses read).
fn pipelined(addr: SocketAddr, names: &[String], count: usize, epoch: u64) -> (usize, usize) {
    let stream = TcpStream::connect(addr).expect("connect pipelined");
    stream.set_nodelay(true).ok();
    // A response the server holds back fails the run instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let (mut failures, mut answered) = (0usize, 0usize);
    for first in (0..count).step_by(BURST) {
        let burst = first..count.min(first + BURST);
        let lines: String = burst
            .clone()
            .map(|i| {
                let entity = serde_json::to_string(&names[i % names.len()]).expect("name");
                format!("{{\"op\":\"suggest\",\"entity\":{entity}}}\n")
            })
            .collect();
        if let Err(e) = writer.write_all(lines.as_bytes()) {
            eprintln!("FAIL(pipelined): burst at request {first} not sent: {e}");
            return (failures + count - answered, answered);
        }
        for i in burst {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    answered += 1;
                    let v: Value = serde_json::from_str(&line).unwrap_or(Value::Null);
                    let ok = v.get("ok").and_then(|b| b.as_bool()) == Some(true);
                    if !ok || v.get("epoch").and_then(|e| e.as_u64()) != Some(epoch) {
                        eprintln!("FAIL(pipelined): request {i} → {}", line.trim_end());
                        failures += 1;
                    }
                }
                other => {
                    eprintln!("FAIL(pipelined): request {i} dropped: {other:?}");
                    return (failures + count - answered, answered);
                }
            }
        }
    }
    (failures, answered)
}

/// The response line without its `latency_ns`, the one field that differs
/// between two answers to the same request.
fn without_latency(response: &str) -> &str {
    response
        .rfind(",\"latency_ns\":")
        .map_or(response, |at| &response[..at])
}

/// The hostile phase, on one connection: a 100,000-deep line must get a
/// `bad json` error, and `name` spelled with a `\u` escape, or sent next
/// to an unknown member holding a nested object, must get the plain
/// spelling's answer. Returns the failures.
fn hostile(client: &mut SuggestClient, name: &str) -> usize {
    let mut failures = 0;
    let deep = format!("{{\"op\":\"ping\",\"x\":{}", "[".repeat(100_000));
    match client.send(&deep) {
        Ok(v)
            if v.get("ok").and_then(|b| b.as_bool()) == Some(false)
                && v.get("error")
                    .and_then(|e| e.as_str())
                    .is_some_and(|e| e.starts_with("bad json")) => {}
        other => {
            eprintln!("FAIL(hostile): 100,000-deep line → {other:?}");
            failures += 1;
        }
    }
    let quoted = serde_json::to_string(name).expect("name");
    let first = name.chars().next().expect("a non-empty name");
    let escaped: String = first
        .encode_utf16(&mut [0; 2])
        .iter()
        .map(|unit| format!("\\u{unit:04x}"))
        .collect();
    let plain = format!("{{\"op\":\"suggest\",\"entity\":{quoted}}}");
    let variants = [
        format!(
            "{{\"op\":\"suggest\",\"entity\":\"{escaped}{}}}",
            &quoted[1 + first.len_utf8()..]
        ),
        format!("{{\"op\":\"suggest\",\"x\":{{\"y\":[1,{{\"z\":null}}]}},\"entity\":{quoted}}}"),
    ];
    let expected = client.send_line(&plain).unwrap_or_default();
    if !expected.starts_with("{\"ok\":true,") || !expected.contains("\"text\":") {
        eprintln!("FAIL(hostile): {plain} → {expected}");
        failures += 1;
    }
    for line in &variants {
        match client.send_line(line) {
            Ok(got) if without_latency(&got) == without_latency(&expected) => {}
            other => {
                eprintln!("FAIL(hostile): {line} → {other:?}, plain → {expected}");
                failures += 1;
            }
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let seeds: usize = args.next().map_or(40, |a| a.parse().expect("seed count"));
    let requests: usize = args.next().map_or(2000, |a| a.parse().expect("requests"));

    println!("serve smoke: {seeds} seeds, {requests} requests\n");
    let world = Arc::new(generate(
        scenarios::soccer(),
        SynthConfig {
            seed_count: seeds,
            rng_seed: 20210401,
            ..SynthConfig::tiny(1)
        },
    ));
    let wc = default_wc_config(2);
    let result = find_windows_and_patterns(&world.store, &world.universe, world.seed_type, &wc);
    println!(
        "  mined {} patterns over {} iterations",
        result.discovered.len(),
        result.iterations
    );
    if result.discovered.is_empty() {
        eprintln!("FAIL: nothing mined — smoke test has nothing to serve");
        return ExitCode::FAILURE;
    }
    let set = PatternSet::from_wc_result(&result);
    let build = |tag: &str| -> Result<PatternIndex, String> {
        let index = PatternIndex::build(
            &world.store,
            &world.universe,
            &wc.miner,
            &set,
            IndexLimits::default(),
        )
        .map_err(|e| e.to_string())?;
        println!(
            "  index ({tag}): {} patterns → {} suggestions over {} entities",
            index.stats().patterns,
            index.stats().suggestions,
            index.stats().entities
        );
        Ok(index)
    };
    let index = build("initial").expect("initial build");
    // Names to hammer: every entity of the seed type.
    let names: Vec<String> = world
        .universe
        .entities_of(world.seed_type)
        .into_iter()
        .map(|e| world.universe.entity_name(e).to_string())
        .collect();
    // The hostile phase's name: one with suggestions, so that an answer
    // that ignored the name would show.
    let Some(suggested) = names
        .iter()
        .find(|n| !index.suggest_by_name(n, None).is_empty())
        .cloned()
    else {
        eprintln!("FAIL: no entity has a suggestion");
        return ExitCode::FAILURE;
    };

    let universe = Arc::new(world.universe.clone());
    let reload_world = Arc::clone(&world);
    let reload_wc = wc;
    let reload: ReloadFn = Box::new(move |_spec| {
        let result = find_windows_and_patterns(
            &reload_world.store,
            &reload_world.universe,
            reload_world.seed_type,
            &reload_wc,
        );
        let set = PatternSet::from_wc_result(&result);
        PatternIndex::build(
            &reload_world.store,
            &reload_world.universe,
            &reload_wc.miner,
            &set,
            IndexLimits::default(),
        )
        .map_err(|e| e.to_string())
    });

    let mut handle =
        serve(ServeConfig::default(), universe, index, Some(reload)).expect("server starts");
    let addr = handle.addr();

    let half = requests / 2;
    // (failures, answered, suggestions served) over one request burst.
    let run = |count: usize, phase: &str, min_epoch: u64| -> (usize, usize, usize) {
        let mut a = SuggestClient::connect(addr).expect("connect a");
        let mut b = SuggestClient::connect(addr).expect("connect b");
        let (mut failures, mut answered, mut served) = (0usize, 0usize, 0usize);
        for i in 0..count {
            let client = if i % 2 == 0 { &mut a } else { &mut b };
            let name = &names[i % names.len()];
            match client.suggest(name, None) {
                Ok(v) => {
                    answered += 1;
                    let ok = v.get("ok").and_then(|b| b.as_bool()) == Some(true);
                    let epoch = v.get("epoch").and_then(|e| e.as_u64()).unwrap_or(0);
                    if !ok || epoch < min_epoch {
                        eprintln!("FAIL({phase}): request {i} → {v:?}");
                        failures += 1;
                    }
                    served += v
                        .get("suggestions")
                        .and_then(|s| s.as_array())
                        .map_or(0, Vec::len);
                }
                Err(e) => {
                    eprintln!("FAIL({phase}): request {i} dropped: {e}");
                    failures += 1;
                }
            }
        }
        (failures, answered, served)
    };

    let (mut failures, mut answered, mut suggestions_seen) = run(half, "pre-swap", 1);
    // The hot swap: admin reload over the wire, mid-traffic.
    let mut admin = SuggestClient::connect(addr).expect("connect admin");
    let v = admin.reload(None).expect("reload answered");
    let swapped = v.get("ok").and_then(|b| b.as_bool()) == Some(true)
        && v.get("epoch").and_then(|e| e.as_u64()) == Some(2);
    if !swapped {
        eprintln!("FAIL: reload did not swap: {v:?}");
        failures += 1;
    } else {
        println!("  hot swap: epoch 1 → 2 via admin reload");
    }
    let (f2, a2, s2) = run(requests - half, "post-swap", 2);
    failures += f2;
    answered += a2;
    suggestions_seen += s2;

    let f = hostile(&mut admin, &suggested);
    failures += f;
    if f == 0 {
        println!(
            "  hostile: 100,000-deep line → bad json; escaped name and nested unknown \
             member answered like the plain request"
        );
    }

    let writes_before = handle.stats().writes.load(Ordering::Relaxed);
    let (f3, piped) = pipelined(addr, &names, requests, 2);
    failures += f3;
    let piped_writes = handle.stats().writes.load(Ordering::Relaxed) - writes_before;
    println!("  pipelined: {piped}/{requests} answered in {piped_writes} writes");
    if piped_writes >= piped as u64 {
        eprintln!("FAIL: {piped} pipelined responses took {piped_writes} writes");
        failures += 1;
    }

    let snapshot = handle.stats().snapshot(handle.epoch());
    println!(
        "\n  {answered}/{requests} answered one at a time, {suggestions_seen} suggestions \
         served, {} errors, {} panics, {} swaps, {} responses in {} writes, suggest p99 {:?} µs",
        snapshot.errors,
        snapshot.panics_caught,
        snapshot.swaps,
        snapshot.requests,
        snapshot.writes,
        snapshot.suggest_p99_us
    );
    handle.shutdown();

    if failures > 0
        || answered != requests
        || piped != requests
        || snapshot.errors != 1
        || snapshot.panics_caught != 0
        || snapshot.swaps != 1
        || snapshot.writes >= snapshot.requests
    {
        eprintln!("FAIL: serve smoke violated its invariants");
        return ExitCode::FAILURE;
    }
    println!("serve smoke OK");
    ExitCode::SUCCESS
}
