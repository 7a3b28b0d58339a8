//! `serve-pipelined`: pipelined `suggest` traffic against the suggestion
//! server, with in-process index swaps.
//!
//! Set-up loads a soccer corpus, mines it (Algorithm 2's discovering
//! iteration and one refinement step, at the streaming miner's threshold),
//! runs Algorithm 3 on every mined pattern, builds two indexes (every
//! discovered pattern, and the first half of them) and starts the server
//! on loopback with the first. A round sends a fixed mix
//! of `suggest` requests over one connection, in pipelined batches of
//! [`BATCH`] from one client thread (a closed loop of one client with
//! [`BATCH`] requests in flight), and swaps the other index in at the
//! round's midpoint. The mix has entities with and without suggestions,
//! requests with and without an action signature, and unknown names. The
//! timed phase does no mining, so only the serving path (parse, lookup,
//! render, write, epoch swap) moves it; pipelining keeps loopback wake-ups
//! from swamping the server's own work. The index the next round swaps in
//! is rebuilt between rounds, outside the round's timing.
//!
//! Checks: the full index holds one suggestion per Algorithm 3 flag; every
//! response is `ok`, names the epoch that was serving when its batch was
//! sent, and carries exactly the suggestions
//! `PatternIndex::suggest_by_name` gives on that epoch's index.

use crate::measure::{
    end_to_end, generate_corpus, median, quantile, repeat_setup, timed_rounds, Checks, Layers,
};
use crate::trace::Tracer;
use crate::{derive_seed, Outcome, Params};
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use wiclean_core::config::WcConfig;
use wiclean_core::partial::detect_partial_updates;
use wiclean_core::pattern::Pattern;
use wiclean_core::windows::{find_windows_and_patterns, WcResult};
use wiclean_eval::quality::default_wc_config;
use wiclean_eval::streaming::{stream_config, STREAM_TAU};
use wiclean_revstore::{mix64, EditOp};
use wiclean_serve::protocol::SuggestionOut;
use wiclean_serve::{
    serve, ActionSig, IndexLimits, PatternIndex, PatternSet, ServeConfig, ServeHandle,
};
use wiclean_synth::{scenarios, Corpus};
use wiclean_types::RelId;

/// Requests in flight per pipelined batch.
const BATCH: usize = 64;
/// Distinct requests in the mix.
const MIX: usize = 4096;

/// One request of the mix with its expected answer on each index.
struct Request {
    /// The request line, newline-terminated.
    pub line: String,
    /// The response text between the epoch and the latency, on each index:
    /// `,"suggestions":[…],"latency_ns":`.
    pub expected: [String; 2],
}

/// The response text that must follow the epoch for `found`.
fn expected_tail(found: Vec<SuggestionOut>) -> String {
    format!(
        ",\"suggestions\":{},\"latency_ns\":",
        serde_json::to_string(&found).expect("suggestions serialize")
    )
}

/// Checks one response line: `ok`, answered by `epoch`, with the expected
/// suggestions. Returns the server-reported lookup latency (ns) when the
/// line checks out.
fn check_response(line: &str, epoch: &str, expected_tail: &str) -> Option<u64> {
    line.strip_prefix("{\"ok\":true,\"epoch\":")?
        .strip_prefix(epoch)?
        .strip_prefix(expected_tail)?
        .strip_suffix('}')?
        .parse()
        .ok()
}

/// The suggestions `index` gives for `name`/`sig`, as the wire shows them.
fn answer(index: &PatternIndex, name: &str, sig: Option<ActionSig>) -> Vec<SuggestionOut> {
    index
        .suggest_by_name(name, sig)
        .iter()
        .map(|s| SuggestionOut {
            text: s.text.clone(),
            pattern: s.pattern_text.clone(),
            confidence: s.confidence,
        })
        .collect()
}

/// The request mix, drawn from the run seed: about half the requests name
/// an entity with suggestions on the full index, a third an entity without
/// any, the rest an unknown page; half carry an action signature. A signed
/// request to an entity with suggestions takes, three times in four, the
/// signature of an action of one of the patterns suggested to it, so that
/// it exercises the signature filter with a match; every other signature
/// names a relation drawn from the whole universe.
fn request_mix(
    seed: u64,
    corpus: &Corpus,
    full: &PatternSet,
    indexes: &[PatternIndex; 2],
) -> Vec<Request> {
    let universe = &corpus.universe;
    let (with, without): (Vec<&str>, Vec<&str>) = universe
        .entities()
        .iter()
        .map(|e| universe.entity_name(e))
        .partition(|name| !indexes[0].suggest_by_name(name, None).is_empty());
    let relations = universe.relation_count() as u64;
    (0..MIX as u64)
        .map(|i| {
            let r = mix64(derive_seed(seed, 0x5E7E) ^ i);
            let (name, suggested) = match r % 20 {
                0..=9 if !with.is_empty() => (with[(r >> 8) as usize % with.len()].to_owned(), true),
                0..=16 => (without[(r >> 8) as usize % without.len()].to_owned(), false),
                _ => (format!("Unknown Page {}", r >> 40), false),
            };
            let sig = ((r >> 5) & 1 == 1).then(|| {
                let own: Vec<ActionSig> = if suggested && (r >> 7) & 3 != 0 {
                    indexes[0]
                        .suggest_by_name(&name, None)
                        .iter()
                        .flat_map(|s| full.patterns[s.pattern_ix as usize].working.actions())
                        .map(|a| ActionSig { op: a.op, rel: a.rel })
                        .collect()
                } else {
                    Vec::new()
                };
                match own.len() {
                    0 => ActionSig {
                        op: if (r >> 6) & 1 == 1 {
                            EditOp::Add
                        } else {
                            EditOp::Remove
                        },
                        rel: RelId::from_u32(((r >> 16) % relations) as u32),
                    },
                    n => own[(r >> 16) as usize % n],
                }
            });
            let entity = serde_json::to_string(&name).expect("name serializes");
            let line = match sig {
                None => format!("{{\"op\":\"suggest\",\"entity\":{entity}}}\n"),
                Some(s) => format!(
                    "{{\"op\":\"suggest\",\"entity\":{entity},\"sig\":{{\"edit\":\"{}\",\"rel\":{}}}}}\n",
                    if s.op == EditOp::Add { "add" } else { "remove" },
                    serde_json::to_string(universe.relation_name(s.rel)).expect("relation serializes"),
                ),
            };
            Request {
                line,
                expected: [0, 1].map(|v| expected_tail(answer(&indexes[v], &name, sig))),
            }
        })
        .collect()
}

/// The two pattern sets served: every discovered pattern, and the first
/// half of them.
fn pattern_sets(result: &WcResult) -> [PatternSet; 2] {
    let full = PatternSet::from_wc_result(result);
    let mut half = full.clone();
    half.patterns.truncate(full.patterns.len().div_ceil(2));
    [full, half]
}

/// The mining run behind the served patterns: Algorithm 2 from two-week
/// windows at the streaming miner's calibrated threshold, on one thread,
/// held to two iterations. The second is a refinement step: it widens the
/// windows and composes their actions from the first iteration's cache.
/// (The refinement loop run to its end is `paper-quality`'s job; here it
/// would only lengthen set-up.)
fn wc_config() -> WcConfig {
    let stream = stream_config(1);
    WcConfig {
        w_min: stream.width,
        tau0: STREAM_TAU,
        miner: stream.miner,
        max_iterations: 2,
        ..default_wc_config(1)
    }
}

fn build(corpus: &Corpus, set: &PatternSet, tracer: &Tracer) -> PatternIndex {
    tracer.span("serve.index.build", || {
        PatternIndex::build(
            &corpus.store,
            &corpus.universe,
            &wc_config().miner,
            set,
            IndexLimits::default(),
        )
        .expect("index build")
    })
}

/// Everything set-up leaves running.
struct Served {
    corpus: Corpus,
    result: WcResult,
    sets: [PatternSet; 2],
    requests: Vec<Request>,
    /// Partial realizations Algorithm 3 flags on the full pattern set.
    flags: usize,
    /// Suggestions in the full index.
    suggestions: usize,
    server: ServeHandle,
    /// The index the next swap publishes (variant 1 first).
    next: Option<PatternIndex>,
    conn: TcpStream,
}

fn set_up(path: &Path, seed: u64, tracer: &Tracer) -> Served {
    let corpus = tracer.span("revstore.load", || Corpus::load(path).expect("load corpus"));
    let result = tracer.span("core.windows", || {
        find_windows_and_patterns(
            &corpus.store,
            &corpus.universe,
            corpus.seed_type_id(),
            &wc_config(),
        )
    });
    let flags = result
        .discovered
        .iter()
        .map(|d| {
            tracer
                .span("core.partial", || {
                    let config = wc_config().miner;
                    let seed = corpus.seed_type_id();
                    detect_partial_updates(
                        &corpus.store,
                        &corpus.universe,
                        &config,
                        &d.working,
                        seed,
                        &d.window,
                        0,
                    )
                })
                .partials
                .len()
        })
        .sum();
    let sets = pattern_sets(&result);
    let indexes = [
        build(&corpus, &sets[0], tracer),
        build(&corpus, &sets[1], tracer),
    ];
    let requests = request_mix(seed, &corpus, &sets[0], &indexes);
    let suggestions = indexes[0].stats().suggestions;
    let [first, second] = indexes;
    let server = serve(
        ServeConfig::default(),
        Arc::new(corpus.universe.clone()),
        first,
        None,
    )
    .expect("start server");
    let conn = TcpStream::connect(server.addr()).expect("connect to server");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    Served {
        corpus,
        result,
        sets,
        requests,
        flags,
        suggestions,
        server,
        next: Some(second),
        conn,
    }
}

/// Runs the workload.
pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    let seeds = if params.small { 120 } else { 1000 };
    let path = params.work_dir.join("soccer.json");
    generate_corpus(
        "serve-pipelined",
        scenarios::soccer(),
        seeds,
        derive_seed(params.seed, 0x5E4E),
        &path,
    );
    let (served, setup_s) = repeat_setup(|| set_up(&path, params.seed, tracer));
    let Served {
        corpus,
        result,
        sets,
        requests,
        flags,
        suggestions,
        mut server,
        next,
        conn,
    } = served;
    let empty = expected_tail(Vec::new());
    let answered = |v: usize| requests.iter().filter(|r| r.expected[v] != empty).count();
    eprintln!(
        "serve-pipelined: {} patterns served, {suggestions} suggestions; of {MIX} requests \
         {} return suggestions on the full index, {} on the half index",
        sets[0].patterns.len(),
        answered(0),
        answered(1)
    );
    let mut checks = Checks::default();
    checks.check(suggestions == flags, || {
        format!("full index holds {suggestions} suggestions, Algorithm 3 flags {flags}")
    });

    let expert: Vec<Pattern> = corpus
        .domain
        .as_ref()
        .expect("synthetic corpus carries its domain")
        .expert_list(&corpus.universe)
        .into_iter()
        .map(|(_, p, _)| p)
        .collect();
    let found = expert
        .iter()
        .filter(|p| result.discovered.iter().any(|d| &d.pattern == *p))
        .count();
    let recall = found as f64 / expert.len() as f64;

    let per_round = if params.small { 2 * 1024 } else { 32 * 1024 };
    let batches: Vec<(usize, String)> = (0..per_round / BATCH)
        .map(|b| {
            let first = (b * BATCH) % MIX;
            let lines: String = requests[first..first + BATCH]
                .iter()
                .map(|r| r.line.as_str())
                .collect();
            (first, lines)
        })
        .collect();
    let mut reader = BufReader::with_capacity(1 << 16, conn.try_clone().expect("clone stream"));
    let mut writer = conn.try_clone().expect("clone stream");
    // The index the next swap publishes, and which variant serves under
    // which epoch.
    let next = RefCell::new(next);
    let serving = RefCell::new((0usize, server.epoch().to_string()));
    let mut lookup_ns: Vec<f64> = Vec::new();
    let mut rounds: Vec<Layers> = Vec::new();
    let round_s = timed_rounds(
        tracer,
        params.seconds,
        || {
            let mut responses = String::with_capacity(per_round * 256);
            let mut epochs = Vec::with_capacity(batches.len());
            for (b, (_, lines)) in batches.iter().enumerate() {
                if b == batches.len() / 2 {
                    let index = next.borrow_mut().take().expect("an index to swap in");
                    let epoch = tracer.span("serve.swap", || server.swap_index(index));
                    let mut serving = serving.borrow_mut();
                    *serving = (1 - serving.0, epoch.to_string());
                }
                epochs.push(serving.borrow().clone());
                tracer.span("serve.batch", || {
                    writer.write_all(lines.as_bytes()).expect("send batch");
                    for _ in 0..BATCH {
                        reader.read_line(&mut responses).expect("read response");
                    }
                });
            }
            (epochs, responses)
        },
        |(epochs, responses)| {
            // One round's latencies at a time: a run-long sample would grow
            // with the round count and show in `peak_rss_mb`.
            lookup_ns.clear();
            let mut lines = responses.lines();
            for ((first, _), (variant, epoch)) in batches.iter().zip(&epochs) {
                for r in &requests[*first..*first + BATCH] {
                    let line = lines.next().unwrap_or("");
                    let latency = check_response(line, epoch, &r.expected[*variant]);
                    checks.check(latency.is_some(), || {
                        format!(
                            "response {line:?} to {:?} on epoch {epoch}",
                            r.line.trim_end()
                        )
                    });
                    lookup_ns.extend(latency.map(|ns| ns as f64));
                }
            }
            let swapped_out = 1 - serving.borrow().0;
            *next.borrow_mut() = Some(build(&corpus, &sets[swapped_out], tracer));
            let mut l = Layers::default();
            l.set("serve.lookup_p50_us", median(&lookup_ns) / 1e3);
            rounds.push(l);
        },
    );
    drop(writer);
    drop(reader);
    drop(conn);
    server.shutdown();

    if tracer.enabled() {
        let rtt_us: Vec<f64> = tracer
            .durations_s("serve.batch")
            .iter()
            .map(|d| d * 1e6)
            .collect();
        let swap_us: Vec<f64> = tracer
            .durations_s("serve.swap")
            .iter()
            .map(|d| d * 1e6)
            .collect();
        let partial_s =
            tracer.durations_s("core.partial").iter().sum::<f64>() / setup_s.len() as f64;
        for l in &mut rounds {
            l.set_mine_stats(&result.stats);
            l.set(
                "revstore.load_s",
                median(&tracer.durations_s("revstore.load")),
            );
            l.set(
                "core.windows.s",
                median(&tracer.durations_s("core.windows")),
            );
            l.set("core.windows.iterations", result.iterations as f64);
            l.set(
                "serve.index.build_s",
                median(&tracer.durations_s("serve.index.build")),
            );
            l.set("serve.index.suggestions", suggestions as f64);
            l.set("core.partial.s", partial_s);
            l.set("core.partial.flags", flags as f64);
            l.set("serve.rtt_p50_us", median(&rtt_us));
            l.set("serve.rtt_p99_us", quantile(&rtt_us, 0.99));
            l.set("serve.swap_us", median(&swap_us));
        }
    }
    Outcome {
        end_to_end: end_to_end(&setup_s, &round_s, recall),
        per_layer: Layers::median_of(&rounds),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suggestion(text: &str) -> SuggestionOut {
        SuggestionOut {
            text: text.to_owned(),
            pattern: "+plays_for(SoccerPlayer, SoccerClub)".to_owned(),
            confidence: 0.75,
        }
    }

    #[test]
    fn a_changed_suggestion_fails_its_check() {
        let tail = expected_tail(vec![suggestion("add [[Club A]]")]);
        let good = format!("{{\"ok\":true,\"epoch\":7{tail}1234}}");
        assert_eq!(check_response(&good, "7", &tail), Some(1234));
        let changed = good.replace("Club A", "Club B");
        assert_eq!(check_response(&changed, "7", &tail), None);
        let mut checks = Checks::default();
        for line in [&good, &changed] {
            checks.check(check_response(line, "7", &tail).is_some(), String::new);
        }
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }

    #[test]
    fn wrong_epoch_or_error_fails_its_check() {
        let tail = expected_tail(Vec::new());
        let good = format!("{{\"ok\":true,\"epoch\":7{tail}5}}");
        assert_eq!(check_response(&good, "7", &tail), Some(5));
        assert_eq!(check_response(&good, "8", &tail), None);
        assert_eq!(check_response(&good, "", &tail), None);
        let error = "{\"ok\":false,\"epoch\":7,\"error\":\"bad json\"}";
        assert_eq!(check_response(error, "7", &tail), None);
    }
}
