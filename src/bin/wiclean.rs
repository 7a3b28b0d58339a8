//! The `wiclean` command-line interface.
//!
//! ```text
//! wiclean generate --domain soccer --seeds 500 --rng 7 --out corpus.json
//! wiclean stats    --corpus corpus.json
//! wiclean ingest   --corpus corpus.json --store DIR [--shards N] [--sync MODE]
//! wiclean mine     --corpus corpus.json [--threads N] [--out report.json]
//! wiclean mine     --backend disk --store DIR [--out report.json]
//! wiclean detect   --corpus corpus.json [--top K]
//! wiclean detect   --backend disk --store DIR [--top K]
//! ```
//!
//! `generate` builds a synthetic corpus (see `wiclean-synth`); `ingest`
//! converts a corpus into a crash-safe, out-of-core sharded store
//! (delta-encoded, checksummed segment logs, see DESIGN.md §8); `mine`
//! runs the full window-and-pattern search (Algorithm 2) and prints a
//! JSON report; `detect` mines and then runs partial-update detection
//! (Algorithm 3) on the discovered patterns, printing the flagged
//! potential errors like the WiClean editor plug-in would.
//!
//! With `--backend disk`, `mine`/`detect`/`stream` read revisions from the
//! sharded store's segments instead of holding the corpus in memory,
//! materializing page snapshots through a byte-budgeted cache. Output is
//! byte-identical between the two backends; a shard's torn tail after a
//! crashed ingest surfaces per shard in the degraded-coverage section.
//!
//! `serve` is the online half (see `wiclean-serve`): it mines once, builds
//! the read-optimized suggestion index, and answers editor requests over
//! newline-delimited JSON on a TCP port until a wire `shutdown` — with the
//! admin `reload` op re-mining and hot-swapping a fresh index under live
//! traffic. `suggest` is the one-shot form of the same query for scripts
//! and smoke tests.
//!
//! Every command accepts only its own flags: an unknown flag (a typo, or
//! one a command does not take) is a usage error, never silently ignored.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use wiclean::core::config::WcConfig;
use wiclean::core::partial::detect_partial_updates;
use wiclean::core::report::WcReport;
use wiclean::core::windows::{find_windows_and_patterns, WcResult};
use wiclean::core::{ingest_sharded, open_sharded_corpus, MiningPool, ShardedCorpus};
use wiclean::eval::quality::default_wc_config;
use wiclean::revstore::{
    FaultPlan, FaultyStore, FetchSource, MemoryBudget, RealFs, ResilientFetcher, RetryPolicy,
    RevisionStore, ShardPolicy, ShardedStore, SyncPolicy, MAX_SHARDS,
};
use wiclean::serve::{IndexLimits, PatternIndex, PatternSet, ReloadFn, ServeConfig};
use wiclean::synth::{generate, scenarios, Corpus, CorpusHeader, SynthConfig};
use wiclean::types::{TypeId, Universe};

/// Exit code for a malformed invocation: an unknown flag for the command,
/// a flag without a value, or a stray argument.
const EXIT_USAGE: u8 = 2;

/// Distinct exit code for "the crawl circuit breaker opened": results were
/// still written, but coverage is untrustworthy.
const EXIT_BREAKER_TRIPPED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(allowed) = allowed_flags(command) else {
        eprintln!("error: unknown command `{command}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(command, &args[1..], allowed) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags).map(|()| ExitCode::SUCCESS),
        "stats" => cmd_stats(&flags).map(|()| ExitCode::SUCCESS),
        "ingest" => cmd_ingest(&flags).map(|()| ExitCode::SUCCESS),
        "mine" => cmd_mine(&flags),
        "detect" => cmd_detect(&flags),
        "serve" => cmd_serve(&flags).map(|()| ExitCode::SUCCESS),
        "stream" => cmd_stream(&flags).map(|()| ExitCode::SUCCESS),
        "suggest" => cmd_suggest(&flags).map(|()| ExitCode::SUCCESS),
        other => unreachable!("`{other}` has an allow-list but no handler"),
    };
    // A runtime error is one line: usage text would only bury its cause.
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
wiclean — mine Wikipedia-style revision histories for edit patterns

USAGE:
  wiclean generate --domain <soccer|cinema|politics|software> [--seeds N] [--rng S] --out FILE
  wiclean stats    --corpus FILE
  wiclean ingest   --corpus FILE --store DIR [--threads N] [CORPUS BACKEND FLAGS]
  wiclean mine     --corpus FILE [--threads N] [--out FILE] [FAULT FLAGS]
  wiclean mine     --backend disk --store DIR [--threads N] [--out FILE] [CORPUS BACKEND FLAGS]
  wiclean detect   --corpus FILE [--threads N] [--top K] [FAULT FLAGS]
  wiclean detect   --backend disk --store DIR [--threads N] [--top K] [CORPUS BACKEND FLAGS]
  wiclean serve    --corpus FILE [--addr HOST:PORT] [--max-conns N] [--threads N] [SERVE FLAGS]
  wiclean stream   --corpus FILE [--serve HOST:PORT] [--out FILE] [STREAM FLAGS]
  wiclean stream   --backend disk --store DIR [--serve HOST:PORT] [--out FILE] [STREAM FLAGS]
  wiclean suggest  --corpus FILE --entity NAME [--edit add|remove] [--rel NAME] [--threads N]

THREADS (`ingest`, `mine`, `detect`, `serve`, `suggest`):
  --threads N      width of the one work pool a run shares between windows
                   and each window's candidate and extraction batches,
                   1..=256 (default: the host's cores, at most 256); output
                   is byte-identical at any width

CORPUS BACKEND FLAGS (crash-safe, out-of-core sharded store; see DESIGN.md §8):
  --backend B      `memory` (default): revisions live in RAM, loaded from
                   --corpus; `disk`: revisions live in delta-encoded
                   sharded segment logs under --store, decoded on
                   each read. Output is byte-identical between backends
  --store DIR      the sharded store directory (`ingest` creates it;
                   `mine`/`detect`/`stream` open it, recovering any shard
                   with a torn tail and reporting the loss per shard as
                   degraded coverage)
  --sync MODE      segment fsync policy at ingest: `always`, `every:N`, or
                   `never` (default: every:256)
  --shards N       segment files to hash-partition entities across at
                   ingest, 1..=4096 (default: 8; an existing store's own
                   shard count always wins on open)
  --snapshot-every N
                   full-text checkpoint frame cadence per entity chain;
                   revisions in between are stored as line-splice deltas
                   (default: 16; 1 disables delta encoding)
  --memory-budget MB
                   segment pages, in MiB, a store's reads may fault in
                   before it hands them back to the kernel (default: 256,
                   at least 1); no decoded snapshot is cached

SERVE FLAGS (online suggestion server; see DESIGN.md §6):
  --addr HOST:PORT bind address (default: 127.0.0.1:9178; port 0 = OS pick)
  --max-conns N    concurrent connection cap (default: 64); one handler
                   thread per live connection, further accepts wait
  --max-patterns N reject pattern sets with more than N canonical patterns
  --max-entities N reject indexes involving more than N distinct entities
                   (both default to the full u32 id space; exceeding a
                   limit rejects the load, it never kills the server)
  --debug-ops on   enable the `panic` wire op (panic-proofing harness)

STREAM FLAGS (incremental streaming miner; see DESIGN.md §7):
  --grace S        watermark grace period in seconds: a window seals once
                   an event arrives more than S past its end (default 3600)
  --refresh-revisions N
                   incremental refresh cadence: delta-join a window's new
                   rows after every N arrivals for it (default 64)
  --shuffle-seed S replay the corpus revisions in a deterministic shuffled
                   arrival order instead of chronologically
  --tau T          frequency threshold every window is mined at, in (0, 1]
                   (default: the batch driver's first threshold, 0.8)
  --width S        stream window width in seconds (default: mining w_min)
  --serve HOST:PORT
                   also run the suggestion server; every sealed window
                   rebuilds the index and hot-swaps it under live traffic

FAULT FLAGS (crawl-robustness testing):
  --fault-rate R   inject transient fetch faults with probability R (0.0–1.0)
  --fault-seed S   seed for the deterministic fault stream
  --retries N      retries per page after the first attempt (0 disables;
                   default: the built-in retry/backoff policy)

Exit codes: 0 success, 1 error, 2 usage error (unknown flag for the
command, flag without a value), 3 crawl circuit breaker tripped (results
written, but coverage is untrustworthy).";

/// Flag groups shared by several commands (the groups of the usage text).
const STORE_FLAGS: &[&str] = &["store", "shards", "snapshot-every", "memory-budget"];
const MINING_FLAGS: &[&str] = &["threads"];
const FAULT_FLAGS: &[&str] = &["fault-rate", "fault-seed", "retries"];
const INDEX_FLAGS: &[&str] = &["max-patterns", "max-entities"];

/// The flag groups each command accepts; `None` for an unknown command.
fn allowed_flags(command: &str) -> Option<&'static [&'static [&'static str]]> {
    Some(match command {
        "generate" => &[&["domain", "seeds", "rng", "out"]],
        "stats" => &[&["corpus"]],
        "ingest" => &[&["corpus", "sync", "threads"], STORE_FLAGS],
        "mine" => &[
            &["corpus", "backend", "out"],
            STORE_FLAGS,
            MINING_FLAGS,
            FAULT_FLAGS,
        ],
        "detect" => &[
            &["corpus", "backend", "top"],
            STORE_FLAGS,
            MINING_FLAGS,
            FAULT_FLAGS,
        ],
        "serve" => &[
            &["corpus", "addr", "max-conns", "debug-ops"],
            MINING_FLAGS,
            INDEX_FLAGS,
        ],
        "stream" => &[
            &["corpus", "backend", "out", "serve", "max-conns"],
            &["grace", "refresh-revisions", "shuffle-seed", "tau", "width"],
            STORE_FLAGS,
            INDEX_FLAGS,
        ],
        "suggest" => &[
            &["corpus", "entity", "edit", "rel"],
            MINING_FLAGS,
            INDEX_FLAGS,
        ],
        _ => return None,
    })
}

/// Parses `--name value` pairs, refusing any flag `command` does not take.
fn parse_flags(
    command: &str,
    args: &[String],
    allowed: &[&[&str]],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{key}`"));
        };
        if !allowed.iter().any(|group| group.contains(&name)) {
            return Err(format!("`{command}` does not take flag --{name}"));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn num_flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag --{name}: cannot parse `{v}`")),
    }
}

fn load_corpus(flags: &HashMap<String, String>) -> Result<Corpus, String> {
    let path = flag(flags, "corpus")?;
    Corpus::load(path).map_err(|e| e.to_string())
}

/// The most worker threads `--threads` may ask for: the pool spawns one
/// OS thread per unit of width, so an unchecked value could exhaust the
/// process's threads before any work starts.
const MAX_THREADS: usize = 256;

/// The `--threads` width, refused unless in `1..=MAX_THREADS`; defaults to
/// the host's cores (capped at [`MAX_THREADS`]).
fn threads(flags: &HashMap<String, String>) -> Result<usize, String> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = num_flag(flags, "threads", default.min(MAX_THREADS))?;
    if !(1..=MAX_THREADS).contains(&threads) {
        return Err(format!(
            "flag --threads: `{threads}` is not in 1..={MAX_THREADS}"
        ));
    }
    Ok(threads)
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let domain = match flag(flags, "domain")? {
        "soccer" => scenarios::soccer(),
        "cinema" | "cinematography" => scenarios::cinema(),
        "politics" | "us_politicians" => scenarios::politics(),
        "software" | "software_repos" => scenarios::software(),
        other => return Err(format!("unknown domain `{other}`")),
    };
    let out = flag(flags, "out")?;
    let config = SynthConfig {
        seed_count: num_flag(flags, "seeds", 500)?,
        rng_seed: num_flag(flags, "rng", 0xC1EA11)?,
        ..SynthConfig::default()
    };
    eprintln!(
        "generating `{}` corpus: {} seeds (rng {})…",
        domain.name, config.seed_count, config.rng_seed
    );
    let world = generate(domain, config);
    eprintln!(
        "  {} pages, {} revisions, {} planted events, {} planted errors",
        world.store.page_count(),
        world.store.revision_count(),
        world.truth.events.len(),
        world.truth.errors.len()
    );
    Corpus::from_world(world)
        .save(out)
        .map_err(|e| e.to_string())?;
    eprintln!("wrote {out}");
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let corpus = load_corpus(flags)?;
    println!("seed type : {}", corpus.seed_type);
    println!(
        "entities  : {} ({} of the seed type)",
        corpus.universe.entities().len(),
        corpus.universe.count_entities_of(corpus.seed_type_id())
    );
    println!("types     : {}", corpus.universe.taxonomy().len());
    println!("relations : {}", corpus.universe.relation_count());
    println!("pages     : {}", corpus.store.page_count());
    println!("revisions : {}", corpus.store.revision_count());
    if let Some(truth) = &corpus.truth {
        println!(
            "ground truth: {} events, {} errors ({}% corrected in year 2), {} spurious",
            truth.events.len(),
            truth.errors.len(),
            (truth.correction_fraction() * 100.0).round(),
            truth.spurious.len()
        );
    }
    Ok(())
}

/// Parses a `--sync` value into a [`SyncPolicy`].
fn parse_sync(mode: &str) -> Result<SyncPolicy, String> {
    match mode {
        "always" => Ok(SyncPolicy::Always),
        "never" => Ok(SyncPolicy::Never),
        other => match other.strip_prefix("every:").map(str::parse) {
            Some(Ok(n)) if n > 0 => Ok(SyncPolicy::EveryN(n)),
            _ => Err(format!(
                "flag --sync: `{other}` is not `always`, `every:N` with N ≥ 1, or `never`"
            )),
        },
    }
}

/// Name of the universe/seed-type sidecar inside a sharded store
/// directory, written at ingest so `mine --backend disk` never needs the
/// original corpus blob.
const HEADER_FILE: &str = "universe.json";

/// Whether the corpus backend flags select the out-of-core disk store.
/// Flags only the other backend reads are refused, so `--store` without
/// `--backend disk` cannot silently mine `--corpus` instead.
fn disk_backend(flags: &HashMap<String, String>) -> Result<bool, String> {
    let (disk, backend, unused): (bool, &str, &[&str]) =
        match flags.get("backend").map(String::as_str) {
            None | Some("memory") => (false, "memory", STORE_FLAGS),
            Some("disk") => (
                true,
                "disk",
                &["corpus", "fault-rate", "fault-seed", "retries"],
            ),
            Some(other) => return Err(format!("flag --backend: `{other}` is not memory|disk")),
        };
    match unused.iter().find(|f| flags.contains_key(**f)) {
        Some(f) => Err(format!(
            "flag --{f} does not apply to the {backend} backend"
        )),
        None => Ok(disk),
    }
}

/// The store settings from the corpus-backend flags (`--shards`,
/// `--snapshot-every`, `--sync`, `--memory-budget` in MiB), each
/// range-checked so a bad value is refused, naming its flag, before any
/// corpus or store is opened.
fn store_settings(
    flags: &HashMap<String, String>,
) -> Result<(ShardPolicy, Arc<MemoryBudget>), String> {
    let mut policy = ShardPolicy {
        shards: num_flag(flags, "shards", ShardPolicy::default().shards)?,
        snapshot_every: num_flag(
            flags,
            "snapshot-every",
            ShardPolicy::default().snapshot_every,
        )?,
        ..ShardPolicy::default()
    };
    if !(1..=MAX_SHARDS).contains(&policy.shards) {
        return Err(format!(
            "flag --shards: `{}` is not in 1..={MAX_SHARDS}",
            policy.shards
        ));
    }
    if policy.snapshot_every == 0 {
        return Err("flag --snapshot-every: must be at least 1".to_owned());
    }
    if let Some(mode) = flags.get("sync") {
        policy.sync = parse_sync(mode)?;
    }
    let mib: u64 = num_flag(flags, "memory-budget", 256)?;
    let bytes = match mib.checked_mul(1 << 20) {
        Some(0) => return Err("flag --memory-budget: must be at least 1 MiB".to_owned()),
        Some(bytes) => bytes,
        None => return Err(format!("flag --memory-budget: `{mib}` MiB is too large")),
    };
    Ok((policy, Arc::new(MemoryBudget::new(bytes))))
}

/// Opens the sharded store named by `--store` together with its universe
/// sidecar, narrating what the per-shard recovery scan found.
fn open_disk_corpus(
    flags: &HashMap<String, String>,
) -> Result<(CorpusHeader, ShardedCorpus<RealFs>), String> {
    let (policy, budget) = store_settings(flags)?;
    let dir = flag(flags, "store")?;
    let header = CorpusHeader::load(Path::new(dir).join(HEADER_FILE))
        .map_err(|e| format!("sharded store {dir}: {e}"))?;
    let corpus = open_sharded_corpus(RealFs, Path::new(dir), policy, budget)
        .map_err(|e| format!("sharded store {dir}: {e}"))?;
    let r = &corpus.recovery;
    eprintln!(
        "  sharded store: {} shards, {} frame records recovered",
        r.shards, r.records_recovered
    );
    for l in &r.losses {
        eprintln!(
            "  recovery losses: shard {} dropped {} bytes ({:?} tail)",
            l.shard, l.bytes_dropped, l.outcome
        );
    }
    Ok((header, corpus))
}

/// `ingest`: converts a corpus into a crash-safe, out-of-core sharded
/// store — delta-encoded segment logs plus the universe sidecar — so
/// `mine --backend disk` can run without the corpus blob in memory.
fn cmd_ingest(flags: &HashMap<String, String>) -> Result<(), String> {
    let (policy, budget) = store_settings(flags)?;
    let dir = flag(flags, "store")?;
    let pool = MiningPool::new(threads(flags)?);
    let corpus = load_corpus(flags)?;
    let store = ShardedStore::create(RealFs, Path::new(dir), policy, budget)
        .map_err(|e| format!("sharded store {dir}: {e}"))?;
    eprintln!(
        "ingesting {} revisions into {dir} ({} shards, snapshot every {}, sync {:?})…",
        corpus.store.revision_count(),
        policy.shards,
        policy.snapshot_every,
        policy.sync
    );
    let n = ingest_sharded(&pool, &corpus.store, &store).map_err(|e| e.to_string())?;
    CorpusHeader::of(&corpus)
        .save(Path::new(dir).join(HEADER_FILE))
        .map_err(|e| e.to_string())?;
    let stats = store.corpus_stats();
    eprintln!(
        "wrote {n} revisions: {} bytes on disk ({:.1} bytes/revision), {} full + {} delta frames",
        stats.bytes_on_disk,
        stats.bytes_on_disk as f64 / (n.max(1)) as f64,
        stats.frames_full,
        stats.frames_delta
    );
    Ok(())
}

/// Builds the fault plan and retry policy from the CLI's fault flags.
fn fault_setup(flags: &HashMap<String, String>) -> Result<(FaultPlan, RetryPolicy), String> {
    let rate: f64 = num_flag(flags, "fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("flag --fault-rate: `{rate}` is not in 0.0–1.0"));
    }
    let seed: u64 = num_flag(flags, "fault-seed", 0xC1EA11F)?;
    let policy = match flags.get("retries") {
        None => RetryPolicy::default(),
        Some(v) => {
            let attempts = v
                .parse::<u32>()
                .ok()
                .and_then(|retries| retries.checked_add(1))
                .ok_or_else(|| format!("flag --retries: `{v}` is not in 0..={}", u32::MAX - 1))?;
            RetryPolicy::with_attempts(attempts)
        }
    };
    Ok((FaultPlan::transient_only(rate, seed), policy))
}

/// Prints the degraded-coverage section of a report to stderr.
fn print_degraded(report: &WcReport) {
    let d = &report.degraded;
    if d.is_empty() {
        eprintln!("  coverage: full (no fetch losses)");
        return;
    }
    eprintln!(
        "  degraded coverage: {} entities lost ({} revisions), {} parse issues{}",
        d.entities_lost.len(),
        d.revisions_lost,
        d.parse_issues,
        if d.denominator_affected {
            "; frequency denominators affected"
        } else {
            ""
        }
    );
    for l in &d.shard_losses {
        eprintln!(
            "    ✗ shard {}: {} bytes dropped ({:?} tail)",
            l.shard, l.bytes_dropped, l.outcome
        );
    }
    for l in d.entities_lost.iter().take(10) {
        eprintln!("    ✗ {} — {}", l.entity, l.reason);
    }
    if d.entities_lost.len() > 10 {
        eprintln!("    … and {} more", d.entities_lost.len() - 10);
    }
    for (w, msg) in &d.failed_windows {
        eprintln!("    ✗ window {w}: {msg}");
    }
}

fn cmd_mine(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    if disk_backend(flags)? {
        return cmd_mine_disk(flags);
    }
    let wc = default_wc_config(threads(flags)?);
    let (plan, policy) = fault_setup(flags)?;
    let corpus = load_corpus(flags)?;
    eprintln!("mining `{}` (Algorithm 2)…", corpus.seed_type);
    let faulty = FaultyStore::new(&corpus.store, plan);
    let fetcher = ResilientFetcher::new(&faulty, policy);
    if !plan.is_clean() {
        eprintln!(
            "  fault injection on: transient rate {:.0}%, {} attempts per page",
            plan.transient_rate * 100.0,
            policy.max_attempts
        );
    }
    let result = find_windows_and_patterns(&fetcher, &corpus.universe, corpus.seed_type_id(), &wc);
    eprintln!(
        "  {} iterations → {} patterns (final width {}d, tau {:.3})",
        result.iterations,
        result.discovered.len(),
        result.final_width / 86_400,
        result.final_tau
    );
    eprintln!(
        "  extraction: {:.1}% of revision bytes skipped by the incremental parser",
        result.stats.extract_skip_rate() * 100.0
    );
    let report = WcReport::from_result(&result, &corpus.universe);
    print_degraded(&report);
    let json = report.to_json();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if fetcher.breaker_tripped() {
        eprintln!("warning: crawl circuit breaker tripped — coverage is untrustworthy");
        return Ok(ExitCode::from(EXIT_BREAKER_TRIPPED));
    }
    Ok(ExitCode::SUCCESS)
}

/// `mine --backend disk`: the same Algorithm 2 search, reading revisions
/// from the sharded segment logs instead of an in-memory corpus. Output is
/// byte-identical to the memory backend.
fn cmd_mine_disk(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let wc = default_wc_config(threads(flags)?);
    let (header, corpus) = open_disk_corpus(flags)?;
    eprintln!("mining `{}` (Algorithm 2, out-of-core)…", header.seed_type);
    let mut result =
        find_windows_and_patterns(&corpus.store, &header.universe, header.seed_type_id(), &wc);
    corpus.stamp(&mut result.degraded);
    corpus.stamp_stats(&mut result.stats);
    eprintln!(
        "  {} iterations → {} patterns (final width {}d, tau {:.3})",
        result.iterations,
        result.discovered.len(),
        result.final_width / 86_400,
        result.final_tau
    );
    let s = &result.stats;
    eprintln!(
        "  corpus: {} bytes on disk, {} delta frames replayed",
        s.bytes_on_disk, s.delta_chain_replays
    );
    let report = WcReport::from_result(&result, &header.universe);
    print_degraded(&report);
    let json = report.to_json();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_detect(flags: &HashMap<String, String>) -> Result<ExitCode, String> {
    let top: usize = num_flag(flags, "top", 5)?;
    let wc = default_wc_config(threads(flags)?);
    if disk_backend(flags)? {
        let (header, corpus) = open_disk_corpus(flags)?;
        eprintln!("mining `{}` (out-of-core)…", header.seed_type);
        let seed = header.seed_type_id();
        let mut result = find_windows_and_patterns(&corpus.store, &header.universe, seed, &wc);
        corpus.stamp(&mut result.degraded);
        print_partials(&corpus.store, &header.universe, seed, &wc, &result, top);
        corpus.stamp_stats(&mut result.stats);
        print_degraded(&WcReport::from_result(&result, &header.universe));
        return Ok(ExitCode::SUCCESS);
    }
    let (plan, policy) = fault_setup(flags)?;
    let corpus = load_corpus(flags)?;
    eprintln!("mining `{}`…", corpus.seed_type);
    let faulty = FaultyStore::new(&corpus.store, plan);
    let fetcher = ResilientFetcher::new(&faulty, policy);
    let seed = corpus.seed_type_id();
    let result = find_windows_and_patterns(&fetcher, &corpus.universe, seed, &wc);
    print_partials(&fetcher, &corpus.universe, seed, &wc, &result, top);
    print_degraded(&WcReport::from_result(&result, &corpus.universe));
    if fetcher.breaker_tripped() {
        eprintln!("warning: crawl circuit breaker tripped — coverage is untrustworthy");
        return Ok(ExitCode::from(EXIT_BREAKER_TRIPPED));
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs Algorithm 3 on the `top` most frequent discovered patterns and
/// prints the flagged potential errors.
fn print_partials(
    source: &dyn FetchSource,
    universe: &Universe,
    seed: TypeId,
    wc: &WcConfig,
    result: &WcResult,
    top: usize,
) {
    eprintln!(
        "  {} patterns discovered; running Algorithm 3 on the top {}…\n",
        result.discovered.len(),
        top.min(result.discovered.len())
    );
    for d in result.by_frequency().into_iter().take(top) {
        let report =
            detect_partial_updates(source, universe, &wc.miner, &d.working, seed, &d.window, 2);
        println!(
            "pattern (freq {:.2}, window {}):\n  {}",
            d.frequency,
            d.window,
            d.pattern.display(universe)
        );
        println!(
            "  {} complete, {} potential errors",
            report.complete_count,
            report.partials.len()
        );
        for p in report.partials.iter().take(5) {
            println!("    ⚠ {}", p.display(universe));
        }
        if report.partials.len() > 5 {
            println!("    … and {} more", report.partials.len() - 5);
        }
        println!();
    }
}

/// Index-capacity limits from the serve flags.
fn index_limits(flags: &HashMap<String, String>) -> Result<IndexLimits, String> {
    Ok(IndexLimits {
        max_patterns: num_flag(flags, "max-patterns", u32::MAX)?,
        max_entities: num_flag(flags, "max-entities", u32::MAX)?,
    })
}

/// Mines the corpus and builds the serving index from every discovered
/// pattern (shared by `serve`, its reload path, and `suggest`).
fn mine_and_index(
    corpus: &Corpus,
    wc: &WcConfig,
    limits: IndexLimits,
) -> Result<PatternIndex, String> {
    let result =
        find_windows_and_patterns(&corpus.store, &corpus.universe, corpus.seed_type_id(), wc);
    let set = PatternSet::from_wc_result(&result);
    let index = PatternIndex::build(&corpus.store, &corpus.universe, &wc.miner, &set, limits)
        .map_err(|e| e.to_string())?;
    let s = index.stats();
    eprintln!(
        "  index: {} patterns → {} suggestions over {} entities ({:.0} ms build, {} complete realizations seen)",
        s.patterns, s.suggestions, s.entities, s.build_ms, s.complete_realizations
    );
    Ok(index)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let wc = default_wc_config(threads(flags)?);
    let corpus = load_corpus(flags)?;
    let limits = index_limits(flags)?;
    let config = ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:9178".to_string()),
        max_connections: num_flag(flags, "max-conns", 64)?,
        enable_debug_ops: matches!(flags.get("debug-ops").map(String::as_str), Some("on")),
    };
    eprintln!("mining `{}` for the serving pattern set…", corpus.seed_type);
    let index = mine_and_index(&corpus, &wc, limits)?;
    let universe = std::sync::Arc::new(corpus.universe.clone());
    // The admin `reload` op re-mines: the original corpus, or (with a
    // `spec`) a newer corpus file sharing the same vocabulary — relation
    // names in requests still resolve against the serving universe.
    let reload: ReloadFn = Box::new(move |spec| match spec {
        None => mine_and_index(&corpus, &wc, limits),
        Some(path) => {
            let fresh = Corpus::load(path).map_err(|e| e.to_string())?;
            mine_and_index(&fresh, &wc, limits)
        }
    });
    let mut handle = wiclean::serve::serve(config, universe, index, Some(reload))
        .map_err(|e| format!("cannot bind: {e}"))?;
    println!("listening on {}", handle.addr());
    let example = r#"{"op":"suggest","entity":"Player 4"}"#;
    eprintln!("  one request per line, e.g.: {example}");
    handle.wait();
    eprintln!("server stopped");
    Ok(())
}

/// The corpus a `stream` run replays: from the corpus blob (memory
/// backend), or reassembled from a sharded store directory plus its
/// universe sidecar (`--backend disk`). A stream replay holds every
/// revision in its feed regardless of backend, so materializing the
/// histories here costs no more than the feed itself; the disk backend's
/// value for `stream` is starting from segment files an `ingest` (or a
/// crashed one — losses are narrated) left behind.
fn load_stream_corpus(flags: &HashMap<String, String>) -> Result<Corpus, String> {
    if !disk_backend(flags)? {
        return load_corpus(flags);
    }
    let (header, sharded) = open_disk_corpus(flags)?;
    let mut store = RevisionStore::new();
    for entity in sharded.store.entities() {
        let Some(history) = sharded
            .store
            .materialize(entity)
            .map_err(|e| e.to_string())?
        else {
            continue;
        };
        store.record_batch(
            entity,
            history
                .into_revisions()
                .into_iter()
                .map(|r| (r.time, r.text)),
        );
    }
    Ok(Corpus {
        version: header.version,
        universe: header.universe,
        store,
        seed_type: header.seed_type,
        truth: None,
        domain: None,
        synth_config: None,
    })
}

fn cmd_stream(flags: &HashMap<String, String>) -> Result<(), String> {
    use wiclean::core::stream::{wc_result_from_sealed, StreamMiner};
    use wiclean::revstore::{FeedEvent, RevisionFeed, VecFeed};

    // The streaming miner runs each refresh inline; it has no pool to size.
    let mut wc = default_wc_config(1);
    wc.tau0 = num_flag(flags, "tau", wc.tau0)?;
    if !(wc.tau0 > 0.0 && wc.tau0 <= 1.0) {
        return Err(format!("flag --tau: `{}` is not in (0, 1]", wc.tau0));
    }
    wc.w_min = num_flag(flags, "width", wc.w_min)?;
    if wc.w_min == 0 {
        return Err("flag --width: must be at least 1 second".to_owned());
    }
    wc.stream.grace = num_flag(flags, "grace", wc.stream.grace)?;
    wc.stream.refresh_revisions =
        num_flag(flags, "refresh-revisions", wc.stream.refresh_revisions)?;
    wc.stream.validate()?;
    let corpus = load_stream_corpus(flags)?;

    // Replay the corpus as a live feed: chronological by default, or a
    // deterministic out-of-order arrival with --shuffle-seed.
    let mut events = Vec::new();
    let mut entities: Vec<_> = corpus.store.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    for e in entities {
        let Some(history) = corpus.store.peek(e) else {
            continue;
        };
        for r in history.revisions() {
            events.push(FeedEvent {
                entity: e,
                time: r.time,
                text: r.text.clone(),
            });
        }
    }
    events.sort_by_key(|e| e.time);
    let total_events = events.len();
    let mut feed = match flags.get("shuffle-seed") {
        Some(v) => {
            let seed: u64 = v
                .parse()
                .map_err(|_| format!("flag --shuffle-seed: cannot parse `{v}`"))?;
            VecFeed::shuffled(events, seed)
        }
        None => VecFeed::new(events),
    };

    // With --serve, start answering suggestion queries immediately (empty
    // index, epoch 1) and hot-swap a refreshed index after every seal.
    let universe = std::sync::Arc::new(corpus.universe.clone());
    let limits = index_limits(flags)?;
    let mut handle = match flags.get("serve") {
        None => None,
        Some(addr) => {
            let empty = PatternSet::single_window(
                corpus.seed_type_id(),
                wiclean::types::Window::new(0, 0),
                &[],
            );
            let index = PatternIndex::build(&corpus.store, &universe, &wc.miner, &empty, limits)
                .map_err(|e| e.to_string())?;
            let config = ServeConfig {
                addr: addr.clone(),
                max_connections: num_flag(flags, "max-conns", 64)?,
                enable_debug_ops: false,
            };
            let h = wiclean::serve::serve(config, universe.clone(), index, None)
                .map_err(|e| format!("cannot bind: {e}"))?;
            println!("listening on {} (epoch 1: empty index)", h.addr());
            Some(h)
        }
    };

    eprintln!(
        "streaming {} revisions of `{}` (width {}d, tau {}, grace {}s, refresh every {})…",
        total_events,
        corpus.seed_type,
        wc.w_min / 86_400,
        wc.tau0,
        wc.stream.grace,
        wc.stream.refresh_revisions
    );
    let mut sm = StreamMiner::from_wc(&corpus.universe, corpus.seed_type_id(), &wc);
    // Narrates every window sealed since the last call and, when serving,
    // rebuilds the suggestion index over all sealed windows and hot-swaps
    // it under live traffic.
    let mut published = 0usize;
    let publish = |sm: &StreamMiner,
                   handle: &Option<wiclean::serve::ServeHandle>,
                   published: &mut usize|
     -> Result<(), String> {
        for r in &sm.sealed()[*published..] {
            eprintln!(
                "  sealed {} → {} patterns ({} most specific)",
                r.window,
                r.patterns.len(),
                r.most_specific().count()
            );
        }
        *published = sm.sealed().len();
        let Some(h) = handle else { return Ok(()) };
        let result = wc_result_from_sealed(
            sm.sealed(),
            corpus.seed_type_id(),
            wc.w_min,
            wc.tau0,
            sm.late_revisions(),
        );
        let set = PatternSet::from_wc_result(&result);
        let index = PatternIndex::build(sm.store(), &universe, &wc.miner, &set, limits)
            .map_err(|e| e.to_string())?;
        let epoch = h.swap_index(index);
        eprintln!(
            "  hot-swapped suggestion index: epoch {epoch} ({} patterns)",
            set.patterns.len()
        );
        Ok(())
    };
    while let Some(event) = feed.next_event() {
        if sm.ingest(&event) > 0 {
            publish(&sm, &handle, &mut published)?;
        }
    }
    if sm.flush() > 0 {
        publish(&sm, &handle, &mut published)?;
    }

    let stats = sm.stats().clone();
    eprintln!(
        "  stream: {} windows sealed, {} delta rows joined, {} full re-mine fallbacks, {} late revisions, {:.1} ms seal lag",
        stats.windows_sealed,
        stats.delta_rows_joined,
        stats.full_remine_fallbacks,
        sm.late_revisions(),
        stats.stream_lag_us as f64 / 1000.0
    );
    let result = sm.into_result();
    let report = WcReport::from_result(&result, &corpus.universe);
    print_degraded(&report);
    let json = report.to_json();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => {
            if handle.is_none() {
                println!("{json}");
            }
        }
    }
    if let Some(h) = handle.as_mut() {
        eprintln!("  feed drained; serving final epoch until wire `shutdown`");
        h.wait();
        eprintln!("server stopped");
    }
    Ok(())
}

fn cmd_suggest(flags: &HashMap<String, String>) -> Result<(), String> {
    let wc = default_wc_config(threads(flags)?);
    let corpus = load_corpus(flags)?;
    let entity = flag(flags, "entity")?.to_string();
    let sig = match (flags.get("edit"), flags.get("rel")) {
        (None, None) => None,
        (Some(edit), Some(rel)) => {
            let op = match edit.as_str() {
                "add" | "+" => wiclean::wikitext::EditOp::Add,
                "remove" | "-" => wiclean::wikitext::EditOp::Remove,
                other => return Err(format!("flag --edit: `{other}` is not add|remove")),
            };
            let rel = corpus
                .universe
                .lookup_relation(rel)
                .ok_or_else(|| format!("flag --rel: unknown relation `{rel}`"))?;
            Some(wiclean::serve::ActionSig { op, rel })
        }
        _ => return Err("flags --edit and --rel must be given together".to_string()),
    };
    eprintln!("mining `{}`…", corpus.seed_type);
    let index = mine_and_index(&corpus, &wc, index_limits(flags)?)?;
    let suggestions = index.suggest_by_name(&entity, sig);
    if suggestions.is_empty() {
        println!("no suggestions for `{entity}`");
        return Ok(());
    }
    for s in suggestions {
        println!("⚠ {}", s.text);
        println!("  pattern: {}", s.pattern_text);
    }
    Ok(())
}
