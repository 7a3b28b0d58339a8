//! Streaming smoke test: run the incremental streaming miner against the
//! re-mine-from-scratch baseline over one synthetic corpus and fail loudly
//! if anything is off.
//!
//! Usage: `stream_smoke [seeds] [refresh_revisions] [hot]` (defaults: 150,
//! 16, whole feed).
//! The sequence CI runs:
//!
//! 1. generate a soccer corpus and stream every revision chronologically
//!    through the [`wiclean_core::stream::StreamMiner`];
//! 2. replay the identical feed with a full window re-mine at every
//!    refresh point (the cell asserts sealed outputs identical — pattern,
//!    support and realization rows — before reporting);
//! 3. print the stream-counter table (`windows_sealed`,
//!    `delta_rows_joined`, memo hits, `full_remine_fallbacks`,
//!    `stream_lag_us`), the
//!    feed's page-text bytes next to the bytes the stream parsed, and
//!    both wall clocks;
//! 4. assert the invariants: windows sealed, patterns found, delta joins
//!    actually exercised, candidates served from the per-window memo,
//!    zero late arrivals on a chronological feed, no
//!    more bytes parsed than the feed carries, and the stream not slower
//!    than the from-scratch replay.
//!
//! Exits nonzero on any violation so CI can gate on it.

use std::process::ExitCode;
use wiclean_eval::streaming::{
    render_stream_cells, stream_vs_full_remine, stream_vs_full_remine_hot,
};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let seeds: usize = args.next().map_or(150, |a| a.parse().expect("seed count"));
    let refresh: u64 = args
        .next()
        .map_or(16, |a| a.parse().expect("refresh cadence"));
    // `hot` restricts the run to the dense planted transfer window, where
    // every refresh lands in mined data; default covers the whole feed.
    let hot = args.next().as_deref() == Some("hot");

    println!(
        "stream smoke: {seeds} seeds, refresh every {refresh} revisions{}\n",
        if hot { ", hot window only" } else { "" }
    );
    // The cell itself asserts streamed == batch on every sealed window.
    let cell = if hot {
        stream_vs_full_remine_hot(seeds, 0x57AEA7, refresh)
    } else {
        stream_vs_full_remine(seeds, 0x57AEA7, refresh)
    };
    println!("{}", render_stream_cells(std::slice::from_ref(&cell)));

    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failures += 1;
        }
    };
    check(cell.windows_sealed > 0, "no windows sealed");
    check(cell.patterns > 0, "no patterns mined");
    check(
        cell.delta_rows_joined > 0,
        "delta joins never fired — the stream degenerated to full mining",
    );
    check(
        cell.cache_hits > 0,
        "the per-window memo never served a candidate",
    );
    check(
        cell.late_revisions == 0,
        "a chronological feed must have no late arrivals",
    );
    check(cell.stream_lag_us > 0, "seal latency not accounted");
    // Each revision should be parsed about once: re-parsing base snapshots
    // of windows an entity never edited, or whole window histories at
    // every refresh, shows up as more bytes parsed than the feed carries.
    check(
        cell.bytes_parsed <= cell.feed_bytes,
        "the stream parsed more bytes than the feed's page text",
    );
    check(
        cell.speedup >= 1.0,
        "incremental stream slower than re-mining from scratch",
    );

    if failures > 0 {
        eprintln!("FAIL: stream smoke violated {failures} invariant(s)");
        return ExitCode::FAILURE;
    }
    println!("stream smoke OK");
    ExitCode::SUCCESS
}
