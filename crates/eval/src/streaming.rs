//! Streaming figure (repo extension): incremental delta-join refreshes vs
//! re-mining the window from scratch at the same cadence.
//!
//! Both contenders consume the same chronological revision feed and
//! refresh a window's pattern state every `refresh_revisions` arrivals:
//!
//! * **stream** — the [`StreamMiner`]: each refresh delta-joins only the
//!   rows appended since the last one against the window's memoized
//!   realization tables;
//! * **re-mine** — the from-scratch alternative: each refresh runs a full
//!   [`WindowMiner::mine_window`] over the window's current event prefix
//!   (sharing one action-extraction cache across its mines, so it parses
//!   each entity's window once per history version, as the stream does).
//!
//! Every cell asserts the correctness anchor before it reports a number:
//! the streamed sealed windows must equal the batch answer pattern for
//! pattern, support for support, row for row.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wiclean_core::cache::MiningCaches;
use wiclean_core::config::StreamPolicy;
use wiclean_core::miner::{WindowMiner, WindowResult};
use wiclean_core::pattern::Pattern;
use wiclean_core::stream::{wc_result_from_sealed, StreamConfig, StreamMiner};
use wiclean_revstore::{ActionCache, FeedEvent, RevisionStore};
use wiclean_synth::{generate, scenarios, SynthConfig, SynthWorld};
use wiclean_types::{Window, DAY, WEEK};

/// Window width: the paper's two-week transfer granularity (tiles align
/// with [`crate::runtime::transfer_window`]).
pub const STREAM_WIDTH: u64 = 2 * WEEK;
/// Timeline origin: revisions before it are baseline data.
pub const STREAM_TIMELINE_START: u64 = 2 * WEEK;
/// Mining threshold — the band where the synthetic planted patterns live
/// (see [`crate::runtime::fig4a`] on why not the paper's 0.8).
pub const STREAM_TAU: f64 = 0.4;

/// One cell of the streaming figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamCell {
    /// Seed-set size.
    pub seeds: usize,
    /// Refresh cadence: revisions per window between refreshes.
    pub refresh_revisions: u64,
    /// Feed length (every revision of the synthetic world).
    pub events: usize,
    /// Page text the feed carries: the bytes of every event's revision.
    pub feed_bytes: u64,
    /// Snapshot bytes the stream's extractions fed through a parser.
    pub bytes_parsed: u64,
    /// Windows the stream sealed (== windows the baseline mined).
    pub windows_sealed: u64,
    /// Full-mine refresh points the baseline executed mid-stream.
    pub remine_refreshes: u64,
    /// Patterns in the assembled [`wiclean_core::windows::WcResult`].
    pub patterns: usize,
    /// Input rows the stream's delta joins consumed instead of full joins.
    pub delta_rows_joined: u64,
    /// Candidates the stream's per-window memos served without a join.
    pub cache_hits: usize,
    /// Refreshes that hit a retraction and fell back to a full re-mine.
    pub full_remine_fallbacks: u64,
    /// Revisions that arrived behind the watermark (0 on this feed).
    pub late_revisions: u64,
    /// Total seal latency the stream accumulated, µs.
    pub stream_lag_us: u64,
    /// Wall clock: ingest + refresh + seal, whole feed.
    pub stream_wall: Duration,
    /// Wall clock: same feed, full re-mine at every refresh point.
    pub remine_wall: Duration,
    /// `remine_wall / stream_wall`.
    pub speedup: f64,
}

/// Chronological feed over every revision in `store` (ties broken by
/// entity id, so the order is deterministic).
pub fn chronological_events(store: &RevisionStore) -> Vec<FeedEvent> {
    let mut entities: Vec<_> = store.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    let mut events = Vec::new();
    for e in entities {
        let Some(history) = store.peek(e) else {
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
    events.sort_by_key(|e| (e.time, e.entity.as_u32()));
    events
}

/// The streaming configuration every cell runs under.
pub fn stream_config(refresh_revisions: u64) -> StreamConfig {
    stream_config_at(refresh_revisions, STREAM_TIMELINE_START)
}

fn stream_config_at(refresh_revisions: u64, timeline_start: u64) -> StreamConfig {
    StreamConfig {
        width: STREAM_WIDTH,
        timeline_start,
        miner: crate::runtime::base_miner_config(STREAM_TAU),
        policy: StreamPolicy {
            grace: DAY,
            refresh_revisions,
        },
    }
}

/// Order-insensitive fingerprint of a mined window: every pattern with its
/// support and full realization table.
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

fn soccer_world(seeds: usize, rng: u64) -> SynthWorld {
    generate(
        scenarios::soccer(),
        SynthConfig {
            seed_count: seeds,
            rng_seed: rng,
            ..SynthConfig::default()
        },
    )
}

/// Runs one cell over the whole two-year feed with the default timeline.
pub fn stream_vs_full_remine(seeds: usize, rng: u64, refresh_revisions: u64) -> StreamCell {
    stream_vs_full_remine_cell(seeds, rng, refresh_revisions, STREAM_TIMELINE_START, None)
}

/// Runs one cell over the dense planted transfer window only: the timeline
/// starts at the window (everything earlier is baseline data) and the feed
/// is truncated just past its end — the "feed caught up to now" regime
/// where every refresh lands in a window whose tables have real volume.
pub fn stream_vs_full_remine_hot(seeds: usize, rng: u64, refresh_revisions: u64) -> StreamCell {
    let hot = crate::runtime::transfer_window();
    stream_vs_full_remine_cell(
        seeds,
        rng,
        refresh_revisions,
        hot.start,
        Some(hot.end + DAY),
    )
}

/// Runs one cell: stream the world's revisions chronologically through the
/// incremental miner, then replay the identical feed against the
/// re-mine-from-scratch baseline, assert their sealed outputs identical,
/// and report both wall clocks plus the stream counters. Events at or
/// after `horizon` (when given) are dropped from the feed before either
/// contender sees it.
pub fn stream_vs_full_remine_cell(
    seeds: usize,
    rng: u64,
    refresh_revisions: u64,
    timeline_start: u64,
    horizon: Option<u64>,
) -> StreamCell {
    let world = soccer_world(seeds, rng);
    let mut events = chronological_events(&world.store);
    if let Some(h) = horizon {
        events.retain(|e| e.time < h);
    }

    // Contender 1: the incremental stream.
    let t0 = Instant::now();
    let mut sm = StreamMiner::new(
        &world.universe,
        world.seed_type,
        stream_config_at(refresh_revisions, timeline_start),
    );
    for e in &events {
        sm.ingest(e);
    }
    sm.flush();
    let stream_wall = t0.elapsed();

    // Contender 2: identical arrival order and refresh cadence, but every
    // refresh mines the dirty window from scratch over the prefix so far.
    // It shares one action cache across mines, so it re-parses an entity's
    // window only after an arrival for it, as the stream does; the gap
    // measured is join/mining work, not re-parsing.
    let miner_config = crate::runtime::base_miner_config(STREAM_TAU);
    let caches = MiningCaches {
        actions: Some(Arc::new(ActionCache::new())),
        ..MiningCaches::none()
    };
    let t0 = Instant::now();
    let mut store = RevisionStore::new();
    let mut since: BTreeMap<u64, u64> = BTreeMap::new();
    let mut remine_refreshes = 0u64;
    for e in &events {
        store.record(e.entity, e.time, e.text.clone());
        if e.time < timeline_start {
            continue;
        }
        let start = timeline_start + ((e.time - timeline_start) / STREAM_WIDTH) * STREAM_WIDTH;
        let n = since.entry(start).or_insert(0);
        *n += 1;
        if *n >= refresh_revisions {
            *n = 0;
            let window = Window::new(start, start + STREAM_WIDTH);
            let miner =
                WindowMiner::new(&store, &world.universe, miner_config).with_caches(caches.clone());
            let _ = miner.mine_window(world.seed_type, &window);
            remine_refreshes += 1;
        }
    }
    // Seal: the final authoritative mine of every touched window.
    let baseline: Vec<WindowResult> = since
        .keys()
        .map(|&start| {
            let window = Window::new(start, start + STREAM_WIDTH);
            WindowMiner::new(&store, &world.universe, miner_config)
                .with_caches(caches.clone())
                .mine_window(world.seed_type, &window)
        })
        .collect();
    let remine_wall = t0.elapsed();

    // The correctness anchor, asserted per cell before any number leaves
    // this function: streamed == batch on every sealed window.
    assert_eq!(
        sm.sealed().len(),
        baseline.len(),
        "stream and baseline must seal the same windows"
    );
    for (s, b) in sm.sealed().iter().zip(&baseline) {
        assert_eq!(s.window, b.window, "window order must agree");
        assert_eq!(
            digest(s),
            digest(b),
            "window [{}, {}): streamed output != batch",
            s.window.start,
            s.window.end
        );
    }

    let patterns = wc_result_from_sealed(
        sm.sealed(),
        world.seed_type,
        STREAM_WIDTH,
        STREAM_TAU,
        sm.late_revisions(),
    )
    .discovered
    .len();
    let stats = sm.stats();
    StreamCell {
        seeds,
        refresh_revisions,
        events: events.len(),
        feed_bytes: events.iter().map(|e| e.text.len() as u64).sum(),
        bytes_parsed: stats.bytes_parsed,
        windows_sealed: stats.windows_sealed,
        remine_refreshes,
        patterns,
        delta_rows_joined: stats.delta_rows_joined,
        cache_hits: stats.cache_hits,
        full_remine_fallbacks: stats.full_remine_fallbacks,
        late_revisions: sm.late_revisions(),
        stream_lag_us: stats.stream_lag_us,
        stream_wall,
        remine_wall,
        speedup: remine_wall.as_secs_f64() / stream_wall.as_secs_f64().max(1e-9),
    }
}

/// Renders stream cells as a text table (the eval runtime surface for the
/// four stream counters).
pub fn render_stream_cells(rows: &[StreamCell]) -> String {
    let mut s = format!(
        "{:>7} {:>8} {:>8} {:>11} {:>11} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10} {:>9}\n",
        "seeds",
        "refresh",
        "events",
        "feed-bytes",
        "parsed",
        "sealed",
        "patterns",
        "delta-rows",
        "memo-hits",
        "fallbacks",
        "lag(ms)",
        "stream(s)",
        "remine(s)",
        "speedup"
    );
    for r in rows {
        s.push_str(&format!(
            "{:>7} {:>8} {:>8} {:>11} {:>11} {:>8} {:>9} {:>10} {:>10} {:>10} {:>9.1} {:>10.3} {:>10.3} {:>8.1}x\n",
            r.seeds,
            r.refresh_revisions,
            r.events,
            r.feed_bytes,
            r.bytes_parsed,
            r.windows_sealed,
            r.patterns,
            r.delta_rows_joined,
            r.cache_hits,
            r.full_remine_fallbacks,
            r.stream_lag_us as f64 / 1e3,
            r.stream_wall.as_secs_f64(),
            r.remine_wall.as_secs_f64(),
            r.speedup
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "mining run — run with --release")]
    fn stream_cell_is_equivalent_and_counts_work() {
        let cell = stream_vs_full_remine(60, 0x57BEA, 16);
        assert!(cell.windows_sealed > 0, "{cell:?}");
        assert_eq!(
            cell.late_revisions, 0,
            "chronological feed has no late arrivals"
        );
        assert!(cell.events > 0);
        assert!(
            0 < cell.bytes_parsed && cell.bytes_parsed <= cell.feed_bytes,
            "{cell:?}"
        );
        assert!(cell.stream_lag_us > 0, "seals take nonzero time: {cell:?}");
        let rendered = render_stream_cells(&[cell]);
        assert!(rendered.contains("delta-rows"));
        assert!(rendered.contains("memo-hits"));
        assert!(rendered.contains("fallbacks"));
        assert!(rendered.contains("feed-bytes"));
    }
}
