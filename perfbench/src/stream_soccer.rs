//! `stream-soccer`: a soccer corpus replayed chronologically into the
//! streaming miner until every window seals.
//!
//! The miner runs at τ = 0.4, the calibrated threshold `eval::streaming`
//! uses, and refreshes a dirty window every 16 arrivals, a cadence at which
//! delta joins fire. It runs the same miner and join code as
//! `paper-quality`, but incrementally, through delta joins and seal-time
//! re-mines, so a batch-mining gain that costs streaming shows here.
//!
//! The CLI's `wiclean stream` mines at τ0 = 0.8 with no flag to change it,
//! and at that threshold a soccer corpus seals windows with no patterns and
//! no delta work; this workload therefore drives `StreamMiner` directly.
//!
//! Checks: every sealed window equals `WindowMiner::mine_window` on the
//! same window over the whole corpus (stream = batch), the chronological
//! feed has no late revisions, and delta joins fire.

use crate::measure::{
    end_to_end, generate_corpus, median, repeat_setup, timed_rounds, Checks, Layers,
};
use crate::trace::Tracer;
use crate::{derive_seed, Outcome, Params};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use wiclean_core::pattern::Pattern;
use wiclean_core::stream::{wc_result_from_sealed, StreamMiner};
use wiclean_core::{WindowMiner, WindowResult};
use wiclean_eval::streaming::{chronological_events, stream_config, STREAM_TAU, STREAM_WIDTH};
use wiclean_synth::{scenarios, Corpus};
use wiclean_types::Window;

/// Arrivals per window between refreshes.
const REFRESH_REVISIONS: u64 = 16;

/// Order-insensitive fingerprint of a mined window: every pattern with its
/// support, frequency, specificity and full realization table.
type Digest = Vec<(Pattern, usize, u64, bool, String)>;

/// The fingerprint of `result`.
fn digest(result: &WindowResult) -> Digest {
    let mut v: Digest = result
        .patterns
        .iter()
        .map(|p| {
            (
                p.pattern.clone(),
                p.support,
                p.frequency.to_bits(),
                p.most_specific,
                format!("{:?}", p.table.sorted_rows()),
            )
        })
        .collect();
    v.sort();
    v
}

/// Checks every sealed window against the batch answer for its window
/// (`batch` computes it; answers are memoized in `expected`).
fn check_sealed(
    sealed: &[WindowResult],
    expected: &mut BTreeMap<Window, Digest>,
    mut batch: impl FnMut(&Window) -> WindowResult,
    checks: &mut Checks,
) {
    for s in sealed {
        let want = expected
            .entry(s.window)
            .or_insert_with(|| digest(&batch(&s.window)));
        checks.check(digest(s) == *want, || {
            format!("sealed window {} differs from the batch mine", s.window)
        });
    }
}

/// Runs the workload.
pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    let seeds = if params.small { 120 } else { 1000 };
    let path = params.work_dir.join("soccer.json");
    generate_corpus(
        "stream-soccer",
        scenarios::soccer(),
        seeds,
        derive_seed(params.seed, 0x57E4),
        &path,
    );

    let ((corpus, events), setup_s) = repeat_setup(|| {
        let corpus = tracer.span("revstore.load", || {
            Corpus::load(&path).expect("load corpus")
        });
        let events = chronological_events(&corpus.store);
        (corpus, events)
    });
    let seed = corpus.seed_type_id();
    let universe = &corpus.universe;
    let config = stream_config(REFRESH_REVISIONS);
    let expert: BTreeSet<Pattern> = corpus
        .domain
        .as_ref()
        .expect("synthetic corpus carries its domain")
        .expert_list(universe)
        .into_iter()
        .map(|(_, p, _)| p)
        .collect();

    let mut checks = Checks::default();
    let mut expected: BTreeMap<Window, Digest> = BTreeMap::new();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut recall = 0.0;
    let round_s = timed_rounds(
        tracer,
        params.seconds,
        || {
            let mut sm = StreamMiner::new(universe, seed, config.clone());
            tracer.span("core.stream.ingest", || {
                for e in &events {
                    if tracer.enabled() {
                        let t0 = Instant::now();
                        let sealed = sm.ingest(e);
                        if sealed > 0 {
                            tracer.record("core.stream.seal", t0, Instant::now());
                        }
                    } else {
                        sm.ingest(e);
                    }
                }
                let t0 = Instant::now();
                sm.flush();
                tracer.record("core.stream.seal", t0, Instant::now());
            });
            sm
        },
        |sm| {
            check_sealed(
                sm.sealed(),
                &mut expected,
                |w| WindowMiner::new(&corpus.store, universe, config.miner).mine_window(seed, w),
                &mut checks,
            );
            let stats = sm.stats();
            checks.check(
                sm.late_revisions() == 0 && stats.delta_rows_joined > 0,
                || {
                    format!(
                        "{} late revisions, {} delta rows joined",
                        sm.late_revisions(),
                        stats.delta_rows_joined
                    )
                },
            );
            let found = wc_result_from_sealed(
                sm.sealed(),
                seed,
                STREAM_WIDTH,
                STREAM_TAU,
                sm.late_revisions(),
            )
            .discovered
            .iter()
            .filter(|d| expert.contains(&d.pattern))
            .count();
            recall = found as f64 / expert.len() as f64;
            let mut l = Layers::default();
            l.set_mine_stats(stats);
            l.set("core.stream.windows_sealed", stats.windows_sealed as f64);
            l.set("core.stream.delta_rows", stats.delta_rows_joined as f64);
            l.set("core.stream.fallbacks", stats.full_remine_fallbacks as f64);
            rounds.push(l);
        },
    );

    if tracer.enabled() {
        let load_s = median(&tracer.durations_s("revstore.load"));
        let ingest = tracer.per_round_s("core.stream.ingest");
        let seals = tracer.per_round("core.stream.seal");
        for (r, l) in rounds.iter_mut().enumerate() {
            let seal_us: Vec<f64> = seals[r].iter().map(|s| s * 1e6).collect();
            l.set("revstore.load_s", load_s);
            l.set("core.stream.ingest_s", ingest[r]);
            l.set("core.stream.seal_p50_us", median(&seal_us));
            l.set(
                "core.stream.seal_max_us",
                seal_us.iter().copied().fold(0.0, f64::max),
            );
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

    #[test]
    fn an_altered_sealed_window_fails_its_check() {
        let world =
            wiclean_synth::generate(scenarios::soccer(), wiclean_synth::SynthConfig::tiny(9));
        let config = stream_config(4);
        let mut sm = StreamMiner::new(&world.universe, world.seed_type, config.clone());
        for e in &chronological_events(&world.store) {
            sm.ingest(e);
        }
        sm.flush();
        let batch = |w: &Window| {
            WindowMiner::new(&world.store, &world.universe, config.miner)
                .mine_window(world.seed_type, w)
        };
        let mut expected = BTreeMap::new();
        let mut checks = Checks::default();
        check_sealed(sm.sealed(), &mut expected, &batch, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);
        assert!(checks.attempted > 1);

        let mut altered = sm.sealed().to_vec();
        let target = altered
            .iter_mut()
            .find(|w| !w.patterns.is_empty())
            .expect("a window with patterns");
        target.patterns[0].support += 1;
        let mut checks = Checks::default();
        check_sealed(&altered, &mut expected, &batch, &mut checks);
        assert_eq!(checks.failed, 1, "{:?}", checks.failures);
    }
}
