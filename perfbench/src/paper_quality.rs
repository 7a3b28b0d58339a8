//! `paper-quality`: the paper's §6.3 experiment as one batch job.
//!
//! For soccer, cinematography and US politicians, set-up loads each
//! domain's persisted corpus. A round then runs, per domain and on one
//! thread: Algorithm 2; Algorithm 1 (`mine_window`) on every window of the
//! final width and threshold; Algorithm 3 on every discovered pattern; and
//! the suggestion-index build. Mining is most of the time here, so a change
//! to the miner, the joins or the refinement loop shows on this workload.
//!
//! Checks, none against a stored copy of earlier output:
//! * every discovered pattern is on the domain's expert list (precision
//!   100%, as the paper reports), every windowed expert pattern is found,
//!   and recall reaches the paper's figure (9/11, 7/8, 4/5);
//! * Algorithm 1 on the final windows, with no caches, finds exactly the
//!   most specific patterns Algorithm 2's cached last iteration found;
//! * Algorithm 3's flags, classified against the planted errors, are
//!   mostly planted errors;
//! * the index holds one entry per discovered pattern and one suggestion
//!   per Algorithm 3 flag.

use crate::measure::{
    end_to_end, generate_corpus, median, repeat_setup, timed_rounds, Checks, Layers,
};
use crate::trace::Tracer;
use crate::{derive_seed, Outcome, Params};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use wiclean_core::config::WcConfig;
use wiclean_core::partial::{detect_partial_updates, PartialReport};
use wiclean_core::pattern::Pattern;
use wiclean_core::windows::{find_windows_and_patterns, WcResult};
use wiclean_core::{MineStats, WindowMiner, WindowResult};
use wiclean_eval::quality::default_wc_config;
use wiclean_serve::{IndexLimits, PatternIndex, PatternSet};
use wiclean_synth::{scenarios, Corpus, DomainSpec, GroundTruth};
use wiclean_types::{EntityId, Window};

/// A benchmarked domain with the paper's recall for it (§6.3).
struct Domain {
    name: &'static str,
    spec: fn() -> DomainSpec,
    paper_found: usize,
    paper_total: usize,
}

const DOMAINS: [Domain; 3] = [
    Domain {
        name: "soccer",
        spec: scenarios::soccer,
        paper_found: 9,
        paper_total: 11,
    },
    Domain {
        name: "cinematography",
        spec: scenarios::cinema,
        paper_found: 7,
        paper_total: 8,
    },
    Domain {
        name: "us_politicians",
        spec: scenarios::politics,
        paper_found: 4,
        paper_total: 5,
    },
];

/// Seeds per domain: the paper's quality scale.
const SEEDS: usize = 1000;

/// The domains run: all three, or only US politicians (the quickest) in
/// small-input mode. Smaller corpora are not quicker: with a few hundred
/// seeds, coincidental co-edits clear the lowered thresholds and mining
/// runs many times longer than at the paper's scale.
fn domains(params: &Params) -> &'static [Domain] {
    if params.small {
        &DOMAINS[2..]
    } else {
        &DOMAINS
    }
}

/// Share of Algorithm 3 flags that must be planted errors. The rest are
/// planted intentional edits and backfills the generator also produces.
const MIN_PLANTED_FLAG_SHARE: f64 = 0.5;

/// One domain's output of one round.
struct DomainRun {
    /// Algorithm 2's result.
    pub result: WcResult,
    /// Algorithm 1 on each window of the final width and threshold.
    pub finals: Vec<WindowResult>,
    /// Algorithm 3 on each discovered pattern, at its discovery window.
    pub reports: Vec<PartialReport>,
    /// Patterns and suggestions in the built index.
    pub index_patterns: usize,
    /// Suggestions in the built index.
    pub index_suggestions: usize,
}

/// Generates the three corpora and saves them (input generation, untimed);
/// returns their paths.
fn generate_corpora(params: &Params) -> Vec<PathBuf> {
    domains(params)
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let path = params.work_dir.join(format!("{}.json", d.name));
            let rng = derive_seed(params.seed, i as u64);
            generate_corpus(d.name, (d.spec)(), SEEDS, rng, &path);
            path
        })
        .collect()
}

/// One domain's share of a round.
fn run_domain(corpus: &Corpus, wc: &WcConfig, tracer: &Tracer) -> DomainRun {
    let seed = corpus.seed_type_id();
    let (store, universe) = (&corpus.store, &corpus.universe);
    let result = tracer.span("core.windows", || {
        find_windows_and_patterns(store, universe, seed, wc)
    });

    let mut final_config = wc.miner;
    final_config.tau = result.final_tau;
    final_config.full_reparse_extract = !wc.use_incremental_extract;
    final_config.planner.enabled = wc.use_adaptive_planner;
    let finals = Window::split_span(wc.timeline_start, wc.timeline_end, result.final_width)
        .iter()
        .map(|w| {
            tracer.span("core.miner.mine_window", || {
                WindowMiner::new(store, universe, final_config).mine_window(seed, w)
            })
        })
        .collect();

    let reports = result
        .discovered
        .iter()
        .map(|d| {
            tracer.span("core.partial", || {
                detect_partial_updates(store, universe, &wc.miner, &d.working, seed, &d.window, 0)
            })
        })
        .collect();

    let index = tracer.span("serve.index.build", || {
        PatternIndex::build(
            store,
            universe,
            &wc.miner,
            &PatternSet::from_wc_result(&result),
            IndexLimits::default(),
        )
    });
    let (index_patterns, index_suggestions) = match &index {
        Ok(ix) => (ix.stats().patterns, ix.stats().suggestions),
        Err(_) => (usize::MAX, usize::MAX),
    };
    DomainRun {
        result,
        finals,
        reports,
        index_patterns,
        index_suggestions,
    }
}

/// Checks the discovered pattern set against the expert list: precision
/// 100%, every windowed expert pattern found, recall at least the paper's.
/// Returns the number of expert patterns found.
fn check_patterns(
    domain: &str,
    expert: &[(String, Pattern, bool)],
    discovered: &[Pattern],
    paper_found: usize,
    checks: &mut Checks,
) -> usize {
    let expert_set: BTreeSet<&Pattern> = expert.iter().map(|(_, p, _)| p).collect();
    let found: BTreeSet<&Pattern> = discovered.iter().collect();
    let false_positives = found.iter().filter(|p| !expert_set.contains(*p)).count();
    checks.check(false_positives == 0, || {
        format!("{domain}: {false_positives} discovered patterns are not expert patterns")
    });
    let missed_windowed: Vec<&str> = expert
        .iter()
        .filter(|(_, p, windowed)| *windowed && !found.contains(p))
        .map(|(name, _, _)| name.as_str())
        .collect();
    checks.check(missed_windowed.is_empty(), || {
        format!("{domain}: windowed expert patterns not found: {missed_windowed:?}")
    });
    let hits = expert_set.iter().filter(|p| found.contains(*p)).count();
    checks.check(hits >= paper_found, || {
        format!(
            "{domain}: recall {hits}/{} below the paper's {paper_found}",
            expert.len()
        )
    });
    hits
}

/// The most specific patterns of a window result, with their supports.
fn most_specific(r: &WindowResult) -> BTreeSet<(Pattern, usize)> {
    r.most_specific()
        .map(|p| (p.pattern.clone(), p.support))
        .collect()
}

/// Checks that cache-free Algorithm 1 on the final windows reproduces
/// Algorithm 2's last iteration, window by window.
fn check_final_windows(
    domain: &str,
    result: &WcResult,
    finals: &[WindowResult],
    checks: &mut Checks,
) {
    checks.check(finals.len() == result.window_results.len(), || {
        format!(
            "{domain}: {} final windows mined, Algorithm 2 kept {}",
            finals.len(),
            result.window_results.len()
        )
    });
    for (fresh, cached) in finals.iter().zip(&result.window_results) {
        checks.check(
            fresh.window == cached.window && most_specific(fresh) == most_specific(cached),
            || {
                format!(
                    "{domain}: window {} differs from Algorithm 2's",
                    fresh.window
                )
            },
        );
    }
}

/// How one Algorithm 3 flag relates to what the generator planted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    Planted,
    Other,
}

/// Classifies a flag on `seed` for expert template `template_ix` in
/// `window`: a planted incomplete event of that template for that seed is
/// a planted error; anything else (planted spurious edits, backfills) is
/// not.
fn classify(truth: &GroundTruth, template_ix: usize, seed: EntityId, window: &Window) -> Flag {
    let planted = truth.events.iter().any(|ev| {
        ev.template_ix == template_ix
            && ev.seed == seed
            && window.contains(ev.time)
            && !ev.is_complete()
    });
    if planted {
        Flag::Planted
    } else {
        Flag::Other
    }
}

/// Classifies every Algorithm 3 flag of the expert patterns against the
/// planted errors and checks that most flags are planted errors. Returns
/// (flags, planted flags).
fn check_flags(
    domain: &str,
    expert: &[(String, Pattern, bool)],
    truth: &GroundTruth,
    reports: &[PartialReport],
    checks: &mut Checks,
) -> (usize, usize) {
    let template_of: BTreeMap<&Pattern, usize> = expert
        .iter()
        .enumerate()
        .map(|(i, (_, p, _))| (p, i))
        .collect();
    let mut flags: BTreeMap<(usize, EntityId), Flag> = BTreeMap::new();
    for report in reports {
        let Some(&tix) = template_of.get(&report.pattern) else {
            continue;
        };
        for partial in &report.partials {
            if let Some(seed) = partial.assignment.first().and_then(|(_, e)| *e) {
                flags
                    .entry((tix, seed))
                    .or_insert_with(|| classify(truth, tix, seed, &report.window));
            }
        }
    }
    let planted = flags.values().filter(|f| **f == Flag::Planted).count();
    let share = planted as f64 / flags.len().max(1) as f64;
    checks.check(!flags.is_empty() && share >= MIN_PLANTED_FLAG_SHARE, || {
        format!(
            "{domain}: {planted} of {} Algorithm 3 flags are planted errors",
            flags.len()
        )
    });
    (flags.len(), planted)
}

/// Checks the index against Algorithm 3: one indexed pattern per discovered
/// pattern, one suggestion per flagged partial realization.
fn check_index(domain: &str, run: &DomainRun, checks: &mut Checks) {
    let flags: usize = run.reports.iter().map(|r| r.partials.len()).sum();
    checks.check(
        run.index_patterns == run.result.discovered.len() && run.index_suggestions == flags,
        || {
            format!(
                "{domain}: index holds {} patterns / {} suggestions, expected {} / {flags}",
                run.index_patterns,
                run.index_suggestions,
                run.result.discovered.len()
            )
        },
    );
}

/// Runs the workload.
pub fn run(params: &Params, tracer: &Tracer) -> Outcome {
    let paths = generate_corpora(params);
    let (corpora, setup_s) = repeat_setup(|| {
        tracer.span("revstore.load", || {
            paths
                .iter()
                .map(|p| Corpus::load(p).expect("load corpus"))
                .collect::<Vec<_>>()
        })
    });
    let experts: Vec<Vec<(String, Pattern, bool)>> = corpora
        .iter()
        .map(|c| {
            c.domain
                .as_ref()
                .expect("synthetic corpus carries its domain")
                .expert_list(&c.universe)
        })
        .collect();
    let wc = default_wc_config(1);

    let mut checks = Checks::default();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut recall = 0.0;
    let round_s = timed_rounds(
        tracer,
        params.seconds,
        || {
            corpora
                .iter()
                .map(|c| run_domain(c, &wc, tracer))
                .collect::<Vec<_>>()
        },
        |runs| {
            let mut stats = MineStats::default();
            let (mut hits, mut total, mut iterations, mut flags, mut suggestions) = (0, 0, 0, 0, 0);
            for ((d, run), (corpus, expert)) in domains(params)
                .iter()
                .zip(&runs)
                .zip(corpora.iter().zip(&experts))
            {
                let discovered: Vec<Pattern> = run
                    .result
                    .discovered
                    .iter()
                    .map(|p| p.pattern.clone())
                    .collect();
                assert_eq!(expert.len(), d.paper_total, "{} expert list size", d.name);
                hits += check_patterns(d.name, expert, &discovered, d.paper_found, &mut checks);
                total += expert.len();
                check_final_windows(d.name, &run.result, &run.finals, &mut checks);
                let truth = corpus
                    .truth
                    .as_ref()
                    .expect("synthetic corpus carries truth");
                flags += check_flags(d.name, expert, truth, &run.reports, &mut checks).0;
                check_index(d.name, run, &mut checks);
                stats.absorb(&run.result.stats);
                for f in &run.finals {
                    stats.absorb(&f.stats);
                }
                iterations += run.result.iterations;
                suggestions += run.index_suggestions;
            }
            recall = hits as f64 / total as f64;
            let mut l = Layers::default();
            l.set_mine_stats(&stats);
            l.set("core.windows.iterations", iterations as f64);
            l.set("core.partial.flags", flags as f64);
            l.set("serve.index.suggestions", suggestions as f64);
            rounds.push(l);
        },
    );
    if tracer.enabled() {
        let load_s = median(&tracer.durations_s("revstore.load"));
        let windows = tracer.per_round_s("core.windows");
        let partial = tracer.per_round_s("core.partial");
        let build = tracer.per_round_s("serve.index.build");
        let mine = tracer.per_round("core.miner.mine_window");
        for (r, l) in rounds.iter_mut().enumerate() {
            l.set_window_times(&mine[r]);
            l.set("revstore.load_s", load_s);
            l.set("core.windows.s", windows[r]);
            l.set("core.partial.s", partial[r]);
            l.set("serve.index.build_s", build[r]);
        }
    }
    Outcome {
        checks,
        end_to_end: end_to_end(&setup_s, &round_s, recall),
        per_layer: Layers::median_of(&rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiclean_synth::{generate, SynthConfig};

    fn soccer_expert() -> Vec<(String, Pattern, bool)> {
        let world = generate(scenarios::soccer(), SynthConfig::tiny(3));
        world.expert_list()
    }

    #[test]
    fn a_dropped_expert_pattern_fails_the_recall_check() {
        let expert = soccer_expert();
        let windowed: Vec<Pattern> = expert
            .iter()
            .filter(|(_, _, w)| *w)
            .map(|(_, p, _)| p.clone())
            .collect();
        assert!(windowed.len() >= DOMAINS[0].paper_found);

        let mut checks = Checks::default();
        let hits = check_patterns(
            "soccer",
            &expert,
            &windowed,
            DOMAINS[0].paper_found,
            &mut checks,
        );
        assert_eq!((hits, checks.failed), (windowed.len(), 0));

        let dropped = &windowed[1..];
        let mut checks = Checks::default();
        check_patterns(
            "soccer",
            &expert,
            dropped,
            DOMAINS[0].paper_found,
            &mut checks,
        );
        assert!(checks.failed >= 1, "{:?}", checks.failures);
    }

    #[test]
    fn a_non_expert_pattern_fails_the_precision_check() {
        let expert = soccer_expert();
        let mut discovered: Vec<Pattern> = expert
            .iter()
            .filter(|(_, _, w)| *w)
            .map(|(_, p, _)| p.clone())
            .collect();
        let windowless = expert
            .iter()
            .find(|(_, _, w)| !*w)
            .expect("a window-less pattern");
        discovered.push(windowless.1.clone());
        let mut checks = Checks::default();
        check_patterns(
            "soccer",
            &expert,
            &discovered,
            DOMAINS[0].paper_found,
            &mut checks,
        );
        assert_eq!(
            checks.failed, 0,
            "window-less expert patterns are still expert"
        );

        let other = Pattern::canonical_from(&expert[0].1.actions()[..1]);
        discovered.push(other);
        let mut checks = Checks::default();
        check_patterns(
            "soccer",
            &expert,
            &discovered,
            DOMAINS[0].paper_found,
            &mut checks,
        );
        assert_eq!(checks.failed, 1, "{:?}", checks.failures);
    }
}
