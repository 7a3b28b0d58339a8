//! Shared measurement plumbing: metric lists, check accounting, the round
//! loop of the timed phase, order statistics and peak memory.

use crate::trace::{Tracer, ROUND};
use crate::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;
use wiclean_core::MineStats;

/// Set-ups per run: at least [`MIN_SETUPS`], and more until they add up to
/// [`SETUP_BUDGET_S`], at most [`MAX_SETUPS`]. The run reports their
/// median, so a set-up of a tenth of a second is still read steadily, and
/// one of a few seconds is read from four or more.
pub(crate) const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub(crate) const MAX_SETUPS: usize = 15;
/// See [`MIN_SETUPS`].
pub(crate) const SETUP_BUDGET_S: f64 = 8.0;

/// Named metric values with units, in print order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The metric object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Operations attempted and failed, with the first few failures kept for
/// the error stream.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// End-to-end metrics in [`END_TO_END`] order.
pub(crate) fn end_to_end(setup_s: &[f64], round_s: &[f64], pattern_recall: f64) -> Metrics {
    let values = [
        median(setup_s),
        median(round_s),
        peak_rss_mb(),
        pattern_recall,
    ];
    Metrics(
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| ((*n).to_owned(), v, (*u).to_owned()))
            .collect(),
    )
}

/// Per-layer samples of one round, keyed by [`PER_LAYER`] name; names a
/// workload does not reach stay 0.
#[derive(Debug, Clone)]
pub(crate) struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect())
    }
}

impl Layers {
    /// Sets `name`, which must be a [`PER_LAYER`] metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// Sets the mining counters the program's `MineStats` carries.
    pub fn set_mine_stats(&mut self, s: &MineStats) {
        self.set("revstore.extract.bytes_parsed", s.bytes_parsed as f64);
        self.set("revstore.extract.bytes_skipped", s.bytes_skipped as f64);
        self.set("revstore.action_cache.hits", s.action_cache_hits as f64);
        self.set(
            "revstore.action_cache.composed",
            s.action_cache_composed as f64,
        );
        self.set("revstore.action_cache.misses", s.action_cache_misses as f64);
        self.set("core.miner.preprocess_s", s.preprocess.as_secs_f64());
        self.set("core.miner.mine_s", s.mine.as_secs_f64());
        self.set("core.miner.candidates", s.candidates_considered as f64);
        self.set("core.miner.joins", s.joins_executed as f64);
        self.set(
            "core.miner.tables_materialized",
            s.tables_materialized as f64,
        );
        self.set("core.miner.tables_pruned", s.tables_pruned as f64);
        self.set("core.miner.realization_cache_hits", s.cache_hits as f64);
        self.set("core.miner.realization_cache_misses", s.cache_misses as f64);
        self.set("rel.rows_probed", s.rows_probed as f64);
        self.set("rel.pairs_matched", s.pairs_matched as f64);
        self.set("rel.plan_cache_hits", s.plan_cache_hits as f64);
        self.set("rel.replans", s.replans as f64);
        self.set("rel.picks_hash", s.plan_picks_hash as f64);
        self.set(
            "rel.picks_other",
            (s.plan_picks_sort_merge + s.plan_picks_nested + s.plan_picks_partitioned) as f64,
        );
    }

    /// Sets the per-window mining time distribution from `windows_s`.
    pub fn set_window_times(&mut self, windows_s: &[f64]) {
        self.set("core.miner.window_p50_s", median(windows_s));
        self.set(
            "core.miner.window_max_s",
            windows_s.iter().copied().fold(0.0, f64::max),
        );
    }

    /// Per-layer metrics: the median over rounds of each name.
    pub(crate) fn median_of(rounds: &[Layers]) -> Metrics {
        Metrics(
            PER_LAYER
                .iter()
                .map(|(n, u)| {
                    let v: Vec<f64> = rounds.iter().map(|r| r.0[n]).collect();
                    ((*n).to_owned(), median(&v), (*u).to_owned())
                })
                .collect(),
        )
    }
}

/// Runs `setup` as [`MIN_SETUPS`] describes, dropping each result before
/// the next starts; returns the last result and every set-up's wall time.
pub(crate) fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    repeat_timed_setup(|| {
        let t0 = Instant::now();
        let value = setup();
        (value, t0.elapsed().as_secs_f64())
    })
}

/// [`repeat_setup`] for a set-up that times its own program work (and
/// leaves out the input generation it interleaves with): `setup` returns
/// its result and its seconds.
pub(crate) fn repeat_timed_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let (value, seconds) = setup();
        times.push(seconds);
        last = Some(value);
    }
    let spread: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    eprintln!("set-up: {} runs, seconds {}", times.len(), spread.join(" "));
    (last.expect("at least one set-up"), times)
}

/// The timed phase: runs whole rounds until `seconds` have passed (at least
/// one). Each round's program work is timed and traced as a `round` span;
/// `check` then inspects its output outside the timed section. Returns the
/// round wall times.
pub(crate) fn timed_rounds<T>(
    tracer: &Tracer,
    seconds: f64,
    mut round: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> Vec<f64> {
    let phase = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || phase.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = tracer.span(ROUND, &mut round);
        times.push(t0.elapsed().as_secs_f64());
        check(out);
    }
    let spread: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    eprintln!(
        "timed phase: {} rounds, seconds {}",
        times.len(),
        spread.join(" ")
    );
    times
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; 0 for no samples.
pub(crate) fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Generates a synthetic corpus, prints its make-up (pages, revisions,
/// page-text bytes) to standard error and saves it to `path`. This is input
/// generation: it is never timed.
pub(crate) fn generate_corpus(
    label: &str,
    domain: wiclean_synth::DomainSpec,
    seed_count: usize,
    rng_seed: u64,
    path: &std::path::Path,
) {
    let world = wiclean_synth::generate(
        domain,
        wiclean_synth::SynthConfig {
            seed_count,
            rng_seed,
            ..wiclean_synth::SynthConfig::default()
        },
    );
    let (mut pages, mut revisions, mut bytes) = (0usize, 0usize, 0usize);
    for e in world.store.entities() {
        let history = world.store.peek(e).expect("listed entity has a history");
        pages += 1;
        revisions += history.len();
        bytes += history
            .revisions()
            .iter()
            .map(|r| r.text.len())
            .sum::<usize>();
    }
    eprintln!(
        "{label}: {seed_count} seeds, {pages} pages, {revisions} revisions, \
         {:.1} MiB of page text",
        bytes as f64 / (1 << 20) as f64
    );
    wiclean_synth::Corpus::from_world(world)
        .save(path)
        .expect("save generated corpus");
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bad".to_owned());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures, vec!["bad".to_owned()]);
    }
}
