//! Adaptive cost-based join planning.
//!
//! Every glue join in the Algorithm-2 refinement loop used to run through
//! a fixed dispatch: hash build-right, with a radix-partitioned parallel
//! variant gated by the hard-coded `PARALLEL_MIN_LEFT` /
//! `PARALLEL_MIN_RIGHT` thresholds. This module replaces those heuristics
//! with a small planner:
//!
//! * **Sampled statistics** ([`sample_join_stats`]): per join, a strided
//!   sample of at most 256 rows per side estimates valid-key counts and
//!   key distinctness, from which the expected output cardinality is
//!   derived (`|L|·|R| / max(d_L, d_R)` — the classic equi-join estimate).
//! * **Cost model** ([`choose_plan`]): per-row/per-pair weights score every
//!   (strategy, build side, partition count) candidate; the cheapest wins.
//!   The parallel candidate carries a fixed fan-out overhead, which *is*
//!   the planner-derived replacement for the old constants: partitioning
//!   is chosen exactly when the modelled serial cost exceeds it.
//! * **Runtime re-planning** ([`Planner::pair_join`]): the chosen plan runs
//!   with an output budget of `replan_factor ×` the estimate. If the join
//!   overshoots, the partial work is discarded, the join is re-planned
//!   with the observed cardinality, and the re-run is uncapped.
//! * **Per-shape plan cache**: plans are cached by ([`PlanKey`]) — caller
//!   context (seed type) × glue arity × log₂ size buckets — so refinement
//!   iterations and streaming delta-joins reuse proven plans. A re-plan
//!   bumps the cache epoch, invalidating every entry whose estimates were
//!   derived under the drifted statistics.
//!
//! **Determinism contract**: all strategies emit the canonical
//! (left row, right row) ascending pair order, so the mined output is
//! byte-identical under *any* plan choice — which is what makes every
//! planner decision differentially testable ([`JoinPlan`] can be forced
//! through [`PlannerSettings::forced`] or [`join_glue_pairs_planned`]).
//! Only timings and the planner counters themselves vary.

use crate::hash::FastMap;
use crate::join::{
    default_partitions, hash_pairs, hash_pairs_capped, nested_pairs_capped,
    sort_merge_pairs_capped, uncapped, validate, BatchRunner, ColumnGlue, GluePlan, Overflow, Pair,
    SerialRunner,
};
use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Pair-stage strategy. Every strategy produces the identical canonical
/// pair stream; they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Strategy {
    /// Serial hash join (build one side, probe the other).
    #[default]
    Hash,
    /// Sort both sides by key, merge equal-key groups.
    SortMerge,
    /// Cross-product scan — the paper's `PM−join` baseline.
    NestedLoop,
    /// Radix-partitioned parallel hash join on a [`BatchRunner`].
    Partitioned,
}

/// Which side the hash index is built over. Ignored by `SortMerge` and
/// `NestedLoop`, which have no build side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BuildSide {
    /// Index the left relation, probe with the right.
    Left,
    /// Index the right relation, probe with the left (the classic shape).
    #[default]
    Right,
}

/// A fully-specified pair-stage plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct JoinPlan {
    /// Pair-stage strategy.
    pub strategy: Strategy,
    /// Build side for the hash strategies.
    pub build_side: BuildSide,
    /// Radix partition count for [`Strategy::Partitioned`]; `0` derives
    /// the fixed-heuristic default from the runner width. Must otherwise
    /// be a power of two in `2..=64`.
    pub partitions: u32,
}

/// Per-call planner knobs, derived from the miner config.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerSettings {
    /// Re-plan when observed output exceeds the estimate by this factor.
    pub replan_factor: f64,
    /// Bypass planning entirely and run this exact plan (differential
    /// testing and ablation benches).
    pub forced: Option<JoinPlan>,
}

impl Default for PlannerSettings {
    fn default() -> Self {
        PlannerSettings {
            replan_factor: 4.0,
            forced: None,
        }
    }
}

/// Sampled per-join statistics feeding the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinStats {
    /// Left relation row count.
    pub left_rows: usize,
    /// Right relation row count.
    pub right_rows: usize,
    /// Estimated distinct join keys on the left (non-null rows).
    pub left_distinct: usize,
    /// Estimated distinct join keys on the right (non-null rows).
    pub right_distinct: usize,
    /// Estimated output cardinality.
    pub est_pairs: u64,
}

/// What one planned join did — fed into `MineStats` by the miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanOutcome {
    /// The strategy that produced the final output (post re-plan).
    pub picked: Strategy,
    /// The plan came from the shape cache.
    pub cache_hit: bool,
    /// The shape was planned from fresh statistics.
    pub cache_miss: bool,
    /// The first attempt overshot its budget and was re-planned.
    pub replanned: bool,
}

/// Shape key for the plan cache: caller context (seed type) × glue arity
/// × log₂ size buckets. Joins of the same shape across refinement
/// iterations land on the same key even as tables grow within a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    context: u64,
    glue_arity: u8,
    left_bucket: u8,
    right_bucket: u8,
}

#[derive(Debug, Clone, Copy)]
struct CachedPlan {
    plan: JoinPlan,
    /// Observed selectivity `pairs / (|L|·|R|)` of the last run — a proven
    /// estimate for the next join of this shape.
    sel: f64,
    epoch: u64,
}

/// Joins at or under this many rows per side skip statistics and the
/// cache entirely: a serial build-right hash join is already optimal and
/// the planning overhead would dominate.
const SMALL_JOIN: usize = 512;

/// Additive floor on the re-plan budget: tiny estimates must not trigger
/// bailouts on joins whose output is trivially affordable anyway.
const REPLAN_FLOOR: usize = 4096;

// Cost-model weights, in abstract per-row units (relative magnitudes are
// what matters). Calibrated against the fig5_join / fig_plan benches.
// Inserting into the flat key index is a sequential scan plus one bucket
// write; a probe is a hash plus dependent bucket and slot reads, so it
// measures 2–3× an insert (20–400k-row build sides).
const C_BUILD: f64 = 0.35; // insert one build row into the key index
const C_PROBE: f64 = 1.0; // probe one row
const C_EMIT: f64 = 0.4; // emit one pair
const C_SORT: f64 = 0.05; // per pair per log2(pairs): canonical-order restore
const C_SM_SORT: f64 = 0.35; // per row per log2(rows): sort-merge key sort
const C_NESTED: f64 = 0.25; // per crossed pair
const C_PAR_FIXED: f64 = 6000.0; // fan-out overhead of the partitioned join
const C_PAR_SCAN: f64 = 0.3; // per row: scatter + chunk bookkeeping

fn lg(x: f64) -> f64 {
    if x <= 2.0 {
        1.0
    } else {
        x.log2()
    }
}

/// Modelled cost of a serial hash join building over `build` rows and
/// probing `probe` rows. `sorted_emit` adds the canonical-order restore
/// that build-left requires.
fn hash_cost(build: f64, probe: f64, pairs: f64, sorted_emit: bool) -> f64 {
    let mut c = C_BUILD * build + C_PROBE * probe + C_EMIT * pairs;
    if sorted_emit {
        c += C_SORT * pairs * lg(pairs);
    }
    c
}

/// log₂ size bucket of a table.
fn bucket(n: usize) -> u8 {
    n.max(1).ilog2() as u8
}

/// Picks the partition count for a parallel plan: the fixed-heuristic
/// default fan-out, halved while partitions would hold fewer than 256
/// build rows each (tiny partitions waste index setup).
fn pick_partitions(build_rows: usize, width: usize) -> u32 {
    let mut p = (width * 2).next_power_of_two().clamp(2, 64);
    while p > 2 && build_rows / p < 256 {
        p /= 2;
    }
    p as u32
}

/// Scores every candidate plan against the sampled statistics and returns
/// the cheapest. Pure — same stats and width always yield the same plan.
pub fn choose_plan(stats: &JoinStats, width: usize) -> JoinPlan {
    let l = stats.left_rows as f64;
    let r = stats.right_rows as f64;
    let e = stats.est_pairs as f64;

    let mut best_cost = f64::INFINITY;
    let mut best = JoinPlan::default();
    let mut consider = |cost: f64, plan: JoinPlan| {
        if cost < best_cost {
            best_cost = cost;
            best = plan;
        }
    };

    let hash_right = hash_cost(r, l, e, false);
    let hash_left = hash_cost(l, r, e, true);
    consider(
        hash_right,
        JoinPlan {
            strategy: Strategy::Hash,
            build_side: BuildSide::Right,
            partitions: 0,
        },
    );
    consider(
        hash_left,
        JoinPlan {
            strategy: Strategy::Hash,
            build_side: BuildSide::Left,
            partitions: 0,
        },
    );
    consider(
        C_SM_SORT * (l * lg(l) + r * lg(r)) + C_PROBE * (l + r) + C_EMIT * e + C_SORT * e * lg(e),
        JoinPlan {
            strategy: Strategy::SortMerge,
            build_side: BuildSide::Right,
            partitions: 0,
        },
    );
    consider(
        C_NESTED * l * r,
        JoinPlan {
            strategy: Strategy::NestedLoop,
            build_side: BuildSide::Right,
            partitions: 0,
        },
    );
    if width > 1 {
        let w = width as f64;
        for (serial, build_rows, side) in [
            (hash_right, stats.right_rows, BuildSide::Right),
            (hash_left, stats.left_rows, BuildSide::Left),
        ] {
            consider(
                serial / w + C_PAR_FIXED + C_PAR_SCAN * (l + r),
                JoinPlan {
                    strategy: Strategy::Partitioned,
                    build_side: side,
                    partitions: pick_partitions(build_rows, width),
                },
            );
        }
    }
    best
}

/// Estimates valid-key count and key distinctness of one join side from a
/// strided sample of at most 256 rows. Distinctness uses Charikar's GEE
/// estimator: keys that repeat *within* the sample mark a small domain
/// (estimate ≈ seen), and only sample singletons scale up, by
/// `√(len/sample)`. The naive linear scale-up overshoots small domains by
/// an order of magnitude, which underestimates output cardinality and
/// trips the re-plan budget on perfectly healthy joins.
fn side_stats(len: usize, key_hash_at: impl Fn(usize) -> Option<u64>) -> SideSample {
    if len == 0 {
        return SideSample::default();
    }
    let sample = len.min(256);
    let mut counts: HashMap<u64, u32> = HashMap::with_capacity(sample);
    let mut valid = 0usize;
    for s in 0..sample {
        let i = s * len / sample;
        if let Some(h) = key_hash_at(i) {
            valid += 1;
            *counts.entry(h).or_insert(0) += 1;
        }
    }
    let est_valid = valid * len / sample;
    let seen = counts.len();
    let once = counts.values().filter(|&&c| c == 1).count();
    let scale = (len as f64 / sample as f64).sqrt();
    let est_distinct = (seen as f64 + (scale - 1.0) * once as f64) as usize;
    SideSample {
        valid: est_valid,
        distinct: est_distinct.clamp(seen.max(1), est_valid.max(1)),
        counts,
        sample,
        len,
    }
}

/// One join side's sampled key statistics.
#[derive(Default)]
struct SideSample {
    /// Estimated non-null key rows.
    valid: usize,
    /// Estimated distinct keys (GEE).
    distinct: usize,
    /// Key-hash → occurrence count within the sample.
    counts: HashMap<u64, u32>,
    sample: usize,
    len: usize,
}

/// Minimum shared sampled keys for the cross-sample estimate to stand on
/// its own; below this the overlap is too sparse to be statistically
/// meaningful and the classic estimate is folded in as a floor.
const CROSS_MIN_SHARED: usize = 8;

/// Unbiased skew-aware output estimate: `Σ_k cnt_L(k)·cnt_R(k)` over the
/// two samples, scaled by each side's sampling ratio. Hot keys appear
/// many times in both samples, so their quadratic pair contribution —
/// which the `|L|·|R| / max(d)` uniform estimate misses entirely — is
/// counted. Returns the estimate and how many distinct keys the samples
/// shared (its support).
fn cross_estimate(l: &SideSample, r: &SideSample) -> (u64, usize) {
    if l.sample == 0 || r.sample == 0 {
        return (0, 0);
    }
    let (small, big) = if l.counts.len() <= r.counts.len() {
        (&l.counts, &r.counts)
    } else {
        (&r.counts, &l.counts)
    };
    let mut dot = 0u64;
    let mut shared = 0usize;
    for (k, c) in small {
        if let Some(c2) = big.get(k) {
            dot += u64::from(*c) * u64::from(*c2);
            shared += 1;
        }
    }
    let scale = (l.len as f64 / l.sample as f64) * (r.len as f64 / r.sample as f64);
    ((dot as f64 * scale).min(u64::MAX as f64) as u64, shared)
}

/// Samples both sides of a glue join and derives the expected output
/// cardinality. Public entry for benches and diagnostics.
pub fn join_stats(left: &Table, right: &Table, glue: &[ColumnGlue]) -> JoinStats {
    sample_join_stats(left, right, &GluePlan::new(glue))
}

/// Samples both sides and derives the expected output cardinality. When
/// the two samples share enough keys the unbiased cross-sample estimate
/// is trusted outright (the classic uniform estimate both misses skew
/// and inherits the distinct estimator's bias); on sparse overlap the
/// classic estimate is folded in as a floor. Capped at `|L|·|R|`.
fn sample_join_stats(left: &Table, right: &Table, plan: &GluePlan) -> JoinStats {
    let (lkeys, rkeys) = (plan.left_keys(left), plan.right_keys(right));
    let ls = side_stats(left.len(), |i| lkeys.hash(i));
    let rs = side_stats(right.len(), |i| rkeys.hash(i));
    let denom = ls.distinct.max(rs.distinct).max(1) as u128;
    let classic = (ls.valid as u128 * rs.valid as u128 / denom).min(u64::MAX as u128) as u64;
    let cap = (left.len() as u128 * right.len() as u128).min(u64::MAX as u128) as u64;
    let (cross, shared) = cross_estimate(&ls, &rs);
    let est = if shared >= CROSS_MIN_SHARED {
        cross
    } else {
        classic.max(cross)
    }
    .min(cap);
    JoinStats {
        left_rows: left.len(),
        right_rows: right.len(),
        left_distinct: ls.distinct,
        right_distinct: rs.distinct,
        est_pairs: est,
    }
}

/// Runs the exact plan, with an optional output budget.
fn execute(
    plan: JoinPlan,
    left: &Table,
    right: &Table,
    gp: &GluePlan,
    runner: &dyn BatchRunner,
    cap: Option<usize>,
) -> Result<Vec<Pair>, Overflow> {
    match (plan.strategy, plan.build_side) {
        (Strategy::Hash, side) => hash_pairs_capped(
            left,
            right,
            gp,
            &SerialRunner,
            1,
            side == BuildSide::Left,
            cap,
        ),
        (Strategy::SortMerge, _) => sort_merge_pairs_capped(left, right, gp, cap),
        (Strategy::NestedLoop, _) => nested_pairs_capped(left, right, gp, cap),
        (Strategy::Partitioned, side) => {
            let parts = if plan.partitions == 0 {
                default_partitions(runner)
            } else {
                plan.partitions as usize
            };
            hash_pairs_capped(left, right, gp, runner, parts, side == BuildSide::Left, cap)
        }
    }
}

/// Pair stage under an explicit plan, uncapped — the `ForcedPlan` entry
/// point for differential tests and benches. Byte-identical to
/// [`crate::join::join_glue_pairs`] for every valid plan.
pub fn join_glue_pairs_planned(
    left: &Table,
    right: &Table,
    glue: &[ColumnGlue],
    plan: JoinPlan,
    runner: &dyn BatchRunner,
) -> Vec<Pair> {
    validate(left, right, glue);
    let gp = GluePlan::new(glue);
    uncapped(execute(plan, left, right, &gp, runner, None))
}

/// The adaptive planner: shape cache + epoch, shared (via `Arc`) across
/// the refinement iterations of one mining run and across the streaming
/// miner's refreshes. Thread-safe; cache traffic is a brief mutex hold
/// with sampling and cost evaluation done outside the lock.
#[derive(Debug, Default)]
pub struct Planner {
    cache: Mutex<FastMap<PlanKey, CachedPlan>>,
    epoch: AtomicU64,
}

impl Planner {
    /// Fresh planner with an empty shape cache.
    pub fn new() -> Self {
        Planner::default()
    }

    /// Invalidates every cached plan (bumps the epoch). Exposed for tests
    /// and for callers that know the workload shifted wholesale.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live (current-epoch) cache entries; diagnostics only.
    pub fn cached_shapes(&self) -> usize {
        let epoch = self.epoch.load(Ordering::Relaxed);
        self.cache
            .lock()
            .unwrap()
            .values()
            .filter(|e| e.epoch == epoch)
            .count()
    }

    /// Plans and runs one pair-stage join.
    ///
    /// `context` identifies the caller's pattern shape (seed type id);
    /// together with glue arity and size buckets it forms the cache key.
    /// Returns the canonical pair stream — byte-identical to
    /// [`crate::join::join_glue_pairs`] regardless of the plan taken —
    /// plus the [`PlanOutcome`] for the caller's counters.
    pub fn pair_join(
        &self,
        settings: &PlannerSettings,
        context: u64,
        left: &Table,
        right: &Table,
        glue: &[ColumnGlue],
        runner: &dyn BatchRunner,
    ) -> (Vec<Pair>, PlanOutcome) {
        validate(left, right, glue);
        let gp = GluePlan::new(glue);

        if let Some(plan) = settings.forced {
            let pairs = uncapped(execute(plan, left, right, &gp, runner, None));
            return (
                pairs,
                PlanOutcome {
                    picked: plan.strategy,
                    ..PlanOutcome::default()
                },
            );
        }

        let (l, r) = (left.len(), right.len());
        if l == 0 || r == 0 || (l <= SMALL_JOIN && r <= SMALL_JOIN) {
            // Tiny-join fast path: no stats, no cache traffic.
            let pairs = hash_pairs(left, right, &gp);
            return (
                pairs,
                PlanOutcome {
                    picked: Strategy::Hash,
                    ..PlanOutcome::default()
                },
            );
        }

        let key = PlanKey {
            context,
            glue_arity: gp.glued.len().min(u8::MAX as usize) as u8,
            left_bucket: bucket(l),
            right_bucket: bucket(r),
        };
        let epoch = self.epoch.load(Ordering::Relaxed);
        let cached = {
            let cache = self.cache.lock().unwrap();
            cache.get(&key).filter(|e| e.epoch == epoch).copied()
        };
        let (mut plan, est_pairs, cache_hit) = match cached {
            Some(e) => (e.plan, (e.sel * l as f64 * r as f64) as u64, true),
            None => {
                let stats = sample_join_stats(left, right, &gp);
                (choose_plan(&stats, runner.width()), stats.est_pairs, false)
            }
        };

        let budget =
            ((est_pairs as f64 * settings.replan_factor) as usize).max(l + r + REPLAN_FLOOR);
        let mut outcome = PlanOutcome {
            picked: plan.strategy,
            cache_hit,
            cache_miss: !cache_hit,
            replanned: false,
        };
        let pairs = match execute(plan, left, right, &gp, runner, Some(budget)) {
            Ok(pairs) => pairs,
            Err(observed) => {
                // The estimate drifted past replan_factor: discard the
                // partial work, re-plan against the observed cardinality,
                // and invalidate the shape cache (sibling shapes were
                // planned under the same bad statistics).
                outcome.replanned = true;
                let mut stats = sample_join_stats(left, right, &gp);
                stats.est_pairs = stats.est_pairs.max((observed as u64).saturating_mul(2));
                plan = choose_plan(&stats, runner.width());
                outcome.picked = plan.strategy;
                self.invalidate();
                uncapped(execute(plan, left, right, &gp, runner, None))
            }
        };

        // Feed the observed selectivity back: the next join of this shape
        // starts from a proven plan and a proven estimate.
        let sel = pairs.len() as f64 / (l as f64 * r as f64);
        let epoch_now = self.epoch.load(Ordering::Relaxed);
        self.cache.lock().unwrap().insert(
            key,
            CachedPlan {
                plan,
                sel,
                epoch: epoch_now,
            },
        );
        (pairs, outcome)
    }

    /// Plans one delta join for the streaming miner: decides whether the
    /// prefix-probe work is worth fanning out, caching the verdict per
    /// shape. The delta algorithm itself is fixed (it *is* the strategy);
    /// a forced plan only steers the serial/parallel choice
    /// ([`Strategy::Partitioned`] → parallel, anything else → serial),
    /// which is byte-identical either way.
    ///
    /// Returns whether to run the delta join on the parallel runner, plus
    /// the outcome for the caller's counters.
    #[allow(clippy::too_many_arguments)]
    pub fn delta_join_parallel(
        &self,
        settings: &PlannerSettings,
        context: u64,
        left_len: usize,
        left_old: usize,
        right_len: usize,
        right_old: usize,
        glue_arity: usize,
        width: usize,
    ) -> (bool, PlanOutcome) {
        // Probe-side work: part one probes the stable left prefix when
        // Δright is non-empty; part two probes the full right side when
        // Δleft is non-empty.
        let probe_work = (if right_len > right_old { left_old } else { 0 })
            + (if left_len > left_old { right_len } else { 0 });

        if let Some(plan) = settings.forced {
            let parallel = width > 1 && plan.strategy == Strategy::Partitioned;
            let picked = if parallel {
                Strategy::Partitioned
            } else {
                Strategy::Hash
            };
            return (
                parallel,
                PlanOutcome {
                    picked,
                    ..PlanOutcome::default()
                },
            );
        }

        // Shape key: tag the context so delta shapes never collide with
        // full-join shapes of the same seed.
        const DELTA_TAG: u64 = 1 << 63;
        let key = PlanKey {
            context: context | DELTA_TAG,
            glue_arity: glue_arity.min(u8::MAX as usize) as u8,
            left_bucket: bucket(probe_work),
            right_bucket: bucket((left_len - left_old) + (right_len - right_old)),
        };
        let epoch = self.epoch.load(Ordering::Relaxed);
        let cached = {
            let cache = self.cache.lock().unwrap();
            cache.get(&key).filter(|e| e.epoch == epoch).copied()
        };
        let (plan, cache_hit) = match cached {
            Some(e) => (e.plan, true),
            None => {
                // Parallel pays off once the saved probe time beats the
                // fan-out overhead — the same breakeven the cost model
                // charges the partitioned full join.
                let w = width.max(1) as f64;
                let saved = C_PROBE * probe_work as f64 * (1.0 - 1.0 / w);
                let parallel = width > 1 && saved > C_PAR_FIXED;
                let plan = JoinPlan {
                    strategy: if parallel {
                        Strategy::Partitioned
                    } else {
                        Strategy::Hash
                    },
                    build_side: BuildSide::Right,
                    partitions: 0,
                };
                self.cache.lock().unwrap().insert(
                    key,
                    CachedPlan {
                        plan,
                        sel: 0.0,
                        epoch,
                    },
                );
                (plan, false)
            }
        };
        let parallel = width > 1 && plan.strategy == Strategy::Partitioned;
        (
            parallel,
            PlanOutcome {
                picked: plan.strategy,
                cache_hit,
                cache_miss: !cache_hit,
                replanned: false,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::join::{join_glue_pairs, SerialRunner};
    use crate::schema::Schema;
    use wiclean_types::EntityId;

    /// Scoped-thread runner (mirrors the one in `join::tests`).
    struct TestRunner(usize);
    impl BatchRunner for TestRunner {
        fn width(&self) -> usize {
            self.0
        }
        fn run_batch(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
            std::thread::scope(|s| {
                for w in 0..self.0 {
                    let f = &f;
                    s.spawn(move || {
                        let mut i = w;
                        while i < n {
                            f(i);
                            i += self.0;
                        }
                    });
                }
            });
        }
    }

    fn e(x: u32) -> Option<EntityId> {
        Some(EntityId::from_u32(x))
    }

    fn table(cols: Vec<(&str, Vec<Option<EntityId>>)>) -> Table {
        let schema = Schema::new(cols.iter().map(|(n, _)| n.to_string()));
        let rows = cols.first().map_or(0, |(_, v)| v.len());
        let columns = cols
            .into_iter()
            .map(|(_, vals)| {
                let mut c = Column::new();
                for v in vals {
                    c.push(v);
                }
                c
            })
            .collect();
        Table::from_parts(schema, columns, rows)
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// ~1500 × ~900 fixture with duplicate keys and a `≠` column.
    fn fixture() -> (Table, Table, Vec<ColumnGlue>) {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let lrows = 1500;
        let rrows = 900;
        let mut lk = Vec::new();
        let mut lo = Vec::new();
        for _ in 0..lrows {
            lk.push(e((xorshift(&mut rng) % 300) as u32));
            lo.push(e(1000 + (xorshift(&mut rng) % 50) as u32));
        }
        let mut rk = Vec::new();
        let mut rn = Vec::new();
        for _ in 0..rrows {
            rk.push(e((xorshift(&mut rng) % 300) as u32));
            rn.push(e(1000 + (xorshift(&mut rng) % 50) as u32));
        }
        let left = table(vec![("k", lk), ("o", lo)]);
        let right = table(vec![("k", rk), ("n", rn)]);
        let glue = vec![
            ColumnGlue::Glued(0),
            ColumnGlue::New {
                name: "n".into(),
                distinct_from: vec![1],
            },
        ];
        (left, right, glue)
    }

    #[test]
    fn every_forced_plan_is_byte_identical() {
        let (left, right, glue) = fixture();
        let expect = join_glue_pairs(&left, &right, &glue);
        let runner = TestRunner(3);
        for strategy in [
            Strategy::Hash,
            Strategy::SortMerge,
            Strategy::NestedLoop,
            Strategy::Partitioned,
        ] {
            for build_side in [BuildSide::Left, BuildSide::Right] {
                for partitions in [0u32, 2, 8, 64] {
                    let plan = JoinPlan {
                        strategy,
                        build_side,
                        partitions,
                    };
                    let got = join_glue_pairs_planned(&left, &right, &glue, plan, &runner);
                    assert_eq!(got, expect, "plan {plan:?} diverged");
                    let serial = join_glue_pairs_planned(&left, &right, &glue, plan, &SerialRunner);
                    assert_eq!(serial, expect, "plan {plan:?} diverged on SerialRunner");
                }
            }
        }
    }

    #[test]
    fn capped_execution_aborts_every_strategy() {
        let (left, right, glue) = fixture();
        let gp = GluePlan::new(&glue);
        let full = join_glue_pairs(&left, &right, &glue).len();
        let runner = TestRunner(3);
        for strategy in [
            Strategy::Hash,
            Strategy::SortMerge,
            Strategy::NestedLoop,
            Strategy::Partitioned,
        ] {
            for build_side in [BuildSide::Left, BuildSide::Right] {
                let plan = JoinPlan {
                    strategy,
                    build_side,
                    partitions: 0,
                };
                let res = execute(plan, &left, &right, &gp, &runner, Some(full / 10));
                assert!(res.is_err(), "plan {plan:?} ignored its cap");
                let ok = execute(plan, &left, &right, &gp, &runner, Some(full));
                assert_eq!(ok.expect("cap == full size must succeed").len(), full);
            }
        }
    }

    #[test]
    fn cost_model_builds_over_the_larger_side() {
        // Huge left × small right with a small output: a probe costs more
        // than an insert, so the planner builds over the left side and
        // probes with the few right rows, despite the restoring sort…
        let stats = JoinStats {
            left_rows: 400_000,
            right_rows: 800,
            left_distinct: 90_000,
            right_distinct: 600,
            est_pairs: 3_500,
        };
        let plan = choose_plan(&stats, 1);
        assert_eq!(plan.strategy, Strategy::Hash);
        assert_eq!(plan.build_side, BuildSide::Left);
        // …and keeps the right build side in the mirrored shape.
        let mirrored = JoinStats {
            left_rows: 800,
            right_rows: 400_000,
            left_distinct: 600,
            right_distinct: 90_000,
            est_pairs: 3_500,
        };
        let plan = choose_plan(&mirrored, 1);
        assert_eq!(plan.strategy, Strategy::Hash);
        assert_eq!(plan.build_side, BuildSide::Right);

        // Tiny inputs prefer the nested loop (no index setup at all).
        let tiny = JoinStats {
            left_rows: 4,
            right_rows: 4,
            left_distinct: 4,
            right_distinct: 4,
            est_pairs: 4,
        };
        assert_eq!(choose_plan(&tiny, 1).strategy, Strategy::NestedLoop);

        // Big × big on a wide runner goes parallel.
        let big = JoinStats {
            left_rows: 200_000,
            right_rows: 150_000,
            left_distinct: 40_000,
            right_distinct: 40_000,
            est_pairs: 750_000,
        };
        assert_eq!(choose_plan(&big, 8).strategy, Strategy::Partitioned);
        // …but stays serial on one thread.
        assert_ne!(choose_plan(&big, 1).strategy, Strategy::Partitioned);
    }

    #[test]
    fn sampled_stats_bound_distinct_counts() {
        let (left, right, glue) = fixture();
        let gp = GluePlan::new(&glue);
        let stats = sample_join_stats(&left, &right, &gp);
        assert_eq!(stats.left_rows, left.len());
        assert_eq!(stats.right_rows, right.len());
        assert!(stats.left_distinct >= 1 && stats.left_distinct <= left.len());
        assert!(stats.right_distinct >= 1 && stats.right_distinct <= right.len());
        assert!(stats.est_pairs > 0);
    }

    /// A shape engineered so the strided sample sees only distinct keys
    /// while the full join explodes on a hot key aliased away from the
    /// sample stride. Forces an estimate overshoot → mid-join bailout →
    /// replan.
    fn adversarial() -> (Table, Table, Vec<ColumnGlue>) {
        // 1024 rows, 256-row sample → the strided sample visits exactly
        // the rows at multiples of 4, which all carry distinct keys. The
        // other three quarters share one hot key the sample never sees,
        // so both the classic and the cross-sample estimate are blind to
        // the 768×768-pair explosion.
        let rows = 1024;
        let keys = |salt: u32| {
            (0..rows)
                .map(|i| if i % 4 == 0 { e(salt + i as u32) } else { e(7) })
                .collect::<Vec<_>>()
        };
        let left = table(vec![("k", keys(1000))]);
        let right = table(vec![("k", keys(5000))]);
        (left, right, vec![ColumnGlue::Glued(0)])
    }

    #[test]
    fn overshoot_triggers_replan_then_cache_recovers() {
        let (left, right, glue) = adversarial();
        let expect = join_glue_pairs(&left, &right, &glue);
        let planner = Planner::new();
        let settings = PlannerSettings::default();

        let (pairs, outcome) =
            planner.pair_join(&settings, 42, &left, &right, &glue, &SerialRunner);
        assert_eq!(pairs, expect);
        assert!(
            outcome.replanned,
            "engineered overshoot must trigger a re-plan"
        );
        assert!(outcome.cache_miss && !outcome.cache_hit);

        // The replan stored the observed selectivity under the new epoch:
        // the same shape now hits the cache and runs clean.
        let (pairs, outcome) =
            planner.pair_join(&settings, 42, &left, &right, &glue, &SerialRunner);
        assert_eq!(pairs, expect);
        assert!(outcome.cache_hit && !outcome.replanned);

        // Epoch invalidation turns the hit back into a miss.
        planner.invalidate();
        let (_, outcome) = planner.pair_join(&settings, 42, &left, &right, &glue, &SerialRunner);
        assert!(outcome.cache_miss);
    }

    #[test]
    fn forced_settings_bypass_cache_and_budget() {
        let (left, right, glue) = adversarial();
        let expect = join_glue_pairs(&left, &right, &glue);
        let planner = Planner::new();
        let settings = PlannerSettings {
            replan_factor: 1.5,
            forced: Some(JoinPlan {
                strategy: Strategy::SortMerge,
                build_side: BuildSide::Left,
                partitions: 0,
            }),
        };
        let (pairs, outcome) = planner.pair_join(&settings, 7, &left, &right, &glue, &SerialRunner);
        assert_eq!(pairs, expect);
        assert_eq!(outcome.picked, Strategy::SortMerge);
        assert!(!outcome.replanned && !outcome.cache_hit && !outcome.cache_miss);
        assert_eq!(
            planner.cached_shapes(),
            0,
            "forced plans must not pollute the cache"
        );
    }

    #[test]
    fn delta_decision_caches_per_shape() {
        let planner = Planner::new();
        let settings = PlannerSettings::default();
        // Large prefix probe on a wide pool: parallel pays off.
        let (par, o1) =
            planner.delta_join_parallel(&settings, 9, 100_000, 90_000, 5_000, 4_000, 1, 8);
        assert!(par);
        assert!(o1.cache_miss);
        let (par2, o2) =
            planner.delta_join_parallel(&settings, 9, 100_000, 90_000, 5_000, 4_000, 1, 8);
        assert!(par2);
        assert!(o2.cache_hit);
        // Tiny probe work stays serial even on a wide pool.
        let (par3, _) = planner.delta_join_parallel(&settings, 9, 1_000, 900, 50, 40, 1, 8);
        assert!(!par3);
        // Single-thread runner can never go parallel.
        let (par4, _) =
            planner.delta_join_parallel(&settings, 9, 100_000, 90_000, 5_000, 4_000, 1, 1);
        assert!(!par4);
    }
}
