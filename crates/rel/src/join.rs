//! Join operators with *gluing* semantics, late-materialized.
//!
//! Extending a pattern `p` with an abstract action `a` (paper §4.2) joins
//! `realizations[p]` (the left relation, one column per pattern variable)
//! with `realizations[a]` (the right relation, one column per action
//! endpoint). Each right column is either
//!
//! * **glued** onto an existing left column — an equijoin condition on the
//!   corresponding attributes, or
//! * **new** — it extends the output schema, under *inequality* conditions
//!   against the same-type left columns (the paper requires distinct
//!   variables to realize as distinct entities).
//!
//! Every strategy runs in two stages. The *pair* stage
//! ([`join_glue_pairs`], [`join_glue_pairs_sort_merge`],
//! [`join_glue_pairs_nested`], [`join_glue_pairs_partitioned`]) produces
//! the stream of matching `(left row, right row)` index pairs with the
//! `≠`-post-filter applied on column slices; the *materialize* stage
//! ([`materialize_pairs`]) gathers the output columns once at the end.
//! Candidate pruning consumes the pair stream directly
//! ([`distinct_left_values`]) and skips materialization entirely for
//! patterns that fail the frequency threshold. Every hash pair stage
//! indexes its build side with the one flat chained `index::KeyIndex`.
//!
//! The table-in/table-out operators ([`join_glue`], [`join_glue_nested`],
//! [`join_glue_sort_merge`], [`join_glue_partitioned`],
//! [`outer_join_glue`]) are thin compositions of the two stages and keep
//! the exact output row order of the row-oriented seed implementation
//! (retained in [`crate::rowstore`] for differential testing).

use crate::column::NULL_IX;
use crate::hash::EntitySet;
use crate::index::{self, KeyCols, KeyIndex, Slot};
use crate::schema::Schema;
use crate::table::Table;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How one right-hand column participates in a glue join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnGlue {
    /// Equi-joined onto the left column at this index.
    Glued(usize),
    /// Introduces a new output column.
    New {
        /// Output column name (the fresh pattern variable).
        name: String,
        /// Left columns this value must differ from (same-type variables).
        /// Comparisons against nulls are vacuously satisfied.
        distinct_from: Vec<usize>,
    },
}

/// A matched (left row, right row) index pair.
pub type Pair = (u32, u32);

/// Executes index batches on worker threads. Implemented by
/// `core::pool::MiningPool`; defined here so `rel` can parallelize without
/// depending on `core`. `run_batch` must invoke `f(i)` exactly once for
/// every `i < n` (on any thread) and return after all invocations finish.
pub trait BatchRunner: Sync {
    /// Runs `f(0..n)`, blocking until all invocations complete.
    fn run_batch(&self, n: usize, f: &(dyn Fn(usize) + Sync));
    /// Worker count (1 = serial).
    fn width(&self) -> usize;
}

/// A [`BatchRunner`] that runs everything on the caller.
pub struct SerialRunner;

impl BatchRunner for SerialRunner {
    fn run_batch(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            f(i);
        }
    }
    fn width(&self) -> usize {
        1
    }
}

/// A pair-stage run exceeded its output budget: the partial work was
/// discarded and the payload is the (approximate) pair count observed at
/// the abort — at least one past the budget, an underestimate of the true
/// output cardinality. See [`crate::plan`] for the re-planning loop that
/// consumes this.
pub(crate) type Overflow = usize;

/// The pairs of a pair-stage run given no budget.
pub(crate) fn uncapped(run: Result<Vec<Pair>, Overflow>) -> Vec<Pair> {
    run.unwrap_or_else(|_| unreachable!("uncapped join cannot overflow"))
}

fn output_schema(left: &Table, glue: &[ColumnGlue]) -> Schema {
    let mut schema = left.schema().clone();
    for g in glue {
        if let ColumnGlue::New { name, .. } = g {
            schema.push(name.clone());
        }
    }
    schema
}

pub(crate) fn validate(left: &Table, right: &Table, glue: &[ColumnGlue]) {
    assert_eq!(
        glue.len(),
        right.width(),
        "glue spec arity must match right table width"
    );
    for g in glue {
        match g {
            ColumnGlue::Glued(i) => assert!(*i < left.width(), "glued column out of range"),
            ColumnGlue::New { distinct_from, .. } => {
                for i in distinct_from {
                    assert!(*i < left.width(), "distinct_from column out of range");
                }
            }
        }
    }
}

/// The glue spec resolved to column indices: equi-join pairs in glue
/// order, and new output columns with their `≠` constraint targets.
pub(crate) struct GluePlan {
    /// (left column, right column) per `Glued` entry, in glue order.
    pub(crate) glued: Vec<(usize, usize)>,
    /// (right column, distinct-from left columns) per `New` entry, in
    /// glue order.
    new_cols: Vec<(usize, Vec<usize>)>,
}

impl GluePlan {
    pub(crate) fn new(glue: &[ColumnGlue]) -> Self {
        let mut glued = Vec::new();
        let mut new_cols = Vec::new();
        for (j, g) in glue.iter().enumerate() {
            match g {
                ColumnGlue::Glued(i) => glued.push((*i, j)),
                ColumnGlue::New { distinct_from, .. } => {
                    new_cols.push((j, distinct_from.clone()));
                }
            }
        }
        Self { glued, new_cols }
    }

    /// The left side's glued key columns.
    pub(crate) fn left_keys<'a>(&self, left: &'a Table) -> KeyCols<'a> {
        KeyCols(self.glued.iter().map(|&(lc, _)| left.col(lc)).collect())
    }

    /// The right side's glued key columns.
    pub(crate) fn right_keys<'a>(&self, right: &'a Table) -> KeyCols<'a> {
        KeyCols(self.glued.iter().map(|&(_, rc)| right.col(rc)).collect())
    }

    /// The `≠` post-filter on a key-matched pair. SQL three-valued logic:
    /// `≠` against a null is vacuously satisfied.
    pub(crate) fn neq_ok(&self, left: &Table, li: usize, right: &Table, ri: usize) -> bool {
        for (rc, distinct_from) in &self.new_cols {
            let rcol = right.col(*rc);
            if !rcol.is_valid(ri) {
                continue;
            }
            let b = rcol.value_unchecked(ri);
            for &lc in distinct_from {
                let lcol = left.col(lc);
                if lcol.is_valid(li) && lcol.value_unchecked(li) == b {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the pair satisfies all glue conditions (equi + `≠`); used
    /// by the nested-loop strategy, which has no key index. A null never
    /// equi-matches.
    pub(crate) fn pair_matches(&self, left: &Table, li: usize, right: &Table, ri: usize) -> bool {
        for &(lc, rc) in &self.glued {
            let (l, r) = (left.col(lc), right.col(rc));
            if !l.is_valid(li) || !r.is_valid(ri) || l.value_unchecked(li) != r.value_unchecked(ri)
            {
                return false;
            }
        }
        self.neq_ok(left, li, right, ri)
    }
}

/// Hash equijoin pair stage: builds a hash index over the right relation
/// keyed by its glued columns, probes with the left relation in row order,
/// and applies the `≠` post-filter. Pairs come out in (left row, right
/// build order) order — the canonical order every strategy reproduces.
pub fn join_glue_pairs(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    hash_pairs(left, right, &plan)
}

pub(crate) fn hash_pairs(left: &Table, right: &Table, plan: &GluePlan) -> Vec<Pair> {
    uncapped(hash_pairs_capped(
        left,
        right,
        plan,
        &SerialRunner,
        1,
        false,
        None,
    ))
}

/// Sort–merge pair stage: both relations are decorated with their glued
/// keys and sorted, and matching key groups are cross-checked. The pair
/// stream is then reordered to the canonical hash-join order so all
/// strategies materialize identical tables.
pub fn join_glue_pairs_sort_merge(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    uncapped(sort_merge_pairs_capped(left, right, &plan, None))
}

pub(crate) fn sort_merge_pairs_capped(
    left: &Table,
    right: &Table,
    plan: &GluePlan,
    cap: Option<usize>,
) -> Result<Vec<Pair>, Overflow> {
    // Each side's keyed rows, stably sorted by key (row order within a key).
    let sorted = |keys: &KeyCols, n: usize| {
        let mut rows: Vec<u32> = (0..n as u32)
            .filter(|&i| keys.hash(i as usize).is_some())
            .collect();
        rows.sort_by(|&a, &b| keys.cmp(a as usize, keys, b as usize));
        rows
    };
    let (lk, rk) = (plan.left_keys(left), plan.right_keys(right));
    let (lrows, rrows) = (sorted(&lk, left.len()), sorted(&rk, right.len()));

    let cap = cap.unwrap_or(usize::MAX);
    let mut pairs = Vec::new();
    let (mut li, mut ri) = (0usize, 0usize);
    while li < lrows.len() && ri < rrows.len() {
        let (l0, r0) = (lrows[li] as usize, rrows[ri] as usize);
        match lk.cmp(l0, &rk, r0) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => ri += 1,
            std::cmp::Ordering::Equal => {
                // Delimit the equal-key groups on both sides.
                let lhi =
                    lrows[li..].partition_point(|&l| lk.cmp(l as usize, &rk, r0).is_eq()) + li;
                let rhi =
                    rrows[ri..].partition_point(|&r| rk.cmp(r as usize, &lk, l0).is_eq()) + ri;
                for &l_ix in &lrows[li..lhi] {
                    for &r_ix in &rrows[ri..rhi] {
                        if plan.neq_ok(left, l_ix as usize, right, r_ix as usize) {
                            pairs.push((l_ix, r_ix));
                        }
                    }
                }
                if pairs.len() > cap {
                    return Err(pairs.len());
                }
                li = lhi;
                ri = rhi;
            }
        }
    }
    // Canonical order: left row, then right row. Within one key group the
    // right side is already ascending, but left rows sharing a key arrive
    // grouped by the sort, not by row number.
    pairs.sort_unstable();
    Ok(pairs)
}

/// Nested-loop pair stage over the cross product — the paper's `PM−join`
/// baseline. Already emits the canonical (left, right) order.
pub fn join_glue_pairs_nested(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    uncapped(nested_pairs_capped(left, right, &plan, None))
}

pub(crate) fn nested_pairs_capped(
    left: &Table,
    right: &Table,
    plan: &GluePlan,
    cap: Option<usize>,
) -> Result<Vec<Pair>, Overflow> {
    let cap = cap.unwrap_or(usize::MAX);
    let mut pairs = Vec::new();
    for li in 0..left.len() {
        for ri in 0..right.len() {
            if plan.pair_matches(left, li, right, ri) {
                pairs.push((li as u32, ri as u32));
            }
        }
        if pairs.len() > cap {
            return Err(pairs.len());
        }
    }
    Ok(pairs)
}

/// Inputs smaller than this on the probe side are not worth fanning out.
/// With the adaptive planner enabled (the default) these two constants are
/// superseded by its cost model; they remain the fixed-heuristic gate of
/// [`join_glue_pairs_partitioned`] — the planner-off fallback.
pub(crate) const PARALLEL_MIN_LEFT: usize = 4096;
/// Build sides smaller than this are not worth partitioning.
pub(crate) const PARALLEL_MIN_RIGHT: usize = 512;

/// Radix-partitioned parallel hash join pair stage.
///
/// The build side is split into partitions by the high bits of a
/// deterministic key hash; partition indexes are built as one batch on the
/// runner, then contiguous probe-side chunks are probed as a second batch
/// and their pair streams concatenated in chunk order. Partition
/// assignment, per-bucket order, and chunk concatenation are all
/// independent of the worker count, so the result is **byte-identical** to
/// [`join_glue_pairs`] at any `width()` — the same determinism contract
/// the mining pool established. Small inputs fall back to the serial
/// strategy.
pub fn join_glue_pairs_partitioned(
    left: &Table,
    right: &Table,
    glue: &[ColumnGlue],
    runner: &dyn BatchRunner,
) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    if runner.width() <= 1 || left.len() < PARALLEL_MIN_LEFT || right.len() < PARALLEL_MIN_RIGHT {
        return hash_pairs(left, right, &plan);
    }
    let parts = default_partitions(runner);
    uncapped(hash_pairs_capped(
        left, right, &plan, runner, parts, false, None,
    ))
}

/// Runs `f` over `0..n` on the runner and collects results in index order.
pub(crate) fn par_map<R: Send>(
    runner: &dyn BatchRunner,
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    runner.run_batch(n, &|i| {
        let r = f(i);
        *slots[i].lock().unwrap() = Some(r);
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("batch task did not run"))
        .collect()
}

/// The fixed-heuristic radix fanout: twice the runner width, a power of
/// two. The adaptive planner may choose any other power of two in `2..=64`.
pub(crate) fn default_partitions(runner: &dyn BatchRunner) -> usize {
    (runner.width() * 2).next_power_of_two().clamp(2, 64)
}

/// The hash pair stage with a selectable build side, radix partition
/// count, and output budget — every hash strategy runs through it.
///
/// `parts` is a power of two up to 64. With one partition the build side
/// gets one index and the probe side is scanned serially on the caller:
/// the serial hash join. With more, the build side is scattered by the
/// high bits of its key hash, partition indexes build as one batch on the
/// runner, and contiguous probe chunks probe as a second batch.
///
/// With `build_left = false` (the classic shape) the right side is
/// indexed and the left side probes, so pairs come out in canonical
/// (left row, right row) order directly. With `build_left = true` the
/// roles swap — the planner's choice when the left side dwarfs the right:
/// probing emits right-major pairs, and one final `sort_unstable`
/// restores the canonical order — the pair set is identical and pairs are
/// distinct, so the sorted stream is byte-identical to the build-right
/// stream.
///
/// `cap` is the re-planning budget (see [`probe_chunks`]); `Ok` results
/// are byte-identical to the uncapped run.
pub(crate) fn hash_pairs_capped(
    left: &Table,
    right: &Table,
    plan: &GluePlan,
    runner: &dyn BatchRunner,
    parts: usize,
    build_left: bool,
    cap: Option<usize>,
) -> Result<Vec<Pair>, Overflow> {
    assert!(
        parts.is_power_of_two() && parts <= 64,
        "partition count must be a power of two up to 64"
    );
    let shift = 64 - parts.trailing_zeros();
    let part = |h: u64| h.checked_shr(shift).unwrap_or(0) as usize;
    let (lkeys, rkeys) = (plan.left_keys(left), plan.right_keys(right));
    let (bkeys, pkeys, build_len, probe_len) = if build_left {
        (lkeys, rkeys, left.len(), right.len())
    } else {
        (rkeys, lkeys, right.len(), left.len())
    };

    let indexes: Vec<KeyIndex> = if parts == 1 {
        vec![KeyIndex::build(bkeys, 0..build_len)]
    } else {
        // Scatter the build side by radix partition, row order preserved
        // within each partition (so each partition's chains come out
        // ascending, exactly as the serial build produces them), then
        // chain one index per partition as a pool batch.
        let scattered: Vec<Mutex<Vec<Slot>>> = index::scatter(&bkeys, 0..build_len, parts, part)
            .into_iter()
            .map(Mutex::new)
            .collect();
        par_map(runner, parts, |p| {
            let slots = std::mem::take(&mut *scattered[p].lock().unwrap());
            KeyIndex::chain(bkeys.clone(), slots)
        })
    };

    // Probe the probe side: serially, or in contiguous parallel chunks.
    let mut pairs = probe_chunks(runner, 0..probe_len, parts > 1, cap, |pi, pairs| {
        let Some(h) = pkeys.hash(pi) else {
            return;
        };
        indexes[part(h)].probe_hashed(h, &pkeys, pi, |bi| {
            let (li, ri) = if build_left {
                (bi, pi as u32)
            } else {
                (pi as u32, bi)
            };
            if plan.neq_ok(left, li as usize, right, ri as usize) {
                pairs.push((li, ri));
            }
        });
    })?;
    if build_left {
        // Right-major emission within each chunk; restore canonical order.
        pairs.sort_unstable();
    }
    Ok(pairs)
}

/// Runs `probe_one(row, out)` over the probe rows `range` in row order: as
/// one serial scan, or — when `parallel` — as contiguous chunks on the
/// runner whose outputs concatenate in chunk order, restoring the serial
/// order.
///
/// `cap` is the re-planning budget. A serial scan checks its own output
/// after every row; parallel chunks publish their emitted pair counts to a
/// shared counter every 256 pairs and cooperatively abort once the total
/// exceeds it. Either returns `Err` with the count observed at the abort —
/// exact when serial, approximate otherwise. The counter never alters what is emitted, only whether the
/// run completes, so the success path is byte-identical to the uncapped
/// run.
fn probe_chunks(
    runner: &dyn BatchRunner,
    range: std::ops::Range<usize>,
    parallel: bool,
    cap: Option<usize>,
    probe_one: impl Fn(usize, &mut Vec<Pair>) + Sync,
) -> Result<Vec<Pair>, Overflow> {
    let cap_val = cap.unwrap_or(usize::MAX);
    let emitted = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    // Adds `n` newly emitted pairs to the shared count; true once over.
    let publish = |n: usize| {
        let over = emitted.fetch_add(n, Ordering::Relaxed) + n > cap_val;
        if over {
            aborted.store(true, Ordering::Relaxed);
        }
        over
    };
    let n = range.len();
    let tasks = if parallel {
        (runner.width() * 4).clamp(1, n.max(1))
    } else {
        1
    };
    let chunk = n.div_ceil(tasks).max(1);
    let shared = cap.is_some() && tasks > 1;
    let run_chunk = |t: usize| {
        let lo = range.start + t * chunk;
        let hi = (lo + chunk).min(range.end);
        let mut pairs = Vec::new();
        let mut published = 0usize;
        for pi in lo..hi {
            if shared && pi % 64 == 0 && aborted.load(Ordering::Relaxed) {
                return pairs;
            }
            probe_one(pi, &mut pairs);
            if !shared && pairs.len() > cap_val {
                return pairs;
            }
            if shared && pairs.len() - published >= 256 {
                let over = publish(pairs.len() - published);
                published = pairs.len();
                if over {
                    return pairs;
                }
            }
        }
        if shared {
            publish(pairs.len() - published);
        }
        pairs
    };
    let mut chunk_pairs = if tasks == 1 {
        vec![run_chunk(0)]
    } else {
        par_map(runner, tasks, run_chunk)
    };
    let total: usize = chunk_pairs.iter().map(Vec::len).sum();
    if aborted.load(Ordering::Relaxed) || total > cap_val {
        return Err(total.max(emitted.load(Ordering::Relaxed)));
    }
    Ok(match chunk_pairs.len() {
        1 => chunk_pairs.pop().expect("one chunk"),
        _ => chunk_pairs.concat(),
    })
}

/// Delta-aware pair stage for append-only growth (the streaming miner).
///
/// Both inputs are **prefix-stable**: `left` rows below `left_old` and
/// `right` rows below `right_old` are exactly the rows a previous join
/// saw, and rows at or beyond those marks have been appended since. Emits
/// exactly the pairs of the full join that touch at least one appended
/// row — `join_glue_pairs(left, right, glue)` minus the pairs of the
/// prefix-only join — in canonical (left row, right row) order. The old
/// pair stream plus this delta is therefore the full pair stream as a
/// set, letting callers extend support sets and materialized tables
/// without re-joining the prefix.
///
/// The deltas are the build sides: part one indexes `Δright` and probes
/// the stable left prefix in row order (canonical order falls out); part
/// two indexes `Δleft` and probes the entire right side, then sorts its
/// small tail back to canonical order. The two parts cover disjoint
/// left-row ranges, so the concatenation is globally ordered.
pub fn join_glue_pairs_delta(
    left: &Table,
    left_old: usize,
    right: &Table,
    right_old: usize,
    glue: &[ColumnGlue],
) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    delta_pairs(left, left_old, right, right_old, &plan, &SerialRunner)
}

/// [`join_glue_pairs_delta`] with the probe sides chunked across a
/// [`BatchRunner`]; byte-identical to the serial variant at any
/// `width()` (chunk concatenation restores probe order, and part two is
/// sorted regardless).
pub fn join_glue_pairs_delta_partitioned(
    left: &Table,
    left_old: usize,
    right: &Table,
    right_old: usize,
    glue: &[ColumnGlue],
    runner: &dyn BatchRunner,
) -> Vec<Pair> {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    delta_pairs(left, left_old, right, right_old, &plan, runner)
}

fn delta_pairs(
    left: &Table,
    left_old: usize,
    right: &Table,
    right_old: usize,
    plan: &GluePlan,
    runner: &dyn BatchRunner,
) -> Vec<Pair> {
    assert!(left_old <= left.len(), "left_old beyond left length");
    assert!(right_old <= right.len(), "right_old beyond right length");

    // Part one: stable left prefix × appended right rows. The delta is
    // the build side; chains are ascending and the prefix probes in row
    // order, so pairs come out canonical. An empty build side can't match
    // anything — skip the probe scan entirely (the common one-sided-growth
    // case pays for one part only).
    let (lkeys, rkeys) = (plan.left_keys(left), plan.right_keys(right));
    let index = KeyIndex::build(rkeys.clone(), right_old..right.len());
    let mut pairs = probe_range(runner, &index, &lkeys, 0..left_old, |li, ri| {
        plan.neq_ok(left, li as usize, right, ri as usize)
            .then_some((li, ri))
    });

    // Part two: appended left rows × the full right side. Probing by
    // right row emits (right, left) order; the tail is small, so sort it
    // back to canonical and append — its left rows all sit at or past
    // `left_old`, keeping the concatenation globally ordered.
    let index = KeyIndex::build(lkeys, left_old..left.len());
    let mut tail = probe_range(runner, &index, &rkeys, 0..right.len(), |ri, li| {
        plan.neq_ok(left, li as usize, right, ri as usize)
            .then_some((li, ri))
    });
    tail.sort_unstable();
    pairs.append(&mut tail);
    pairs
}

/// Probes rows `range` of the probe side against `index` in row order
/// (chunk-parallel when the range is large). `emit(probe row, build row)`
/// maps a key match to its pair, or `None` if the `≠` filter rejects it.
fn probe_range(
    runner: &dyn BatchRunner,
    index: &KeyIndex,
    probe: &KeyCols,
    range: std::ops::Range<usize>,
    emit: impl Fn(u32, u32) -> Option<Pair> + Sync,
) -> Vec<Pair> {
    if index.is_empty() {
        return Vec::new();
    }
    let parallel = runner.width() > 1 && range.len() >= PARALLEL_MIN_LEFT;
    uncapped(probe_chunks(runner, range, parallel, None, |pi, pairs| {
        index.probe(probe, pi, |bi| pairs.extend(emit(pi as u32, bi)));
    }))
}

/// Materialize stage: gathers the output columns of a pair stream once —
/// every left column by the left indices, every `New` right column by the
/// right indices.
pub fn materialize_pairs(
    left: &Table,
    right: &Table,
    glue: &[ColumnGlue],
    pairs: &[Pair],
) -> Table {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);
    let lidx: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let ridx: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let mut cols = Vec::with_capacity(left.width() + plan.new_cols.len());
    for c in 0..left.width() {
        cols.push(left.col(c).gather(&lidx));
    }
    for (rc, _) in &plan.new_cols {
        cols.push(right.col(*rc).gather(&ridx));
    }
    Table::from_parts(output_schema(left, glue), cols, pairs.len())
}

/// Distinct non-null values of `left[col]` over a pair stream — the
/// semi-join side of the frequency fast path: candidate support is counted
/// from the matched pairs without materializing the joined table.
pub fn distinct_left_values(left: &Table, col: usize, pairs: &[Pair]) -> EntitySet {
    let c = left.col(col);
    let mut set = EntitySet::default();
    for &(li, _) in pairs {
        if let Some(v) = c.get(li as usize) {
            set.insert(v);
        }
    }
    set
}

/// Hash equijoin with gluing semantics (pairs + materialize).
///
/// ```
/// use wiclean_rel::{join_glue, ColumnGlue, Schema, Table};
/// use wiclean_types::EntityId;
///
/// let v = |i| Some(EntityId::from_u32(i));
/// let players = Table::from_rows(Schema::new(["player", "old"]), [vec![v(1), v(10)]]);
/// let joins = Table::from_rows(Schema::new(["player", "new"]), [vec![v(1), v(11)]]);
/// let glue = [
///     ColumnGlue::Glued(0), // same player
///     ColumnGlue::New { name: "new".into(), distinct_from: vec![1] }, // new ≠ old
/// ];
/// let out = join_glue(&players, &joins, &glue);
/// assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10), v(11)]]);
/// ```
pub fn join_glue(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    let pairs = join_glue_pairs(left, right, glue);
    materialize_pairs(left, right, glue, &pairs)
}

/// The same operator computed by sort–merge; semantically identical
/// (property-tested).
pub fn join_glue_sort_merge(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    let pairs = join_glue_pairs_sort_merge(left, right, glue);
    materialize_pairs(left, right, glue, &pairs)
}

/// The same operator computed by a conventional main-memory nested loop
/// over the cross product — the paper's `PM−join` baseline. Semantically
/// identical to [`join_glue`] (property-tested), asymptotically slower.
pub fn join_glue_nested(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    let pairs = join_glue_pairs_nested(left, right, glue);
    materialize_pairs(left, right, glue, &pairs)
}

/// The same operator computed by the radix-partitioned parallel hash join;
/// byte-identical to [`join_glue`] at any worker count.
pub fn join_glue_partitioned(
    left: &Table,
    right: &Table,
    glue: &[ColumnGlue],
    runner: &dyn BatchRunner,
) -> Table {
    let pairs = join_glue_pairs_partitioned(left, right, glue, runner);
    materialize_pairs(left, right, glue, &pairs)
}

/// Full outer join with gluing semantics (Algorithm 3).
///
/// Output rows:
/// * matched pairs — as in [`join_glue`];
/// * unmatched **left** rows — retained, new columns padded with nulls
///   (a partial pattern realization missing the new action);
/// * unmatched **right** rows — retained, with glued output columns taking
///   the right values and all remaining left columns null (an action
///   realization with no surrounding pattern).
///
/// Late-materialized like the inner joins: the pair stream uses
/// [`NULL_IX`] for the missing side and the gather stage resolves glued
/// columns from whichever side is present.
pub fn outer_join_glue(left: &Table, right: &Table, glue: &[ColumnGlue]) -> Table {
    validate(left, right, glue);
    let plan = GluePlan::new(glue);

    let lkeys = plan.left_keys(left);
    let index = KeyIndex::build(plan.right_keys(right), 0..right.len());
    let mut right_matched = vec![false; right.len()];
    let mut pairs: Vec<Pair> = Vec::new();
    for li in 0..left.len() {
        let mut l_matched = false;
        index.probe(&lkeys, li, |ri| {
            if plan.neq_ok(left, li, right, ri as usize) {
                pairs.push((li as u32, ri));
                l_matched = true;
                right_matched[ri as usize] = true;
            }
        });
        if !l_matched {
            pairs.push((li as u32, NULL_IX));
        }
    }
    for (ri, matched) in right_matched.iter().enumerate() {
        if !matched {
            pairs.push((NULL_IX, ri as u32));
        }
    }

    // Gather. Left columns take the left value when present; a glued left
    // column falls back to its right counterpart on right-only rows (the
    // last glue entry wins when several right columns glue onto one left
    // column, matching the row-at-a-time reference).
    let lidx: Vec<u32> = pairs.iter().map(|&(li, _)| li).collect();
    let ridx: Vec<u32> = pairs.iter().map(|&(_, ri)| ri).collect();
    let mut cols = Vec::with_capacity(left.width() + plan.new_cols.len());
    for c in 0..left.width() {
        let glued_rc = plan
            .glued
            .iter()
            .rev()
            .find(|&&(lc, _)| lc == c)
            .map(|&(_, rc)| rc);
        match glued_rc {
            None => cols.push(left.col(c).gather(&lidx)),
            Some(rc) => {
                let mut col = crate::column::Column::with_capacity(pairs.len());
                let (lcol, rcol) = (left.col(c), right.col(rc));
                for &(li, ri) in &pairs {
                    if li != NULL_IX {
                        col.push(lcol.get(li as usize));
                    } else {
                        col.push(rcol.get(ri as usize));
                    }
                }
                cols.push(col);
            }
        }
    }
    for (rc, _) in &plan.new_cols {
        cols.push(right.col(*rc).gather(&ridx));
    }
    Table::from_parts(output_schema(left, glue), cols, pairs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use wiclean_types::EntityId;

    fn v(i: u32) -> Value {
        Some(EntityId::from_u32(i))
    }

    /// realizations[p]: pattern {−(player, club, team)} with columns
    /// [player, old_team].
    fn left_table() -> Table {
        Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![v(1), v(10)], vec![v(2), v(20)], vec![v(3), v(10)]],
        )
    }

    /// realizations[a]: action {+(player, club, team)} with columns
    /// [player, new_team].
    fn right_table() -> Table {
        Table::from_rows(
            Schema::new(["player", "new_team"]),
            [
                vec![v(1), v(11)],
                vec![v(2), v(20)], // same team as old → violates ≠
                vec![v(9), v(30)], // no matching player
            ],
        )
    }

    fn glue() -> Vec<ColumnGlue> {
        vec![
            ColumnGlue::Glued(0),
            ColumnGlue::New {
                name: "new_team".into(),
                distinct_from: vec![1],
            },
        ]
    }

    #[test]
    fn hash_join_glues_and_filters() {
        let out = join_glue(&left_table(), &right_table(), &glue());
        assert_eq!(out.schema().names(), &["player", "old_team", "new_team"]);
        // Player 1: old 10 → new 11 (kept). Player 2: 20 → 20 (≠ fails).
        assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10), v(11)]]);
    }

    #[test]
    fn nested_loop_agrees_with_hash() {
        let h = join_glue(&left_table(), &right_table(), &glue());
        let n = join_glue_nested(&left_table(), &right_table(), &glue());
        assert_eq!(h.sorted_rows(), n.sorted_rows());
    }

    #[test]
    fn sort_merge_agrees_with_hash() {
        let h = join_glue(&left_table(), &right_table(), &glue());
        let m = join_glue_sort_merge(&left_table(), &right_table(), &glue());
        assert_eq!(h.sorted_rows(), m.sorted_rows());
    }

    #[test]
    fn sort_merge_handles_duplicate_keys() {
        let left = Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![v(1), v(10)], vec![v(1), v(20)], vec![v(2), v(30)]],
        );
        let right = Table::from_rows(
            Schema::new(["player", "new_team"]),
            [vec![v(1), v(11)], vec![v(1), v(12)]],
        );
        let h = join_glue(&left, &right, &glue());
        let m = join_glue_sort_merge(&left, &right, &glue());
        assert_eq!(h.sorted_rows(), m.sorted_rows());
        assert_eq!(m.len(), 4, "2 left × 2 right key-1 rows");
    }

    #[test]
    fn sort_merge_skips_null_keys() {
        let left = Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![None, v(10)], vec![v(1), v(10)]],
        );
        let m = join_glue_sort_merge(&left, &right_table(), &glue());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn pair_stages_agree_exactly() {
        // The pair streams (not just the materialized sets) must coincide:
        // the miner's fast path counts support off the raw stream.
        let (l, r, g) = (left_table(), right_table(), glue());
        let h = join_glue_pairs(&l, &r, &g);
        assert_eq!(h, join_glue_pairs_sort_merge(&l, &r, &g));
        assert_eq!(h, join_glue_pairs_nested(&l, &r, &g));
        assert_eq!(h, join_glue_pairs_partitioned(&l, &r, &g, &SerialRunner));
    }

    #[test]
    fn glue_all_columns_is_semijoin_shape() {
        // Gluing both right columns onto left columns keeps only matching
        // left rows, unextended.
        let right = Table::from_rows(
            Schema::new(["p", "t"]),
            [vec![v(1), v(10)], vec![v(2), v(99)]],
        );
        let out = join_glue(
            &left_table(),
            &right,
            &[ColumnGlue::Glued(0), ColumnGlue::Glued(1)],
        );
        assert_eq!(out.schema().width(), 2);
        assert_eq!(out.sorted_rows(), vec![vec![v(1), v(10)]]);
    }

    #[test]
    fn null_left_key_never_matches() {
        let left = Table::from_rows(
            Schema::new(["player", "old_team"]),
            [vec![None, v(10)], vec![v(1), v(10)]],
        );
        let out = join_glue(&left, &right_table(), &glue());
        assert_eq!(out.len(), 1, "null player cannot equi-match");
    }

    #[test]
    fn neq_against_null_is_vacuous() {
        let left = Table::from_rows(Schema::new(["player", "old_team"]), [vec![v(2), None]]);
        // Right: player 2, new team 20. old_team is null → ≠ passes.
        let out = join_glue(&left, &right_table(), &glue());
        assert_eq!(out.sorted_rows(), vec![vec![v(2), None, v(20)]]);
    }

    #[test]
    fn outer_join_retains_unmatched_left() {
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let rows = out.sorted_rows();
        // Matched: (1, 10, 11).
        assert!(rows.contains(&vec![v(1), v(10), v(11)]));
        // Unmatched left: players 2 (≠ failed) and 3 (no right row).
        assert!(rows.contains(&vec![v(2), v(20), None]));
        assert!(rows.contains(&vec![v(3), v(10), None]));
        // Unmatched right: player 9's action, no surrounding pattern, and
        // player 2's action (the ≠-failing pair leaves both sides
        // unmatched, as in SQL).
        assert!(rows.contains(&vec![v(9), None, v(30)]));
        assert!(rows.contains(&vec![v(2), None, v(20)]));
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn outer_join_null_rows_are_detectable() {
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let partial = out.rows_with_null();
        assert_eq!(partial.len(), 4);
    }

    #[test]
    fn outer_join_on_empty_right_pads_all_left() {
        let right = Table::new(Schema::new(["player", "new_team"]));
        let out = outer_join_glue(&left_table(), &right, &glue());
        assert_eq!(out.len(), 3);
        assert!(out.rows().all(|r| r[2].is_none()));
    }

    #[test]
    fn outer_join_on_empty_left_pads_all_right() {
        let left = Table::new(Schema::new(["player", "old_team"]));
        let out = outer_join_glue(&left, &right_table(), &glue());
        assert_eq!(out.len(), 3);
        assert!(out.rows().all(|r| r[1].is_none()));
        // Glued column carries the right value.
        assert!(out.rows().all(|r| r[0].is_some()));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn glue_arity_checked() {
        join_glue(&left_table(), &right_table(), &[ColumnGlue::Glued(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn glue_bounds_checked() {
        join_glue(
            &left_table(),
            &right_table(),
            &[
                ColumnGlue::Glued(7),
                ColumnGlue::New {
                    name: "x".into(),
                    distinct_from: vec![],
                },
            ],
        );
    }

    #[test]
    fn multiple_matches_fan_out() {
        let left = Table::from_rows(Schema::new(["player", "old_team"]), [vec![v(1), v(10)]]);
        let right = Table::from_rows(
            Schema::new(["player", "new_team"]),
            [vec![v(1), v(11)], vec![v(1), v(12)]],
        );
        let out = join_glue(&left, &right, &glue());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn outer_join_cardinality_survives_empty_projection() {
        // COUNT(*) over a join result must not collapse when projecting away
        // every column (the zero-width Table regression).
        let out = outer_join_glue(&left_table(), &right_table(), &glue());
        let counted = out.project(&[]);
        assert_eq!(counted.width(), 0);
        assert_eq!(counted.len(), out.len());
        assert_eq!(counted.rows().count(), out.len());
    }

    #[test]
    fn distinct_left_values_matches_materialized_support() {
        let (l, r, g) = (left_table(), right_table(), glue());
        let pairs = join_glue_pairs(&l, &r, &g);
        let fast = distinct_left_values(&l, 0, &pairs);
        let mut full = materialize_pairs(&l, &r, &g, &pairs);
        full.dedup();
        assert_eq!(fast, full.distinct_values(0));
    }

    /// A thread-per-task runner for exercising the partitioned join with
    /// real concurrency (core's MiningPool is not visible from here).
    struct TestRunner(usize);

    impl BatchRunner for TestRunner {
        fn width(&self) -> usize {
            self.0
        }
        fn run_batch(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..self.0.min(n).max(1) {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n {
                            break;
                        }
                        f(i);
                    });
                }
            });
        }
    }

    /// Pseudo-random tables big enough to clear the parallel gate.
    fn big_tables() -> (Table, Table) {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(m)) as u32
        };
        let mut left = Table::new(Schema::new(["player", "old_team"]));
        for _ in 0..PARALLEL_MIN_LEFT + 500 {
            left.push_row(&[v(next(1500)), v(next(40))]);
        }
        let mut right = Table::new(Schema::new(["player", "new_team"]));
        for _ in 0..PARALLEL_MIN_RIGHT + 700 {
            right.push_row(&[v(next(1500)), v(next(40))]);
        }
        (left, right)
    }

    #[test]
    fn partitioned_join_is_byte_identical_across_widths() {
        let (left, right) = big_tables();
        let g = glue();
        let serial = join_glue_pairs(&left, &right, &g);
        assert!(!serial.is_empty(), "workload must produce matches");
        for width in [2, 3, 8] {
            let par = join_glue_pairs_partitioned(&left, &right, &g, &TestRunner(width));
            assert_eq!(serial, par, "width {width} diverged");
        }
        let t_serial = join_glue(&left, &right, &g);
        let t_par = join_glue_partitioned(&left, &right, &g, &TestRunner(8));
        assert_eq!(t_serial, t_par, "materialized tables must be identical");
    }

    #[test]
    fn partitioned_join_small_input_falls_back() {
        let g = glue();
        let par = join_glue_pairs_partitioned(&left_table(), &right_table(), &g, &TestRunner(8));
        assert_eq!(par, join_glue_pairs(&left_table(), &right_table(), &g));
    }

    /// The full pair stream restricted to pairs touching an appended row
    /// — the delta-join contract, derivable because `join_glue_pairs` is
    /// canonically ordered.
    fn expected_delta(full: &[Pair], left_old: usize, right_old: usize) -> Vec<Pair> {
        full.iter()
            .copied()
            .filter(|&(li, ri)| li as usize >= left_old || ri as usize >= right_old)
            .collect()
    }

    #[test]
    fn delta_join_equals_full_minus_prefix() {
        let (left, right) = big_tables();
        let g = glue();
        let full = join_glue_pairs(&left, &right, &g);
        assert!(!full.is_empty());
        for (left_old, right_old) in [
            (0, 0),
            (left.len(), right.len()),
            (left.len() / 2, right.len() / 2),
            (left.len() - 1, right.len()),
            (left.len(), right.len() - 3),
            (17, right.len() - 17),
        ] {
            let delta = join_glue_pairs_delta(&left, left_old, &right, right_old, &g);
            assert_eq!(
                delta,
                expected_delta(&full, left_old, right_old),
                "prefix ({left_old}, {right_old}) diverged"
            );
        }
    }

    #[test]
    fn delta_join_empty_deltas_emit_nothing() {
        let (l, r, g) = (left_table(), right_table(), glue());
        let delta = join_glue_pairs_delta(&l, l.len(), &r, r.len(), &g);
        assert!(delta.is_empty());
    }

    #[test]
    fn delta_join_zero_prefix_is_full_join() {
        let (l, r, g) = (left_table(), right_table(), glue());
        assert_eq!(
            join_glue_pairs_delta(&l, 0, &r, 0, &g),
            join_glue_pairs(&l, &r, &g)
        );
    }

    #[test]
    fn delta_join_partitioned_is_byte_identical_across_widths() {
        let (left, right) = big_tables();
        let g = glue();
        let (left_old, right_old) = (left.len() / 3, right.len() / 3);
        let serial = join_glue_pairs_delta(&left, left_old, &right, right_old, &g);
        assert!(!serial.is_empty());
        for width in [2, 3, 8] {
            let par = join_glue_pairs_delta_partitioned(
                &left,
                left_old,
                &right,
                right_old,
                &g,
                &TestRunner(width),
            );
            assert_eq!(serial, par, "width {width} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "left_old beyond")]
    fn delta_join_prefix_bounds_checked() {
        let (l, r, g) = (left_table(), right_table(), glue());
        join_glue_pairs_delta(&l, l.len() + 1, &r, 0, &g);
    }
}
