//! A small in-memory relational engine — WiClean's query substrate.
//!
//! The paper implements pattern realizations as relational tables and
//! computes pattern extension, frequency, and partial-update detection with
//! "SQL over pandas". This crate is the equivalent substrate in Rust:
//!
//! * [`Table`] — a **column-major** relation of nullable `EntityId` values:
//!   one dense [`Column`] (value vector + validity bitmap) per pattern
//!   variable;
//! * [`join::join_glue`] — the hash equijoin with *gluing* semantics used
//!   to extend a pattern's realization table with a new abstract action's
//!   realizations (equi-conditions on glued variables, `≠` constraints
//!   against same-type columns for freshly introduced variables). Joins are
//!   **late-materialized**: a pair stage emits matching row-index pairs
//!   ([`join::join_glue_pairs`]), and a gather stage builds the output
//!   columns once ([`join::materialize_pairs`]). Candidate pruning counts
//!   support straight off the pair stream ([`join::distinct_left_values`])
//!   without materializing at all;
//! * `index::KeyIndex` — the one join key index behind every hash pair
//!   stage: a flat chained index (power-of-two bucket heads, one slot per
//!   build row carrying its key hash), allocation-free per key, chains
//!   ascending so every pair stream keeps the canonical order;
//! * [`join::join_glue_partitioned`] — the radix-partitioned parallel hash
//!   join; byte-identical output at any [`BatchRunner`] width;
//! * [`plan`] — the adaptive cost-based join planner: sampled cardinality
//!   statistics, a per-(strategy × build side × partition count) cost
//!   model, runtime re-planning with mid-join bailout, and a per-shape
//!   plan cache. Byte-identical output at any plan choice;
//! * [`join::join_glue_nested`] — the identical operator computed by a
//!   conventional main-memory nested loop (the paper's `PM−join` ablation);
//! * [`join::outer_join_glue`] — the **full outer join** of Algorithm 3,
//!   whose null-padded rows are exactly the partial pattern realizations;
//! * selection/projection/distinct helpers ([`Table::rows_with_null`],
//!   [`Table::project`], [`Table::distinct_count`], …);
//! * [`rowstore`] — the retained row-oriented reference engine, used by
//!   the differential property suite and the `fig5_join` benchmark;
//! * [`hash`] — the seed-free multiply-mix hasher backing every internal
//!   map and set (deterministic, so the parallel join's radix partitioning
//!   is stable across runs).
//!
//! Null semantics follow SQL: a null never equi-matches, and `≠`
//! constraints involving a null are vacuously satisfied (three-valued
//! logic's `UNKNOWN` is acceptable for the retention use-case of
//! Algorithm 3, where null-padded rows must survive subsequent joins).

pub mod column;
pub mod hash;
mod index;
pub mod join;
pub mod plan;
pub mod rowstore;
pub mod schema;
pub mod table;

pub use column::{Column, Value, NULL_IX};
pub use hash::{EntitySet, FastHasher, FastMap, FastSet};
pub use join::{
    distinct_left_values, join_glue, join_glue_nested, join_glue_pairs, join_glue_pairs_delta,
    join_glue_pairs_delta_partitioned, join_glue_pairs_nested, join_glue_pairs_partitioned,
    join_glue_pairs_sort_merge, join_glue_partitioned, join_glue_sort_merge, materialize_pairs,
    outer_join_glue, BatchRunner, ColumnGlue, Pair, SerialRunner,
};
pub use plan::{
    choose_plan, join_glue_pairs_planned, join_stats, BuildSide, JoinPlan, JoinStats, PlanOutcome,
    Planner, PlannerSettings, Strategy,
};
pub use schema::Schema;
pub use table::Table;
