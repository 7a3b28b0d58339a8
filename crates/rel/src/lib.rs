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
//! * [`KeyIndex`] — the one join key index behind every hash pair stage:
//!   a flat chained index (power-of-two bucket heads, one slot per build
//!   row carrying its key hash), allocation-free per key, chains ascending
//!   so every pair stream keeps the canonical order. It owns no column, so
//!   it can persist: [`KeyIndex::extend`] indexes appended rows (rehashing
//!   when full), and [`join::join_glue_pairs_delta`] probes only the
//!   appended rows of each side against the other side's persistent index;
//! * [`join::join_glue_nested`] — the identical operator computed by a
//!   conventional main-memory nested loop (the paper's `PM−join` ablation);
//! * [`join::outer_join_glue`] — the **full outer join** of Algorithm 3,
//!   whose null-padded rows are exactly the partial pattern realizations;
//! * selection/projection/distinct helpers ([`Table::rows_with_null`],
//!   [`Table::project`], [`Table::distinct_count`], …);
//! * [`hash`] — the seed-free multiply-mix hasher backing every internal
//!   map and set (deterministic across runs).
//!
//! Null semantics follow SQL: a null never equi-matches, and `≠`
//! constraints involving a null are vacuously satisfied (three-valued
//! logic's `UNKNOWN` is acceptable for the retention use-case of
//! Algorithm 3, where null-padded rows must survive subsequent joins).

pub mod column;
pub mod hash;
pub mod index;
pub mod join;
pub mod schema;
pub mod table;

pub use column::{Column, Value, NULL_IX};
pub use hash::{EntitySet, FastHasher, FastMap, FastSet};
pub use index::{KeyCols, KeyIndex};
pub use join::{
    distinct_left_values, glue_keys, join_glue, join_glue_nested, join_glue_pairs,
    join_glue_pairs_delta, join_glue_pairs_delta_nested, join_glue_pairs_nested, materialize_pairs,
    outer_join_glue, ColumnGlue, Pair,
};
pub use schema::Schema;
pub use table::Table;
