//! WiClean core: mining edit patterns and time windows from revision
//! histories, and using them to detect incomplete ("partial") edits.
//!
//! This crate implements the paper's contribution end to end:
//!
//! * the **model** (§3): typed pattern variables ([`var::Var`]), abstract
//!   actions ([`abstract_action::AbstractAction`]) and their enumeration
//!   over the type hierarchy, patterns with canonical forms, connectivity
//!   w.r.t. a seed type, the specificity partial order `≺`, frequency
//!   (Def. 3.2) and relative frequency (Def. 3.4);
//! * **Algorithm 1** ([`miner`]): join-based mining of the most specific
//!   frequent connected patterns in one window, with incremental
//!   construction of the relevant edits subgraph;
//! * **Algorithm 2** ([`windows`]): splitting the timeline into
//!   non-overlapping windows and iteratively refining window width and
//!   frequency threshold until the pattern set stabilizes;
//! * **Algorithm 3** ([`partial`]): detecting partial pattern realizations
//!   with chains of full outer joins, and suggesting completions;
//! * **edit assistance** ([`assist`]): periodic-window detection and online
//!   completion suggestions for in-flight edits;
//! * **value-specific instantiations** ([`specialize`]): detecting pattern
//!   variables dominated by one entity (the paper's "pattern specific to
//!   PSG" future-work item);
//! * the **parallel driver** ([`parallel`]): embarrassingly parallel
//!   processing of the non-overlapping windows.
//!
//! The two optimizations the paper ablates (hash-join realization tables
//! and incremental graph construction) are configuration axes
//! ([`config::JoinImpl`], [`config::ExpansionMode`]) so that the baseline
//! variants `PM−join`, `PM−inc`, `PM−inc,−join` are exactly this code with
//! an optimization disabled (see the `wiclean-baselines` crate).

pub mod abstract_action;
pub mod assist;
pub mod cache;
pub mod config;
pub mod corpus;
pub mod degraded;
pub mod interner;
pub mod miner;
pub mod parallel;
pub mod partial;
pub mod pattern;
pub mod pool;
pub mod realization;
pub mod report;
pub mod signal;
pub mod specialize;
pub mod stream;
pub mod var;
pub mod windows;

#[cfg(test)]
pub(crate) mod testutil;

pub use abstract_action::{abstractions_of, AbstractAction};
pub use cache::{MiningCaches, RealizationCache};
pub use config::{
    CorpusBackend, CorpusPolicy, ExpansionMode, JoinImpl, MinerConfig, RefinePolicy, StreamPolicy,
    WcConfig,
};
pub use corpus::{ingest_sharded, open_sharded_corpus, ShardedCorpus};
pub use degraded::{DegradedCoverage, LostEntity};
pub use interner::{PatternId, PatternInterner};
pub use miner::{FoundPattern, MineStats, WindowMiner, WindowResult};
pub use parallel::{
    mine_windows_on_pool, mine_windows_parallel, mine_windows_parallel_cached,
    mine_windows_parallel_cached_checked, mine_windows_parallel_checked, run_windows_checked,
    run_windows_on_pool, WindowFailure,
};
pub use partial::{detect_partial_updates, PartialReport, PartialUpdate};
pub use pattern::Pattern;
pub use pool::MiningPool;
pub use report::{DegradedReport, WcReport};
pub use signal::{edit_volume_signal, significant_windows, WindowSignal};
pub use specialize::{specialize_pattern, Specialization};
pub use stream::{wc_result_from_sealed, StreamConfig, StreamMiner};
pub use var::Var;
pub use windows::{find_windows_and_patterns, WcResult};
