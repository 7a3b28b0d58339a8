//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) against the synthetic corpus.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Figure 4(a) — runtime vs seed-set size | [`runtime::fig4a`] | `fig4a` |
//! | Figure 4(b) — runtime vs threshold | [`runtime::fig4b`] | `fig4b` |
//! | Figure 4(c) — runtime vs window size | [`runtime::fig4c`] | `fig4c` |
//! | Figure 4(d) — 1 core vs N cores | [`runtime::fig4d`] | `fig4d` |
//! | Small-data candidate counts | [`smalldata`] | `smalldata` |
//! | §6.3 quality analysis | [`quality`] | `quality` |
//! | Table 1 — refinement heuristics grid | [`grid`] | `table1` |
//! | Robustness under degraded crawls | [`robustness`] | `robustness` |
//! | Crash-recovery fault sweep | [`recovery`] | `recovery` |
//! | Out-of-core corpus at 1M entities | [`corpus_scale`] | `corpus_scale` |
//!
//! Absolute times will differ from the paper's testbed; the harness is
//! about reproducing the *shape* of each result (who wins, by what factor,
//! where preprocessing dominates).

pub mod corpus_scale;
pub mod grid;
pub mod metrics;
pub mod quality;
pub mod recovery;
pub mod robustness;
pub mod runtime;
pub mod smalldata;
pub mod streaming;

pub use grid::{run_grid, GridRow};
pub use metrics::{pattern_metrics, PatternMetrics};
pub use quality::{evaluate_domain, DomainQualityReport};
pub use recovery::{
    render_recovery, run_recovery, FaultClass, RecoveryCell, RecoverySweepReport, ALL_FAULT_CLASSES,
};
pub use robustness::{run_robustness, RobustnessCell, RobustnessReport, DEFAULT_FAULT_RATES};
pub use runtime::{fig4a, fig4b, fig4c, fig4d};
pub use smalldata::{run_smalldata, SmallDataReport};
pub use streaming::{render_stream_cells, stream_vs_full_remine, StreamCell};
