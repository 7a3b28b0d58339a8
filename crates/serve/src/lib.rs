//! WiClean online edit assistance: the suggestion server.
//!
//! The paper frames WiClean's online mode as a plug-in that watches a
//! user's in-flight edit and proposes the rest of a mined update pattern
//! ("users making changes are prompted with suggestions to augment their
//! edits", §5). The batch path ([`wiclean_core::assist`]) answers that
//! query by re-running Algorithm 3 per request — correct, but join-bound
//! and far from interactive. This crate is the serving half:
//!
//! * [`index`] — the immutable, read-optimized [`index::PatternIndex`]:
//!   every pattern's partial-update report precomputed at load time,
//!   suggestions fully rendered, keyed by involved entity and by
//!   (seed type, action signature) through integer-id maps.
//! * [`epoch`] — [`epoch::EpochPtr`], the arc-swap-style pointer that
//!   hot-swaps whole indexes without dropping in-flight requests.
//! * [`server`] — the dependency-light TCP server (no async runtime in
//!   this container): accept thread, worker pool, per-request
//!   `catch_unwind`, newline-delimited JSON.
//! * [`protocol`] / [`client`] — the wire format and a blocking client.
//! * [`stats`] — relaxed-atomic serving counters and the log2 latency
//!   histogram behind the `stats` op.
//!
//! The differential test in `tests/differential.rs` pins the contract:
//! served suggestions equal the batch `suggest_completions` output for
//! the same pattern set and entity — including across a mid-stream hot
//! swap, where every response is attributable to exactly one epoch.

#![warn(missing_docs)]

pub mod client;
pub mod epoch;
pub mod index;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::SuggestClient;
pub use epoch::EpochPtr;
pub use index::{ActionSig, IndexLimits, IndexStats, PatternIndex, PatternSet, ServedPattern};
pub use server::{serve, ReloadFn, ServeConfig, ServeHandle, MAX_REQUEST_BYTES};
pub use stats::{ServeStats, StatsSnapshot};
