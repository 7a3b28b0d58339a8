//! Revision-history storage and action extraction.
//!
//! This crate is the "crawler side" of WiClean. It stores, per entity, the
//! full wikitext snapshot of every revision (as MediaWiki does), and derives
//! the timestamped link *actions* of the paper's model (§3) by parsing and
//! diffing consecutive snapshots:
//!
//! * [`Action`] — `(op, (u, l, v), t)`: addition/removal of the edge
//!   `u --l--> v` at time `t`, recorded in the revision history of the
//!   *source* entity `u`;
//! * [`RevisionStore`] — per-entity page histories with crawl-style access
//!   and parse-cost accounting (the preprocessing bars of Figure 4);
//! * [`extract::extract_actions`] — snapshot diffing within a time window;
//! * [`reduce::reduce_actions`] — the paper's *reduced action set*: the
//!   unique (up to timestamps) subset left after cancelling actions with
//!   their inverses, so only net effects remain.

pub mod action;
pub mod cache;
pub mod extract;
pub mod failfs;
pub mod fault;
pub mod feed;
pub mod fetch;
pub mod mmap;
pub mod reduce;
pub mod shard;
pub mod store;
pub mod wal;

pub use action::Action;
pub use cache::{ActionCache, ActionCacheStats, CacheLookup};
pub use extract::{
    extract_actions, extract_actions_for, try_extract_actions, try_extract_actions_full,
    ExtractOutcome,
};
pub use failfs::{FailKind, FailOp, FailSpec, Failpoint, FailpointFs, MemFs, RealFs, Vfs};
pub use fault::{mix64, FaultPlan, FaultyStore, GarbleMode};
pub use feed::{DurableFeed, FeedEvent, RevisionFeed, VecFeed};
pub use fetch::{
    backoff_delay_us, FetchError, FetchSource, FetchedHistory, ResilientFetcher, RetryPolicy,
};
pub use mmap::FileMap;
pub use reduce::{is_reduced, reduce_actions};
pub use shard::{
    CorpusStats, MemoryBudget, ShardLoss, ShardPolicy, ShardRecoveryReport, ShardedStore,
    MAX_SHARDS,
};
pub use store::{CrawlStats, PageHistory, Revision, RevisionStore};
pub use wal::{SyncPolicy, TailOutcome, WalError};
pub use wiclean_wikitext::EditOp;
