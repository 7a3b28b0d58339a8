//! Live revision feeds: the ingest side of the streaming miner.
//!
//! A [`RevisionFeed`] delivers revisions one at a time, in *arrival* order —
//! which, as with any crawl or event stream, need not be chronological. The
//! streaming miner ([`wiclean-core`]'s `StreamMiner`) consumes a feed,
//! assigns each event to its time window, and seals windows as the
//! watermark passes them; the feed itself makes no ordering promises beyond
//! "each event is delivered exactly once".
//!
//! Two implementations:
//!
//! * [`VecFeed`] — an in-memory feed over a fixed event list, with a
//!   deterministic seeded shuffle for exercising out-of-order arrival;
//! * [`DurableFeed`] — a feed layered on the crash-safe [`ShardedStore`]:
//!   every event is appended to the store *before* it is handed to the
//!   consumer, so a crashed stream run can reopen the directory and replay
//!   everything it had ingested. Replay order is normalized to `(entity, time)` — a
//!   different arrival order than the live run saw, which is fine precisely
//!   because the streaming miner's sealed output is arrival-order
//!   independent.

use crate::failfs::Vfs;
use crate::shard::{MemoryBudget, ShardPolicy, ShardRecoveryReport, ShardedStore};
use crate::wal::WalError;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use wiclean_types::{EntityId, Timestamp};

/// Snapshot-cache budget of a feed's store. A replay materializes each
/// history exactly once, so the cache only needs to bound residency.
const FEED_CACHE_BYTES: u64 = 8 << 20;

/// One revision arriving on a feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedEvent {
    /// The entity whose page was edited.
    pub entity: EntityId,
    /// Event time: when the revision was saved (not when it arrived).
    pub time: Timestamp,
    /// Full wikitext snapshot of the page at `time`.
    pub text: String,
}

/// A pull-based stream of revision events.
pub trait RevisionFeed {
    /// The next event in arrival order, or `None` when the feed is
    /// (currently) drained. A drained feed may produce more events later if
    /// its producer keeps pushing; `None` is "nothing buffered now", not
    /// "closed".
    fn next_event(&mut self) -> Option<FeedEvent>;
}

/// An in-memory feed over a fixed list of events.
#[derive(Debug, Clone, Default)]
pub struct VecFeed {
    events: VecDeque<FeedEvent>,
}

impl VecFeed {
    /// A feed delivering `events` in the given order.
    pub fn new(events: impl IntoIterator<Item = FeedEvent>) -> Self {
        Self {
            events: events.into_iter().collect(),
        }
    }

    /// A feed delivering `events` in a deterministic pseudo-random order
    /// derived from `seed` (Fisher–Yates over an xorshift generator). The
    /// same seed always produces the same arrival order, so shuffled-feed
    /// tests are reproducible.
    pub fn shuffled(events: impl IntoIterator<Item = FeedEvent>, seed: u64) -> Self {
        let mut events: Vec<FeedEvent> = events.into_iter().collect();
        // xorshift64*: splittable enough for a test shuffle, zero-safe via
        // the odd constant.
        let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..events.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            events.swap(i, j);
        }
        Self {
            events: events.into(),
        }
    }

    /// Appends an event to the back of the feed.
    pub fn push(&mut self, event: FeedEvent) {
        self.events.push_back(event);
    }

    /// Events still buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl RevisionFeed for VecFeed {
    fn next_event(&mut self) -> Option<FeedEvent> {
        self.events.pop_front()
    }
}

/// A durable feed: events are appended to a [`ShardedStore`] *before*
/// delivery, so a crashed consumer can reopen the directory and replay
/// every event it had been handed (plus any it had not yet consumed).
///
/// On open, all recovered revisions are queued in `(entity, time)` order —
/// deterministic, though generally different from the original arrival
/// order. The streaming miner's sealed results are arrival-order
/// independent (pinned by its differential property tests), which is what
/// makes this normalization a correct resume.
pub struct DurableFeed<V: Vfs> {
    store: ShardedStore<V>,
    recovery: ShardRecoveryReport,
    pending: VecDeque<FeedEvent>,
}

impl<V: Vfs> DurableFeed<V> {
    /// Creates a fresh feed directory (which must not already contain one).
    pub fn create(fs: V, dir: impl AsRef<Path>, policy: ShardPolicy) -> Result<Self, WalError> {
        let store = ShardedStore::create(fs, dir.as_ref(), policy, feed_budget())?;
        Ok(Self {
            recovery: ShardRecoveryReport {
                shards: store.policy().shards,
                ..ShardRecoveryReport::default()
            },
            store,
            pending: VecDeque::new(),
        })
    }

    /// Opens an existing feed directory, running per-shard crash recovery,
    /// and queues every recovered revision for replay in `(entity, time)`
    /// order.
    pub fn open(fs: V, dir: impl AsRef<Path>, policy: ShardPolicy) -> Result<Self, WalError> {
        let (store, recovery) = ShardedStore::open(fs, dir.as_ref(), policy, feed_budget())?;
        let mut pending = VecDeque::new();
        for entity in store.entities() {
            let Some(history) = store.materialize(entity)? else {
                continue;
            };
            pending.extend(history.revisions().iter().map(|r| FeedEvent {
                entity,
                time: r.time,
                text: r.text.clone(),
            }));
        }
        Ok(Self {
            store,
            recovery,
            pending,
        })
    }

    /// Durably records one arriving revision and queues it for delivery.
    /// The store append happens first: an event the consumer sees is
    /// already recoverable. On failure nothing is queued (and the store
    /// shard wedges until reopened).
    pub fn push(&mut self, entity: EntityId, time: Timestamp, text: &str) -> Result<(), WalError> {
        self.store.append(entity, time, text)?;
        self.pending.push_back(FeedEvent {
            entity,
            time,
            text: text.to_owned(),
        });
        Ok(())
    }

    /// What recovery found when the feed was opened (clean for a freshly
    /// created feed).
    pub fn recovery(&self) -> &ShardRecoveryReport {
        &self.recovery
    }

    /// The backing sharded store.
    pub fn store(&self) -> &ShardedStore<V> {
        &self.store
    }

    /// Events queued but not yet delivered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

impl<V: Vfs> RevisionFeed for DurableFeed<V> {
    fn next_event(&mut self) -> Option<FeedEvent> {
        self.pending.pop_front()
    }
}

fn feed_budget() -> Arc<MemoryBudget> {
    Arc::new(MemoryBudget::new(FEED_CACHE_BYTES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failfs::{FailKind, FailOp, FailSpec, FailpointFs, MemFs};
    use crate::wal::SyncPolicy;
    use std::path::PathBuf;

    fn eid(i: u32) -> EntityId {
        EntityId::from_u32(i)
    }

    fn ev(entity: u32, time: Timestamp) -> FeedEvent {
        FeedEvent {
            entity: eid(entity),
            time,
            text: format!("e{entity}@{time}"),
        }
    }

    fn policy() -> ShardPolicy {
        ShardPolicy {
            shards: 2,
            snapshot_every: 4,
            sync: SyncPolicy::Always,
            ..ShardPolicy::default()
        }
    }

    fn dir() -> PathBuf {
        PathBuf::from("/feed")
    }

    #[test]
    fn vec_feed_delivers_in_order() {
        let mut f = VecFeed::new([ev(1, 10), ev(2, 5), ev(1, 20)]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.next_event().unwrap().time, 10);
        assert_eq!(f.next_event().unwrap().time, 5);
        f.push(ev(3, 1));
        assert_eq!(f.next_event().unwrap().time, 20);
        assert_eq!(f.next_event().unwrap().entity, eid(3));
        assert!(f.next_event().is_none());
        assert!(f.is_empty());
    }

    #[test]
    fn shuffled_feed_is_deterministic_and_complete() {
        let events: Vec<FeedEvent> = (0..40).map(|i| ev(i % 5, i as u64 * 7)).collect();
        let drain = |mut f: VecFeed| {
            let mut got = Vec::new();
            while let Some(e) = f.next_event() {
                got.push(e);
            }
            got
        };
        let a = drain(VecFeed::shuffled(events.clone(), 42));
        let b = drain(VecFeed::shuffled(events.clone(), 42));
        let c = drain(VecFeed::shuffled(events.clone(), 43));
        assert_eq!(a, b, "same seed, same arrival order");
        assert_ne!(a, c, "different seed permutes differently");
        assert_ne!(a, events, "seed 42 actually shuffles this input");
        let sorted = |mut v: Vec<FeedEvent>| {
            v.sort_by_key(|e| (e.entity.as_u32(), e.time));
            v
        };
        assert_eq!(
            sorted(a),
            sorted(events),
            "shuffle is a permutation — no event lost or duplicated"
        );
    }

    #[test]
    fn durable_feed_replays_after_crash_in_entity_time_order() {
        let fs = Arc::new(MemFs::new());
        let mut feed = DurableFeed::create(fs.clone(), dir(), policy()).unwrap();
        // Out-of-order, interleaved arrival.
        for e in [ev(2, 30), ev(1, 10), ev(2, 5), ev(1, 40), ev(1, 25)] {
            feed.push(e.entity, e.time, &e.text).unwrap();
        }
        // Consume a couple, then "crash" (drop without a flush).
        assert!(feed.next_event().is_some());
        assert!(feed.next_event().is_some());
        drop(feed);

        let mut reopened = DurableFeed::open(fs, dir(), policy()).unwrap();
        assert_eq!(reopened.recovery().records_recovered, 5);
        assert!(reopened.recovery().is_clean());
        assert_eq!(reopened.pending(), 5, "replay includes consumed events");
        let mut got = Vec::new();
        while let Some(e) = reopened.next_event() {
            got.push((e.entity.as_u32(), e.time, e.text));
        }
        assert_eq!(
            got,
            vec![
                (1, 10, "e1@10".into()),
                (1, 25, "e1@25".into()),
                (1, 40, "e1@40".into()),
                (2, 5, "e2@5".into()),
                (2, 30, "e2@30".into()),
            ],
            "replay is (entity, time)-ordered regardless of arrival order"
        );
    }

    #[test]
    fn durable_feed_never_delivers_an_unlogged_event() {
        // The third append tears: the push must fail AND the event must not
        // be queued — delivered events are exactly the recoverable ones.
        let fs = Arc::new(MemFs::new());
        let spec = FailSpec::once(FailOp::Append, 2, FailKind::TornWrite { keep: 3 });
        let failing = Arc::new(FailpointFs::new(fs.clone(), spec));
        let mut feed = DurableFeed::create(failing, dir(), policy()).unwrap();
        feed.push(eid(1), 10, "a").unwrap();
        feed.push(eid(1), 20, "b").unwrap();
        let err = feed.push(eid(1), 30, "c").unwrap_err();
        assert!(!err.to_string().is_empty());
        assert_eq!(feed.pending(), 2, "failed push queues nothing");
        // Further pushes are refused: the shard wedged.
        assert!(feed.push(eid(1), 40, "d").is_err());
        drop(feed);

        // Recovery on the undamaged prefix sees exactly the delivered set.
        let reopened = DurableFeed::open(fs, dir(), policy()).unwrap();
        assert_eq!(reopened.recovery().records_recovered, 2);
        assert_eq!(reopened.recovery().bytes_dropped(), 3, "the torn frame");
        assert_eq!(reopened.pending(), 2);
    }
}
