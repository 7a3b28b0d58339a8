//! Per-entity page histories and the crawl-style revision store.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use wiclean_types::{EntityId, Timestamp, Window};

/// One stored revision: the full page text at `time`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Revision {
    /// When the revision was saved.
    pub time: Timestamp,
    /// Full wikitext snapshot of the page.
    pub text: String,
}

/// The ordered revision history of one page.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageHistory {
    revisions: Vec<Revision>,
}

impl PageHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a revision. MediaWiki histories are append-only, but *crawled*
    /// histories arrive in whatever order the crawler's pagination and
    /// retries produced — so an out-of-order timestamp is insertion-sorted
    /// into place rather than rejected. Returns `true` when the revision was
    /// out of order (equal timestamps count as in order and keep arrival
    /// order, matching the previous append semantics).
    pub fn push(&mut self, time: Timestamp, text: String) -> bool {
        let in_order = self.revisions.last().is_none_or(|last| time >= last.time);
        if in_order {
            self.revisions.push(Revision { time, text });
            false
        } else {
            let at = self.revisions.partition_point(|r| r.time <= time);
            self.revisions.insert(at, Revision { time, text });
            true
        }
    }

    /// Bulk-appends revisions, then restores chronological order with one
    /// stable sort (sort-on-seal) — O((n+k)·log(n+k)) for k appends, versus
    /// the O(k·n) worst case of k repeated mid-vector inserts through
    /// [`PageHistory::push`]. Returns how many revisions arrived out of
    /// order (each compared against the running maximum timestamp, exactly
    /// as the incremental path counts them).
    ///
    /// The sort is stable, so revisions with equal timestamps keep their
    /// arrival order — byte-identical to what repeated `push` produces.
    pub fn extend(&mut self, revisions: impl IntoIterator<Item = (Timestamp, String)>) -> u64 {
        let mut out_of_order = 0u64;
        let mut needs_sort = false;
        let mut max = self.revisions.last().map(|r| r.time);
        for (time, text) in revisions {
            match max {
                Some(m) if time < m => {
                    out_of_order += 1;
                    needs_sort = true;
                }
                _ => max = Some(time),
            }
            self.revisions.push(Revision { time, text });
        }
        if needs_sort {
            self.revisions.sort_by_key(|r| r.time);
        }
        out_of_order
    }

    /// All revisions in chronological order.
    pub fn revisions(&self) -> &[Revision] {
        &self.revisions
    }

    /// The revisions by value, in chronological order.
    pub fn into_revisions(self) -> Vec<Revision> {
        self.revisions
    }

    /// Mutable access for in-crate decorators (fault injection damages
    /// revision text in place on an owned copy).
    pub(crate) fn revisions_mut(&mut self) -> &mut [Revision] {
        &mut self.revisions
    }

    /// Number of revisions.
    pub fn len(&self) -> usize {
        self.revisions.len()
    }

    /// Whether the page has no revisions.
    pub fn is_empty(&self) -> bool {
        self.revisions.is_empty()
    }

    /// The latest revision at or before `time`, i.e. the page state an
    /// observer at `time` would see.
    pub fn snapshot_at(&self, time: Timestamp) -> Option<&Revision> {
        match self.revisions.partition_point(|r| r.time <= time) {
            0 => None,
            n => Some(&self.revisions[n - 1]),
        }
    }

    /// Revisions saved within `window`, in order.
    pub fn revisions_in(&self, window: &Window) -> &[Revision] {
        let lo = self.revisions.partition_point(|r| r.time < window.start);
        let hi = self.revisions.partition_point(|r| r.time < window.end);
        &self.revisions[lo..hi]
    }
}

/// Counters for the crawl/parse work performed — the "preprocessing" cost
/// the paper's Figure 4 reports as the upper bar segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlStats {
    /// Distinct page histories fetched.
    pub pages_fetched: u64,
    /// Revisions handed to the parser.
    pub revisions_scanned: u64,
    /// Total wikitext bytes scanned.
    pub bytes_scanned: u64,
    /// Fetch attempts repeated after a retryable failure.
    pub retries: u64,
    /// Pages abandoned after exhausting the retry policy.
    pub gave_up_pages: u64,
    /// Transient fetch errors observed (before retry).
    pub transient_errors: u64,
    /// Rate-limit signals observed (before retry).
    pub rate_limited: u64,
    /// Revisions recorded with an out-of-order timestamp (insertion-sorted
    /// at the store boundary — crawled histories are not guaranteed ordered).
    pub out_of_order: u64,
}

impl CrawlStats {
    /// Sums another counter snapshot into this one (used when a fetch
    /// decorator merges its own counters with its inner source's).
    pub fn absorb(&mut self, other: &CrawlStats) {
        self.pages_fetched += other.pages_fetched;
        self.revisions_scanned += other.revisions_scanned;
        self.bytes_scanned += other.bytes_scanned;
        self.retries += other.retries;
        self.gave_up_pages += other.gave_up_pages;
        self.transient_errors += other.transient_errors;
        self.rate_limited += other.rate_limited;
        self.out_of_order += other.out_of_order;
    }
}

/// Store of page histories, keyed by entity.
///
/// Fetching a history updates the crawl counters (atomics, so read paths
/// stay `&self` and the store is shareable across the parallel per-window
/// miners), modelling the fact that in the paper obtaining data "required
/// crawling and parsing entities and its revision logs".
///
/// # Persistence semantics
///
/// Only `pages` — the revision data itself — is serialized. The crawl
/// counters are `#[serde(skip)]`: they measure *this process's* crawl and
/// parse work (the preprocessing bars of Figure 4), not a property of the
/// corpus, so a store loaded from disk (snapshot or JSON round trip)
/// always starts with all counters at zero, regardless of the
/// counter values when it was saved. Equality (`PartialEq`) follows the
/// same rule: two stores compare equal iff their pages are equal, counters
/// excluded. Both behaviors are pinned by
/// `serde_round_trip_preserves_pages`.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct RevisionStore {
    pages: HashMap<EntityId, PageHistory>,
    #[serde(skip)]
    pages_fetched: AtomicU64,
    #[serde(skip)]
    revisions_scanned: AtomicU64,
    #[serde(skip)]
    bytes_scanned: AtomicU64,
    #[serde(skip)]
    out_of_order: AtomicU64,
}

impl RevisionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a new revision of `entity` at `time`. Out-of-order
    /// timestamps are tolerated (sorted into place) and counted in
    /// [`CrawlStats::out_of_order`].
    pub fn record(&mut self, entity: EntityId, time: Timestamp, text: String) {
        if self.pages.entry(entity).or_default().push(time, text) {
            self.out_of_order.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a whole crawled batch of revisions for `entity` in one call:
    /// appended first, sealed with a single stable sort if anything arrived
    /// out of order (see [`PageHistory::extend`]). Equivalent to calling
    /// [`RevisionStore::record`] per revision, including the
    /// [`CrawlStats::out_of_order`] count, but without the quadratic
    /// worst case on badly-ordered crawl streams.
    pub fn record_batch(
        &mut self,
        entity: EntityId,
        revisions: impl IntoIterator<Item = (Timestamp, String)>,
    ) {
        let n = self.pages.entry(entity).or_default().extend(revisions);
        if n > 0 {
            self.out_of_order.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Fetches the page history of `entity`, counting the crawl work.
    /// Returns an empty-history placeholder reference if the page was never
    /// edited (`None`).
    pub fn fetch(&self, entity: EntityId) -> Option<&PageHistory> {
        let history = self.pages.get(&entity)?;
        self.pages_fetched.fetch_add(1, Ordering::Relaxed);
        self.revisions_scanned
            .fetch_add(history.len() as u64, Ordering::Relaxed);
        let bytes: u64 = history
            .revisions()
            .iter()
            .map(|r| r.text.len() as u64)
            .sum();
        self.bytes_scanned.fetch_add(bytes, Ordering::Relaxed);
        Some(history)
    }

    /// Reads a history without touching the crawl counters (used by tests
    /// and the generator, which owns the data anyway).
    pub fn peek(&self, entity: EntityId) -> Option<&PageHistory> {
        self.pages.get(&entity)
    }

    /// Whether `entity` has any recorded revision.
    pub fn contains(&self, entity: EntityId) -> bool {
        self.pages.contains_key(&entity)
    }

    /// Number of pages with at least one revision.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total number of stored revisions.
    pub fn revision_count(&self) -> usize {
        self.pages.values().map(PageHistory::len).sum()
    }

    /// Entities with recorded histories.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.pages.keys().copied()
    }

    /// Snapshot of the crawl counters.
    pub fn stats(&self) -> CrawlStats {
        CrawlStats {
            pages_fetched: self.pages_fetched.load(Ordering::Relaxed),
            revisions_scanned: self.revisions_scanned.load(Ordering::Relaxed),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
            out_of_order: self.out_of_order.load(Ordering::Relaxed),
            ..CrawlStats::default()
        }
    }

    /// Resets the crawl counters (between experiment runs).
    pub fn reset_stats(&self) {
        self.pages_fetched.store(0, Ordering::Relaxed);
        self.revisions_scanned.store(0, Ordering::Relaxed);
        self.bytes_scanned.store(0, Ordering::Relaxed);
        self.out_of_order.store(0, Ordering::Relaxed);
    }
}

/// Page-data equality only: the `#[serde(skip)]` crawl counters are
/// process-local measurements and never part of a store's identity (see
/// the persistence-semantics note on [`RevisionStore`]).
impl PartialEq for RevisionStore {
    fn eq(&self, other: &Self) -> bool {
        self.pages == other.pages
    }
}

impl Eq for RevisionStore {}

#[cfg(test)]
mod tests {
    use super::*;

    fn eid(i: u32) -> EntityId {
        EntityId::from_u32(i)
    }

    #[test]
    fn history_is_ordered_and_indexed() {
        let mut h = PageHistory::new();
        h.push(10, "v1".into());
        h.push(20, "v2".into());
        h.push(20, "v2b".into()); // equal timestamps allowed
        h.push(30, "v3".into());
        assert_eq!(h.len(), 4);
        assert_eq!(h.snapshot_at(5), None);
        assert_eq!(h.snapshot_at(10).unwrap().text, "v1");
        assert_eq!(h.snapshot_at(25).unwrap().text, "v2b");
        assert_eq!(h.snapshot_at(1000).unwrap().text, "v3");
    }

    #[test]
    fn history_sorts_time_travel_into_place() {
        let mut h = PageHistory::new();
        assert!(!h.push(10, "v1".into()));
        assert!(h.push(5, "v0".into())); // out of order → insertion-sorted
        assert!(!h.push(20, "v2".into()));
        assert!(h.push(15, "v1b".into()));
        let times: Vec<_> = h.revisions().iter().map(|r| r.time).collect();
        assert_eq!(times, vec![5, 10, 15, 20]);
        assert_eq!(h.snapshot_at(7).unwrap().text, "v0");
        assert_eq!(h.snapshot_at(17).unwrap().text, "v1b");
    }

    #[test]
    fn store_counts_out_of_order_records() {
        let mut s = RevisionStore::new();
        s.record(eid(1), 20, "v2".into());
        s.record(eid(1), 10, "v1".into()); // late arrival
        s.record(eid(2), 5, "w1".into());
        s.record(eid(2), 6, "w2".into());
        assert_eq!(s.stats().out_of_order, 1);
        let times: Vec<_> = s
            .peek(eid(1))
            .unwrap()
            .revisions()
            .iter()
            .map(|r| r.time)
            .collect();
        assert_eq!(times, vec![10, 20]);
        s.reset_stats();
        assert_eq!(s.stats().out_of_order, 0);
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        // Stability contract: revisions saved in the same instant must stay
        // in arrival order through both the incremental and the batch path,
        // even when an earlier-timestamped revision lands between them.
        let arrivals: &[(Timestamp, &str)] =
            &[(10, "a"), (20, "b1"), (20, "b2"), (5, "late"), (20, "b3")];
        let mut incremental = PageHistory::new();
        for &(t, text) in arrivals {
            incremental.push(t, text.into());
        }
        let mut batch = PageHistory::new();
        let n = batch.extend(arrivals.iter().map(|&(t, s)| (t, s.to_string())));
        assert_eq!(n, 1, "only the t=5 arrival is out of order");
        for h in [&incremental, &batch] {
            let order: Vec<&str> = h.revisions().iter().map(|r| r.text.as_str()).collect();
            assert_eq!(order, vec!["late", "a", "b1", "b2", "b3"]);
        }
        assert_eq!(incremental, batch, "batch seal ≡ repeated binary insert");
    }

    #[test]
    fn batch_record_matches_incremental_record() {
        // A reversed crawl stream — the worst case for per-push inserts.
        let stream: Vec<(Timestamp, String)> =
            (0..50).rev().map(|t| (t, format!("v{t}"))).collect();
        let mut a = RevisionStore::new();
        for (t, text) in stream.clone() {
            a.record(eid(1), t, text);
        }
        let mut b = RevisionStore::new();
        b.record_batch(eid(1), stream);
        assert_eq!(a.peek(eid(1)), b.peek(eid(1)));
        assert_eq!(a.stats().out_of_order, 49);
        assert_eq!(b.stats().out_of_order, 49);
    }

    #[test]
    fn revisions_in_window_half_open() {
        let mut h = PageHistory::new();
        for t in [10, 20, 30, 40] {
            h.push(t, format!("v{t}"));
        }
        let w = Window::new(20, 40);
        let in_w: Vec<_> = h.revisions_in(&w).iter().map(|r| r.time).collect();
        assert_eq!(in_w, vec![20, 30]);
    }

    #[test]
    fn store_records_and_fetches() {
        let mut s = RevisionStore::new();
        s.record(eid(1), 10, "{{Infobox x\n}}".into());
        s.record(eid(1), 20, "{{Infobox x\n| f = [[Y]]\n}}".into());
        assert!(s.contains(eid(1)));
        assert!(!s.contains(eid(2)));
        assert_eq!(s.page_count(), 1);
        assert_eq!(s.revision_count(), 2);
        assert!(s.fetch(eid(2)).is_none());
        let h = s.fetch(eid(1)).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn serde_round_trip_preserves_pages() {
        let mut s = RevisionStore::new();
        s.record(eid(1), 10, "v1".into());
        s.record(eid(1), 20, "v2".into());
        s.record(eid(2), 5, "w1".into());
        // Drive the crawl counters to nonzero values before serializing so
        // the reset-on-load assertion below pins real behavior: the
        // `#[serde(skip)]` counters must NOT survive persistence.
        s.fetch(eid(1)).unwrap();
        s.record(eid(2), 3, "w0".into()); // out-of-order → counted
        assert_ne!(s.stats(), CrawlStats::default());
        let json = serde_json::to_string(&s).unwrap();
        let back: RevisionStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.page_count(), 2);
        assert_eq!(back.revision_count(), 4);
        assert_eq!(
            back.peek(eid(1)).unwrap().snapshot_at(15).unwrap().text,
            "v1"
        );
        // Counters reset to zero on load, even though they were nonzero at
        // save time — they are process-local, not corpus state.
        assert_eq!(back.stats(), CrawlStats::default());
        // Page-data equality ignores the counter difference.
        assert_eq!(back, s);
    }

    #[test]
    fn fetch_updates_crawl_stats_but_peek_does_not() {
        let mut s = RevisionStore::new();
        s.record(eid(1), 10, "abcd".into());
        s.record(eid(1), 20, "efghij".into());
        s.peek(eid(1)).unwrap();
        assert_eq!(s.stats(), CrawlStats::default());
        s.fetch(eid(1)).unwrap();
        let st = s.stats();
        assert_eq!(st.pages_fetched, 1);
        assert_eq!(st.revisions_scanned, 2);
        assert_eq!(st.bytes_scanned, 10);
        s.reset_stats();
        assert_eq!(s.stats(), CrawlStats::default());
    }
}
