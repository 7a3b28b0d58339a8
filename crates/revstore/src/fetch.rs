//! The fallible fetch boundary: a `FetchSource` trait over revision
//! histories, with [`RevisionStore`] as the happy-path implementation and
//! [`ResilientFetcher`] adding a retry/backoff policy around any source.
//!
//! The paper's pipeline starts with a crawl ("no adequate API — crawling
//! and parsing entities and its revision logs"); at production scale that
//! crawl *fails* routinely — transient network errors, rate limiting,
//! deleted pages. The miner therefore consumes histories through this trait
//! rather than through the infallible in-memory store, and every caller is
//! forced to decide what a lost page means for its result.

use crate::fault::mix64;
use crate::store::{CrawlStats, PageHistory, RevisionStore};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wiclean_types::{EntityId, Window};

/// Why a fetch failed. `Transient` and `RateLimited` are worth retrying;
/// the rest are terminal for the current request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchError {
    /// A one-off failure (timeout, connection reset); retrying may succeed.
    Transient,
    /// The source asked us to slow down; retrying after backoff may succeed.
    RateLimited,
    /// The page is permanently unavailable (deleted/suppressed). The
    /// payload is how many revisions the source believes were lost, when
    /// it knows (0 when unknown).
    Gone {
        /// Revisions irrecoverably lost with the page.
        revisions_lost: u64,
    },
    /// The circuit breaker is open: too many consecutive failures, the
    /// fetcher is refusing further work this run.
    CircuitOpen,
    /// The retry policy gave up after `attempts` tries.
    Exhausted {
        /// Total fetch attempts made (including the first).
        attempts: u32,
    },
}

impl FetchError {
    /// Whether a retry could plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, FetchError::Transient | FetchError::RateLimited)
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Transient => write!(f, "transient fetch error"),
            FetchError::RateLimited => write!(f, "rate limited by source"),
            FetchError::Gone { revisions_lost } => {
                write!(
                    f,
                    "page permanently unavailable ({revisions_lost} revisions lost)"
                )
            }
            FetchError::CircuitOpen => write!(f, "circuit breaker open"),
            FetchError::Exhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for FetchError {}

/// A source of page histories that may fail.
///
/// `Ok(None)` means the source definitively knows the page has no recorded
/// history (never edited) — that is *not* an error and not degraded
/// coverage. Errors mean the answer is unknown or the page is lost.
///
/// The [`FetchedHistory`] return lets in-memory sources lend their
/// histories, out-of-core sources share the copy their cache holds, and
/// decorators that rewrite text (e.g. fault injection) return owned copies.
pub trait FetchSource: Sync {
    /// Fetches the revision history of `entity`.
    fn fetch_history(&self, entity: EntityId) -> Result<Option<FetchedHistory<'_>>, FetchError>;

    /// Fetches what extraction over `window` reads of `entity`'s history:
    /// a history whose [`PageHistory::snapshot_at`]`(window.start − 1)` and
    /// [`PageHistory::revisions_in`]`(window)` equal the full history's.
    /// It may leave out every other revision, so read nothing else from it.
    /// It fails exactly when [`fetch_history`](Self::fetch_history) would,
    /// and counts the same crawl work.
    ///
    /// The default is the full history. An out-of-core source overrides it
    /// to replay only the window's revisions into owned text; decorators
    /// that rewrite text keep the default, so their rewrite still applies.
    fn fetch_window(
        &self,
        entity: EntityId,
        window: &Window,
    ) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        let _ = window;
        self.fetch_history(entity)
    }

    /// Snapshot of the crawl-work counters attributable to this source
    /// (decorators merge their own counters with their inner source's).
    fn crawl_stats(&self) -> CrawlStats {
        CrawlStats::default()
    }

    /// Monotonic version of `entity`'s revision log: bumps whenever a
    /// revision is recorded for that entity, and for no other reason.
    /// [`crate::cache::ActionCache`] keys entries by it, so appending a
    /// revision invalidates exactly that entity's cached extractions and
    /// nothing else. The default (constant 0) is correct for immutable
    /// sources; decorators must forward to their inner source.
    fn history_version(&self, entity: EntityId) -> u64 {
        let _ = entity;
        0
    }
}

/// A fetched page history; derefs to the [`PageHistory`] in every form.
#[derive(Debug, Clone)]
pub enum FetchedHistory<'a> {
    /// Lent by an in-memory source.
    Borrowed(&'a PageHistory),
    /// Shared with the source's own cache (no copy of the page texts).
    Shared(Arc<PageHistory>),
    /// Produced for this fetch alone.
    Owned(PageHistory),
}

impl Deref for FetchedHistory<'_> {
    type Target = PageHistory;

    fn deref(&self) -> &PageHistory {
        match self {
            FetchedHistory::Borrowed(h) => h,
            FetchedHistory::Shared(h) => h,
            FetchedHistory::Owned(h) => h,
        }
    }
}

impl PartialEq for FetchedHistory<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl FetchedHistory<'_> {
    /// The history by value, cloning unless it was already owned here.
    pub fn into_owned(self) -> PageHistory {
        match self {
            FetchedHistory::Borrowed(h) => h.clone(),
            FetchedHistory::Shared(h) => Arc::unwrap_or_clone(h),
            FetchedHistory::Owned(h) => h,
        }
    }
}

impl FetchSource for RevisionStore {
    fn fetch_history(&self, entity: EntityId) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        Ok(self.fetch(entity).map(FetchedHistory::Borrowed))
    }

    fn crawl_stats(&self) -> CrawlStats {
        self.stats()
    }

    fn history_version(&self, entity: EntityId) -> u64 {
        // Histories are append-only (out-of-order arrivals re-sort but
        // never remove), so the revision count is a perfect version.
        self.peek(entity).map_or(0, |h| h.len() as u64)
    }
}

impl<T: FetchSource + ?Sized> FetchSource for &T {
    fn fetch_history(&self, entity: EntityId) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        (**self).fetch_history(entity)
    }

    fn fetch_window(
        &self,
        entity: EntityId,
        window: &Window,
    ) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        (**self).fetch_window(entity, window)
    }

    fn crawl_stats(&self) -> CrawlStats {
        (**self).crawl_stats()
    }

    fn history_version(&self, entity: EntityId) -> u64 {
        (**self).history_version(entity)
    }
}

/// Retry/backoff policy for [`ResilientFetcher`].
///
/// `Deserialize` is hand-written (below) so out-of-range values — zero
/// attempts, a non-finite or non-positive backoff factor, a zero breaker
/// threshold — are rejected with a clear error when the config is loaded,
/// instead of surfacing as a wedged fetcher or silent degraded-backoff
/// behavior deep inside a mining run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Total attempts per page, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_backoff_us: u64,
    /// Multiplier applied to the backoff per further retry.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff, in microseconds.
    pub max_backoff_us: u64,
    /// Total retries allowed across the whole run; when spent, pages fail
    /// after their first attempt.
    pub retry_budget: u64,
    /// Consecutive failed attempts (across pages) that trip the circuit
    /// breaker, after which every fetch fails fast with
    /// [`FetchError::CircuitOpen`].
    pub breaker_threshold: u32,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            // Deep enough that even a 20% transient-fault rate loses a page
            // with probability 0.2^10 ≈ 1e-7 — effectively never over a
            // full crawl.
            max_attempts: 10,
            base_backoff_us: 200,
            backoff_factor: 2.0,
            max_backoff_us: 5_000,
            retry_budget: 1_000_000,
            breaker_threshold: 64,
            jitter_seed: 0x5EED_BACC,
        }
    }
}

impl<'de> serde::Deserialize<'de> for RetryPolicy {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::{content_into_fields, take_field};
        const NAME: &str = "RetryPolicy";
        let content = serde::Deserializer::deserialize_content(deserializer)?;
        let mut fields = content_into_fields::<D::Error>(content, NAME)?;
        let policy = Self {
            max_attempts: take_field(&mut fields, "max_attempts", NAME)?,
            base_backoff_us: take_field(&mut fields, "base_backoff_us", NAME)?,
            backoff_factor: take_field(&mut fields, "backoff_factor", NAME)?,
            max_backoff_us: take_field(&mut fields, "max_backoff_us", NAME)?,
            retry_budget: take_field(&mut fields, "retry_budget", NAME)?,
            breaker_threshold: take_field(&mut fields, "breaker_threshold", NAME)?,
            jitter_seed: take_field(&mut fields, "jitter_seed", NAME)?,
        };
        policy.validate().map_err(serde::de::Error::custom)?;
        Ok(policy)
    }
}

impl RetryPolicy {
    /// Validates the policy's values; the error says which knob is wrong.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err(
                "retry policy: max_attempts must be at least 1 (1 = no retries)".to_owned(),
            );
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor <= 0.0 {
            return Err(format!(
                "retry policy: backoff_factor must be a finite positive number, got {}",
                self.backoff_factor
            ));
        }
        if self.breaker_threshold == 0 {
            return Err(
                "retry policy: breaker_threshold must be at least 1 (the breaker would start open)"
                    .to_owned(),
            );
        }
        Ok(())
    }

    /// A policy that never retries: every retryable error becomes
    /// [`FetchError::Exhausted`] after one attempt.
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// A default policy with `max_attempts` total attempts.
    pub fn with_attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }
}

/// Wraps any [`FetchSource`] with bounded retries, exponential backoff with
/// seeded jitter, a per-run retry budget, and a circuit breaker. All state
/// is atomic so one fetcher can be shared across the parallel per-window
/// miners.
pub struct ResilientFetcher<S> {
    inner: S,
    policy: RetryPolicy,
    retries: AtomicU64,
    gave_up: AtomicU64,
    transient_seen: AtomicU64,
    rate_limited_seen: AtomicU64,
    budget_left: AtomicU64,
    consecutive_failures: AtomicU64,
    breaker_open: AtomicBool,
}

impl<S: FetchSource> ResilientFetcher<S> {
    /// Wraps `inner` with `policy`.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        Self {
            inner,
            policy,
            retries: AtomicU64::new(0),
            gave_up: AtomicU64::new(0),
            transient_seen: AtomicU64::new(0),
            rate_limited_seen: AtomicU64::new(0),
            budget_left: AtomicU64::new(policy.retry_budget),
            consecutive_failures: AtomicU64::new(0),
            breaker_open: AtomicBool::new(false),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Whether the circuit breaker has tripped this run.
    pub fn breaker_tripped(&self) -> bool {
        self.breaker_open.load(Ordering::Relaxed)
    }

    /// Retries performed so far.
    pub fn retries_used(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Pages abandoned after exhausting the policy.
    pub fn pages_given_up(&self) -> u64 {
        self.gave_up.load(Ordering::Relaxed)
    }

    /// Spends one unit of the run-wide retry budget; `false` if empty.
    fn try_spend_budget(&self) -> bool {
        let mut cur = self.budget_left.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            match self.budget_left.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Sleeps the exponential backoff for retry number `attempt`, with
    /// deterministic jitter in [50%, 100%] of the nominal delay. Rate-limit
    /// signals double the wait.
    fn backoff(&self, entity: EntityId, attempt: u32, rate_limited: bool) {
        let roll = mix64(
            self.policy
                .jitter_seed
                .wrapping_add((entity.as_u32() as u64) << 20)
                .wrapping_add(attempt as u64),
        );
        let wait_us = backoff_delay_us(&self.policy, attempt, roll, rate_limited);
        if wait_us > 0 {
            std::thread::sleep(Duration::from_micros(wait_us));
        }
    }
}

/// The backoff delay in microseconds before retry number `attempt`
/// (1-based), given a jitter `roll`. Pure so the boundary arithmetic is
/// unit-testable in isolation from the sleeping fetcher.
///
/// Guarantees, for *any* policy values:
/// * the result never exceeds `max_backoff_us` — the exponential is clamped
///   to the cap **before** jitter is applied (and re-clamped after the
///   rate-limit doubling), so `max_backoff_us < base_backoff_us` still caps;
/// * no NaN or cast overflow — a non-finite or non-positive
///   `backoff_factor` degrades to 1.0 (constant backoff) instead of
///   producing sign-alternating or NaN delays, and an exponent large enough
///   to overflow the `f64` saturates at the cap rather than wrapping in the
///   `f64 → u64` cast;
/// * jitter keeps the delay within [50%, 100%] of the clamped nominal value.
pub fn backoff_delay_us(policy: &RetryPolicy, attempt: u32, roll: u64, rate_limited: bool) -> u64 {
    let factor = if policy.backoff_factor.is_finite() && policy.backoff_factor > 0.0 {
        policy.backoff_factor
    } else {
        1.0
    };
    let max = policy.max_backoff_us as f64;
    // `attempt` is u32 but `powi` takes i32: clamp instead of `as`-casting,
    // which would wrap huge retry counts to a *negative* exponent.
    let exponent = attempt.saturating_sub(1).min(i32::MAX as u32) as i32;
    let nominal = policy.base_backoff_us as f64 * factor.powi(exponent);
    let capped = if nominal.is_finite() {
        nominal.min(max)
    } else {
        max
    };
    let jitter = (roll % 1024) as f64 / 1024.0;
    let mut wait_us = (capped * (0.5 + 0.5 * jitter)) as u64;
    if rate_limited {
        wait_us = wait_us.saturating_mul(2);
    }
    wait_us.min(policy.max_backoff_us)
}

impl<S: FetchSource> ResilientFetcher<S> {
    /// Runs `fetch` under the policy: retries, backoff, budget and breaker.
    fn with_retries<'s>(
        &'s self,
        entity: EntityId,
        fetch: impl Fn() -> Result<Option<FetchedHistory<'s>>, FetchError>,
    ) -> Result<Option<FetchedHistory<'s>>, FetchError> {
        if self.breaker_open.load(Ordering::Relaxed) {
            return Err(FetchError::CircuitOpen);
        }
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            match fetch() {
                Ok(history) => {
                    self.consecutive_failures.store(0, Ordering::Relaxed);
                    return Ok(history);
                }
                Err(err) if err.is_retryable() => {
                    match err {
                        FetchError::Transient => {
                            self.transient_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        FetchError::RateLimited => {
                            self.rate_limited_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => unreachable!("only transient errors are retryable"),
                    }
                    let failures = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
                    if failures >= self.policy.breaker_threshold as u64 {
                        self.breaker_open.store(true, Ordering::Relaxed);
                        self.gave_up.fetch_add(1, Ordering::Relaxed);
                        return Err(FetchError::CircuitOpen);
                    }
                    if attempt >= self.policy.max_attempts || !self.try_spend_budget() {
                        self.gave_up.fetch_add(1, Ordering::Relaxed);
                        return Err(FetchError::Exhausted { attempts: attempt });
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff(entity, attempt, matches!(err, FetchError::RateLimited));
                }
                Err(err) => {
                    // A definitive answer (e.g. `Gone`): the source responded,
                    // so it does not count toward the breaker.
                    self.consecutive_failures.store(0, Ordering::Relaxed);
                    return Err(err);
                }
            }
        }
    }
}

impl<S: FetchSource> FetchSource for ResilientFetcher<S> {
    fn fetch_history(&self, entity: EntityId) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        self.with_retries(entity, || self.inner.fetch_history(entity))
    }

    fn fetch_window(
        &self,
        entity: EntityId,
        window: &Window,
    ) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        self.with_retries(entity, || self.inner.fetch_window(entity, window))
    }

    fn crawl_stats(&self) -> CrawlStats {
        let mut stats = self.inner.crawl_stats();
        stats.retries += self.retries.load(Ordering::Relaxed);
        stats.gave_up_pages += self.gave_up.load(Ordering::Relaxed);
        stats.transient_errors += self.transient_seen.load(Ordering::Relaxed);
        stats.rate_limited += self.rate_limited_seen.load(Ordering::Relaxed);
        stats
    }

    fn history_version(&self, entity: EntityId) -> u64 {
        self.inner.history_version(entity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn eid(i: u32) -> EntityId {
        EntityId::from_u32(i)
    }

    /// A scripted source: pops the front error for each call, succeeding
    /// with an empty answer once the script for the entity runs out.
    struct Scripted {
        script: Mutex<Vec<FetchError>>,
    }

    impl Scripted {
        fn new(errors: Vec<FetchError>) -> Self {
            Self {
                script: Mutex::new(errors),
            }
        }
    }

    impl FetchSource for Scripted {
        fn fetch_history(
            &self,
            _entity: EntityId,
        ) -> Result<Option<FetchedHistory<'_>>, FetchError> {
            let mut script = self.script.lock().unwrap();
            if script.is_empty() {
                Ok(None)
            } else {
                Err(script.remove(0))
            }
        }
    }

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff_us: 0,
            max_backoff_us: 0,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn retry_policy_validates_at_deserialize() {
        let good = serde_json::to_string(&RetryPolicy::default()).unwrap();
        let back: RetryPolicy = serde_json::from_str(&good).unwrap();
        assert_eq!(back, RetryPolicy::default());

        for (from, to, expect) in [
            ("\"max_attempts\":10", "\"max_attempts\":0", "max_attempts"),
            (
                "\"backoff_factor\":2",
                "\"backoff_factor\":-1",
                "backoff_factor",
            ),
            (
                "\"breaker_threshold\":64",
                "\"breaker_threshold\":0",
                "breaker_threshold",
            ),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "replacement {from} did not apply");
            let err = serde_json::from_str::<RetryPolicy>(&bad).unwrap_err();
            assert!(
                err.to_string().contains(expect),
                "error for {to} should name the knob: {err}"
            );
        }
    }

    #[test]
    fn store_is_a_fetch_source() {
        let mut store = RevisionStore::new();
        store.record(eid(1), 10, "v1".into());
        let source: &dyn FetchSource = &store;
        assert!(source.fetch_history(eid(1)).unwrap().is_some());
        assert!(source.fetch_history(eid(2)).unwrap().is_none());
        assert_eq!(source.crawl_stats().pages_fetched, 1);
    }

    #[test]
    fn retries_recover_from_transient_errors() {
        let scripted = Scripted::new(vec![FetchError::Transient, FetchError::RateLimited]);
        let fetcher = ResilientFetcher::new(scripted, fast_policy(4));
        assert_eq!(fetcher.fetch_history(eid(1)), Ok(None));
        let stats = fetcher.crawl_stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.transient_errors, 1);
        assert_eq!(stats.rate_limited, 1);
        assert_eq!(stats.gave_up_pages, 0);
        assert!(!fetcher.breaker_tripped());
    }

    #[test]
    fn exhaustion_after_bounded_attempts() {
        let scripted = Scripted::new(vec![FetchError::Transient; 10]);
        let fetcher = ResilientFetcher::new(scripted, fast_policy(3));
        assert_eq!(
            fetcher.fetch_history(eid(1)),
            Err(FetchError::Exhausted { attempts: 3 })
        );
        assert_eq!(fetcher.pages_given_up(), 1);
        assert_eq!(fetcher.retries_used(), 2);
    }

    #[test]
    fn no_retries_policy_fails_on_first_error() {
        let scripted = Scripted::new(vec![FetchError::Transient]);
        let fetcher = ResilientFetcher::new(scripted, RetryPolicy::no_retries());
        assert_eq!(
            fetcher.fetch_history(eid(1)),
            Err(FetchError::Exhausted { attempts: 1 })
        );
        assert_eq!(fetcher.retries_used(), 0);
    }

    #[test]
    fn gone_is_not_retried() {
        let scripted = Scripted::new(vec![FetchError::Gone { revisions_lost: 7 }]);
        let fetcher = ResilientFetcher::new(scripted, fast_policy(5));
        assert_eq!(
            fetcher.fetch_history(eid(1)),
            Err(FetchError::Gone { revisions_lost: 7 })
        );
        assert_eq!(fetcher.retries_used(), 0);
        assert_eq!(fetcher.pages_given_up(), 0);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let scripted = Scripted::new(vec![FetchError::Transient; 100]);
        let policy = RetryPolicy {
            breaker_threshold: 5,
            ..fast_policy(100)
        };
        let fetcher = ResilientFetcher::new(scripted, policy);
        assert_eq!(fetcher.fetch_history(eid(1)), Err(FetchError::CircuitOpen));
        assert!(fetcher.breaker_tripped());
        // Once open, it fails fast without touching the source.
        assert_eq!(fetcher.fetch_history(eid(2)), Err(FetchError::CircuitOpen));
    }

    #[test]
    fn backoff_nonpositive_factor_degrades_to_constant() {
        // factor ≤ 0 used to alternate sign via powi (odd exponents →
        // negative nominal → zero wait); it must mean "constant backoff".
        for factor in [0.0, -2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let policy = RetryPolicy {
                base_backoff_us: 400,
                backoff_factor: factor,
                max_backoff_us: 5_000,
                ..RetryPolicy::default()
            };
            for attempt in 1..=8u32 {
                for roll in [0u64, 511, 1023, u64::MAX] {
                    let d = backoff_delay_us(&policy, attempt, roll, false);
                    assert!(
                        (200..=400).contains(&d),
                        "factor {factor} attempt {attempt} roll {roll}: got {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn backoff_huge_attempt_counts_saturate_at_cap() {
        let policy = RetryPolicy::default(); // factor 2.0, cap 5000 µs
        for attempt in [100, 1_000, 1_000_000, i32::MAX as u32, u32::MAX] {
            for roll in [0u64, 1023] {
                let d = backoff_delay_us(&policy, attempt, roll, false);
                assert!(d <= policy.max_backoff_us, "attempt {attempt}: got {d}");
                assert!(d >= policy.max_backoff_us / 2, "attempt {attempt}: got {d}");
            }
            let doubled = backoff_delay_us(&policy, attempt, 1023, true);
            assert!(doubled <= policy.max_backoff_us);
        }
    }

    #[test]
    fn backoff_cap_below_base_still_caps() {
        let policy = RetryPolicy {
            base_backoff_us: 10_000,
            max_backoff_us: 100,
            ..RetryPolicy::default()
        };
        for attempt in 1..=6u32 {
            for rate_limited in [false, true] {
                let d = backoff_delay_us(&policy, attempt, u64::MAX, rate_limited);
                assert!(d <= 100, "attempt {attempt}: got {d}");
            }
        }
    }

    #[test]
    fn backoff_clamps_before_jitter() {
        // With the clamp applied first, the delay at saturation stays within
        // [cap/2, cap] for every roll — jitter of an *unclamped* exponential
        // would instead pin every roll to exactly the cap.
        let policy = RetryPolicy::default();
        let lows = (0..64u64)
            .map(|roll| backoff_delay_us(&policy, 30, roll * 16, false))
            .filter(|&d| d < policy.max_backoff_us * 3 / 4)
            .count();
        assert!(lows > 0, "jitter must still spread delays below the cap");
    }

    #[test]
    fn retry_budget_bounds_total_retries() {
        let scripted = Scripted::new(vec![FetchError::Transient; 100]);
        let policy = RetryPolicy {
            retry_budget: 2,
            ..fast_policy(100)
        };
        let fetcher = ResilientFetcher::new(scripted, policy);
        assert_eq!(
            fetcher.fetch_history(eid(1)),
            Err(FetchError::Exhausted { attempts: 3 })
        );
        assert_eq!(fetcher.retries_used(), 2);
    }
}
