//! Deterministic, seed-driven fault injection over a [`RevisionStore`].
//!
//! [`FaultyStore`] decorates the in-memory store with the failure modes a
//! real crawl of revision logs exhibits: transient errors, rate-limit
//! signals, injected latency, truncated or garbled revision text, and
//! permanently missing pages. Every fault is a pure function of
//! `(seed, entity, attempt)` via a splitmix64 hash, so outcomes are
//! reproducible regardless of thread interleaving — retrying a transient
//! failure re-rolls (new attempt number), while a `Gone` page stays gone
//! on every attempt.

use crate::fetch::{FetchError, FetchSource, FetchedHistory};
use crate::store::{CrawlStats, PageHistory, RevisionStore};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use wiclean_types::EntityId;

/// splitmix64 finalizer: a cheap, well-distributed 64-bit hash used for
/// every deterministic roll in the fault layer (and for backoff jitter).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to the unit interval [0, 1).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// How garbled revision text is damaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GarbleMode {
    /// Drop the second half of the text (a truncated download), leaving
    /// unclosed blocks for the parser to recover from.
    #[default]
    Truncate,
    /// Break every `]]` closer (line noise), leaving unterminated links.
    Scramble,
}

/// The fault profile a [`FaultyStore`] injects. All rates are independent
/// per-fetch probabilities in [0, 1].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every deterministic roll.
    pub seed: u64,
    /// Probability a given attempt fails transiently.
    pub transient_rate: f64,
    /// Probability a given attempt is rate-limited.
    pub rate_limit_rate: f64,
    /// Probability a page is permanently missing (rolled once per entity:
    /// stable across attempts).
    pub gone_rate: f64,
    /// Probability a page's text is garbled (rolled once per entity).
    pub garble_rate: f64,
    /// How garbled text is damaged.
    pub garble_mode: GarbleMode,
    /// Fixed latency added to every fetch, in microseconds.
    pub latency_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0.0,
            rate_limit_rate: 0.0,
            gone_rate: 0.0,
            garble_rate: 0.0,
            garble_mode: GarbleMode::Truncate,
            latency_us: 0,
        }
    }
}

impl FaultPlan {
    /// A plan that only injects transient errors — the profile under which
    /// mining must be byte-identical to the fault-free run once retried.
    pub fn transient_only(rate: f64, seed: u64) -> Self {
        Self {
            seed,
            transient_rate: rate,
            ..Self::default()
        }
    }

    /// Whether this plan injects no faults at all.
    pub fn is_clean(&self) -> bool {
        self.transient_rate == 0.0
            && self.rate_limit_rate == 0.0
            && self.gone_rate == 0.0
            && self.garble_rate == 0.0
            && self.latency_us == 0
    }
}

const SALT_GONE: u64 = 0x6F6E_6521;
const SALT_GARBLE: u64 = 0x6741_7242;
const SALT_TRANSIENT: u64 = 0x7452_6E73;
const SALT_RATE: u64 = 0x7261_7465;

/// A fault-injecting [`FetchSource`] decorator around a [`RevisionStore`].
///
/// Per-entity attempt counters (behind a mutex, so the store stays
/// shareable across the parallel miners) make transient faults re-roll on
/// retry while page-level faults (`Gone`, garbling) stay fixed.
pub struct FaultyStore<'a> {
    inner: &'a RevisionStore,
    plan: FaultPlan,
    attempts: Mutex<HashMap<EntityId, u64>>,
}

impl<'a> FaultyStore<'a> {
    /// Decorates `inner` with `plan`.
    pub fn new(inner: &'a RevisionStore, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fetch attempts seen for `entity` so far.
    pub fn attempts_for(&self, entity: EntityId) -> u64 {
        self.attempts
            .lock()
            .expect("attempt counter mutex poisoned")
            .get(&entity)
            .copied()
            .unwrap_or(0)
    }

    /// Rolls a unit-interval value for a per-entity fault (`attempt` 0) or
    /// a per-attempt fault.
    fn roll(&self, salt: u64, entity: EntityId, attempt: u64) -> f64 {
        let key = mix64(self.plan.seed ^ salt)
            ^ mix64((entity.as_u32() as u64) | (1 << 40))
            ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        unit(mix64(key))
    }
}

/// Damages `text` according to `mode`, always producing valid UTF-8.
fn garble_text(text: &str, mode: GarbleMode) -> String {
    match mode {
        GarbleMode::Truncate => {
            let mut cut = text.len() / 2;
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        GarbleMode::Scramble => text.replace("]]", "]"),
    }
}

impl FetchSource for FaultyStore<'_> {
    fn fetch_history(&self, entity: EntityId) -> Result<Option<FetchedHistory<'_>>, FetchError> {
        if self.plan.latency_us > 0 {
            std::thread::sleep(Duration::from_micros(self.plan.latency_us));
        }
        let attempt = {
            let mut attempts = self
                .attempts
                .lock()
                .expect("attempt counter mutex poisoned");
            let slot = attempts.entry(entity).or_insert(0);
            *slot += 1;
            *slot
        };
        // Page-level faults first: a gone page is gone on every attempt.
        if self.roll(SALT_GONE, entity, 0) < self.plan.gone_rate {
            let revisions_lost = self.inner.peek(entity).map_or(0, |h| h.len() as u64);
            return Err(FetchError::Gone { revisions_lost });
        }
        // Attempt-level faults: independent re-roll per retry.
        if self.roll(SALT_TRANSIENT, entity, attempt) < self.plan.transient_rate {
            return Err(FetchError::Transient);
        }
        if self.roll(SALT_RATE, entity, attempt) < self.plan.rate_limit_rate {
            return Err(FetchError::RateLimited);
        }
        let history = self.inner.fetch_history(entity)?;
        if self.roll(SALT_GARBLE, entity, 0) < self.plan.garble_rate {
            if let Some(history) = history {
                let mut damaged = history.into_owned();
                damaged.garble_texts(self.plan.garble_mode);
                return Ok(Some(FetchedHistory::Owned(damaged)));
            }
        }
        Ok(history)
    }

    fn crawl_stats(&self) -> CrawlStats {
        self.inner.crawl_stats()
    }

    fn history_version(&self, entity: EntityId) -> u64 {
        // Injected damage is a pure function of (seed, entity), so the
        // underlying store's version fully determines what this decorator
        // serves for `entity`.
        self.inner.history_version(entity)
    }
}

impl PageHistory {
    /// Damages every revision's text in place (fault-injection support).
    pub(crate) fn garble_texts(&mut self, mode: GarbleMode) {
        for rev in self.revisions_mut() {
            rev.text = garble_text(&rev.text, mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{ResilientFetcher, RetryPolicy};

    fn eid(i: u32) -> EntityId {
        EntityId::from_u32(i)
    }

    fn store_with(entities: u32) -> RevisionStore {
        let mut store = RevisionStore::new();
        for i in 0..entities {
            store.record(eid(i), 10, format!("{{{{Infobox x\n| f = [[A{i}]]\n}}}}"));
            store.record(eid(i), 20, format!("{{{{Infobox x\n| f = [[B{i}]]\n}}}}"));
        }
        store
    }

    #[test]
    fn clean_plan_is_transparent() {
        let store = store_with(4);
        let faulty = FaultyStore::new(&store, FaultPlan::default());
        for i in 0..4 {
            let got = faulty.fetch_history(eid(i)).unwrap().unwrap();
            assert_eq!(got.len(), 2);
        }
        assert!(faulty.fetch_history(eid(99)).unwrap().is_none());
    }

    #[test]
    fn faults_are_deterministic_per_seed_and_attempt() {
        let store = store_with(64);
        let plan = FaultPlan {
            seed: 7,
            transient_rate: 0.3,
            gone_rate: 0.1,
            ..FaultPlan::default()
        };
        let run = |store: &RevisionStore| {
            let faulty = FaultyStore::new(store, plan);
            (0..64)
                .map(|i| {
                    (0..3)
                        .map(|_| match faulty.fetch_history(eid(i)) {
                            Ok(Some(_)) => 'h',
                            Ok(None) => 'n',
                            Err(FetchError::Transient) => 't',
                            Err(FetchError::Gone { .. }) => 'g',
                            Err(_) => 'e',
                        })
                        .collect::<String>()
                })
                .collect::<Vec<_>>()
        };
        let a = run(&store);
        let b = run(&store);
        assert_eq!(a, b, "same seed must reproduce the same fault pattern");
        assert!(a.iter().any(|s| s.contains('t')), "expect some transients");
        assert!(a.iter().any(|s| s == "ggg"), "gone pages stay gone");
        assert!(
            !a.iter().any(|s| s.contains('g') && s != "ggg"),
            "gone must not depend on the attempt number"
        );
    }

    #[test]
    fn retry_heals_transient_only_faults() {
        let store = store_with(32);
        let plan = FaultPlan::transient_only(0.4, 42);
        let faulty = FaultyStore::new(&store, plan);
        let fetcher = ResilientFetcher::new(
            &faulty,
            RetryPolicy {
                base_backoff_us: 0,
                max_backoff_us: 0,
                max_attempts: 12,
                ..RetryPolicy::default()
            },
        );
        for i in 0..32 {
            let healed = fetcher.fetch_history(eid(i)).unwrap().unwrap();
            let clean = store.peek(eid(i)).unwrap();
            assert_eq!(healed.revisions(), clean.revisions());
        }
    }

    #[test]
    fn garbled_text_is_damaged_but_valid_utf8() {
        let store = store_with(8);
        let plan = FaultPlan {
            seed: 3,
            garble_rate: 1.0,
            garble_mode: GarbleMode::Truncate,
            ..FaultPlan::default()
        };
        let faulty = FaultyStore::new(&store, plan);
        let got = faulty.fetch_history(eid(0)).unwrap().unwrap();
        let clean = store.peek(eid(0)).unwrap();
        for (damaged, original) in got.revisions().iter().zip(clean.revisions()) {
            assert!(damaged.text.len() < original.text.len());
        }

        let plan = FaultPlan {
            garble_mode: GarbleMode::Scramble,
            ..plan
        };
        let faulty = FaultyStore::new(&store, plan);
        let got = faulty.fetch_history(eid(0)).unwrap().unwrap();
        assert!(!got.revisions()[0].text.contains("]]"));
    }

    #[test]
    fn garble_truncate_respects_char_boundaries() {
        assert!(garble_text("héllo wörld", GarbleMode::Truncate).len() <= 6);
        // Must not panic on multi-byte boundaries.
        garble_text("ééééé", GarbleMode::Truncate);
        garble_text("", GarbleMode::Truncate);
    }
}
