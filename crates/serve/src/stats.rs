//! Serving counters and the suggestion-path latency histogram.
//!
//! Mirrors the batch pipeline's `MineStats` idiom — cheap relaxed atomics
//! on the hot path, a derived serializable snapshot at reporting time —
//! but adds a fixed 64-bucket log2 nanosecond histogram so percentiles
//! come out without recording individual samples. Bucket `i` covers
//! latencies in `[2^i, 2^(i+1))` ns; p99 at sub-millisecond scale needs no
//! more resolution than that, and recording is one `fetch_add`.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 64;

/// Lock-free counters shared by every worker thread of a server.
pub struct ServeStats {
    /// Requests accepted (all ops).
    pub requests: AtomicU64,
    /// `suggest` requests specifically.
    pub suggest_requests: AtomicU64,
    /// Suggestions returned across all `suggest` responses.
    pub suggestions_returned: AtomicU64,
    /// Malformed or failed requests answered with an error response.
    pub errors: AtomicU64,
    /// Handler panics converted into error responses.
    pub panics_caught: AtomicU64,
    /// Successful index hot-swaps.
    pub swaps: AtomicU64,
    /// Reloads rejected (build failure or oversized set); previous index
    /// kept.
    pub reloads_rejected: AtomicU64,
    /// Socket writes of response bytes. A pipelined burst is answered in
    /// one write, so `requests / writes` is the responses sent per write.
    pub writes: AtomicU64,
    /// Log2-bucketed suggestion-path latency, nanoseconds.
    latency: [AtomicU64; BUCKETS],
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self {
            requests: AtomicU64::new(0),
            suggest_requests: AtomicU64::new(0),
            suggestions_returned: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one suggestion-path latency sample.
    pub fn record_latency_ns(&self, ns: u64) {
        let bucket = (64 - ns.max(1).leading_zeros() - 1) as usize;
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Latency at quantile `q` (0.0–1.0) in nanoseconds: the upper bound of
    /// the bucket containing the q-th sample. `None` before any sample.
    pub fn latency_quantile_ns(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i (conservative).
                return Some(if i >= 63 { u64::MAX } else { 2u64 << i });
            }
        }
        Some(u64::MAX)
    }

    /// A serializable point-in-time snapshot, plus derived percentiles.
    pub fn snapshot(&self, epoch: u64) -> StatsSnapshot {
        let to_us = |ns: Option<u64>| ns.map(|n| n as f64 / 1e3);
        StatsSnapshot {
            epoch,
            requests: self.requests.load(Ordering::Relaxed),
            suggest_requests: self.suggest_requests.load(Ordering::Relaxed),
            suggestions_returned: self.suggestions_returned.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            reloads_rejected: self.reloads_rejected.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            suggest_p50_us: to_us(self.latency_quantile_ns(0.50)),
            suggest_p90_us: to_us(self.latency_quantile_ns(0.90)),
            suggest_p99_us: to_us(self.latency_quantile_ns(0.99)),
        }
    }
}

/// What `/stats` reports: raw counters plus derived latency percentiles
/// (microseconds, log2-bucket upper bounds) and the current index epoch.
#[derive(Debug, Clone, Serialize)]
pub struct StatsSnapshot {
    /// Current index generation.
    pub epoch: u64,
    /// Requests accepted (all ops).
    pub requests: u64,
    /// `suggest` requests.
    pub suggest_requests: u64,
    /// Suggestions returned in total.
    pub suggestions_returned: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Handler panics converted to error responses.
    pub panics_caught: u64,
    /// Successful hot-swaps.
    pub swaps: u64,
    /// Rejected reloads (previous index kept).
    pub reloads_rejected: u64,
    /// Socket writes of response bytes (one per pipelined burst).
    pub writes: u64,
    /// Suggestion-path p50, microseconds.
    pub suggest_p50_us: Option<f64>,
    /// Suggestion-path p90, microseconds.
    pub suggest_p90_us: Option<f64>,
    /// Suggestion-path p99, microseconds.
    pub suggest_p99_us: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_log2_buckets() {
        let s = ServeStats::new();
        assert_eq!(s.latency_quantile_ns(0.99), None);
        // 99 fast samples (~1µs) and one slow (~1ms).
        for _ in 0..99 {
            s.record_latency_ns(1_000);
        }
        s.record_latency_ns(1_000_000);
        // p50 lands in the 1µs bucket: upper bound 2^10 = 1024ns.
        assert_eq!(s.latency_quantile_ns(0.50), Some(1024));
        // p99 still in the fast bucket (99/100 samples).
        assert_eq!(s.latency_quantile_ns(0.99), Some(1024));
        // p100 reaches the slow bucket: 2^20 = 1048576ns upper bound.
        assert_eq!(s.latency_quantile_ns(1.0), Some(1 << 20));
    }

    #[test]
    fn snapshot_serializes_with_epoch() {
        let s = ServeStats::new();
        s.requests.fetch_add(3, Ordering::Relaxed);
        s.record_latency_ns(500);
        let snap = s.snapshot(7);
        let json = serde_json::to_string(&snap).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v.get("epoch").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("requests").and_then(|x| x.as_u64()), Some(3));
        assert!(v.get("suggest_p99_us").and_then(|x| x.as_f64()).is_some());
    }
}
