//! In-memory span recorder for the traced run.
//!
//! A span is recorded at each call the benchmark makes into a layer: its
//! name (the layer), start, end, and the span that enclosed it. Spans stay
//! in memory until the run ends, then [`Tracer::write_chrome`] writes them
//! as Chrome trace-event JSON and [`Tracer::self_times`] ranks the layers
//! by self time. A disabled tracer records nothing and reads no clock, so
//! untraced runs pay nothing for it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The span name that delimits one round of a workload's timed phase.
pub const ROUND: &str = "round";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.windows`.
    pub name: &'static str,
    /// Offset of the call's start from the tracer's origin.
    pub start: Duration,
    /// Offset of the call's end from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timed-phase round the span belongs to (`None` outside rounds).
    pub round: Option<usize>,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans on the calling thread (every workload drives its layers
/// from one thread).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    rounds: Cell<usize>,
    round: Cell<Option<usize>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            rounds: Cell::new(0),
            round: Cell::new(None),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let ix = {
            let mut spans = self.spans.borrow_mut();
            if name == ROUND {
                self.round.set(Some(self.rounds.get()));
                self.rounds.set(self.rounds.get() + 1);
            }
            spans.push(Span {
                name,
                start: self.origin.elapsed(),
                end: Duration::ZERO,
                parent: self.open.borrow().last().copied(),
                round: self.round.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(ix);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[ix].end = self.origin.elapsed();
        if name == ROUND {
            self.round.set(None);
        }
        out
    }

    /// Records a call timed by the caller (for calls that only turn out to
    /// be worth a span once they return, such as a stream ingest that
    /// sealed a window).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.borrow_mut().push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.open.borrow().last().copied(),
            round: self.round.get(),
        });
    }

    /// Every recorded span, in start order of recording.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in seconds of the spans called `name`, grouped by round;
    /// one entry per round, in round order.
    pub fn per_round(&self, name: &str) -> Vec<Vec<f64>> {
        let mut rounds = vec![Vec::new(); self.rounds.get()];
        for s in self.spans.borrow().iter() {
            if let (true, Some(r)) = (s.name == name, s.round) {
                rounds[r].push(s.duration().as_secs_f64());
            }
        }
        rounds
    }

    /// Seconds spent in spans called `name`, summed per round.
    pub fn per_round_s(&self, name: &str) -> Vec<f64> {
        self.per_round(name)
            .iter()
            .map(|r| r.iter().sum())
            .collect()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// Total self time (span duration minus the time its child spans cover)
    /// per layer, in seconds, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans.borrow();
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            *by_name.entry(s.name).or_default() +=
                s.duration().saturating_sub(child[i]).as_secs_f64();
        }
        let mut ranked: Vec<(&'static str, f64)> = by_name.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
    }

    /// Writes every span as Chrome trace-event JSON (complete events,
    /// microsecond timestamps), loadable in any browser trace viewer.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let round = s.round.map_or("null".to_owned(), |r| r.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{round}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_rounds_group_spans() {
        let t = Tracer::new(true);
        for _ in 0..2 {
            t.span(ROUND, || {
                t.span("outer", || {
                    t.span("inner", || std::thread::sleep(Duration::from_millis(4)));
                    std::thread::sleep(Duration::from_millis(2));
                });
            });
        }
        assert_eq!(t.per_round_s("inner").len(), 2);
        assert!(t.per_round_s("inner").iter().all(|&s| s >= 0.004));
        let selfs: BTreeMap<_, _> = t.self_times().into_iter().collect();
        assert!(selfs["inner"] >= 0.008);
        assert!(selfs["outer"] >= 0.004 && selfs["outer"] < selfs["inner"]);
        let spans = t.spans();
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].round, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.record("y", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
