//! Embarrassingly parallel multi-window mining, with per-window fault
//! isolation.
//!
//! WiClean restricts itself to non-overlapping windows precisely so that
//! the per-window action sets — and hence the mining runs — are
//! independent (paper §4.3); "this is easily exploitable in a multi-core
//! setting" (§6.2, Figure 4(d)). Windows are distributed as one batch over
//! a [`MiningPool`] sized by the run's `threads` knob — the *same* pool the
//! miners' intra-window candidate evaluation fans out on, so a run with a
//! single window still saturates every core (two-level parallelism).
//!
//! A panicking worker must not take the run down with it: each window is
//! mined under [`std::panic::catch_unwind`], so one poisoned window
//! surfaces as an explicit [`WindowFailure`] while every other window's
//! result survives. (The shared state — pool batches, `parking_lot`
//! caches, the pattern interner — is lock-free or non-poisoning, so
//! observing it after a caught panic is sound.)

use crate::miner::{WindowMiner, WindowResult};
use crate::pool::MiningPool;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wiclean_types::{TypeId, Window};

/// A window whose worker panicked: the window is reported, everything else
/// completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowFailure {
    /// The window that could not be mined.
    pub window: Window,
    /// The seed type the failed run was mining for.
    pub seed: TypeId,
    /// The worker's panic message.
    pub panic: String,
}

impl fmt::Display for WindowFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "window {} (seed type {}) failed: {}",
            self.window,
            self.seed.as_u32(),
            self.panic
        )
    }
}

/// Renders a caught panic payload. `panic!("...")` yields `&str` or
/// `String`, but `panic_any` can carry anything — common scalar payloads
/// are rendered by value, and everything else at least reports its type
/// instead of being swallowed.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let payload = match payload.downcast::<String>() {
        Ok(s) => return *s,
        Err(p) => p,
    };
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<std::borrow::Cow<'static, str>>() {
        return s.to_string();
    }
    macro_rules! try_scalar {
        ($($ty:ty),*) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!("non-string panic payload ({}): {v}", stringify!($ty));
            })*
        };
    }
    try_scalar!(i32, i64, u32, u64, usize, isize, f64, bool, char);
    format!(
        "non-string panic payload (type id {:?})",
        (*payload).type_id()
    )
}

/// Runs `mine` over every window as one batch on `pool` (width 1 =
/// sequential on the calling thread), isolating per-window panics.
/// Results are returned in window order; a panicked window yields
/// `Err(WindowFailure)` carrying `seed` and leaves every other window's
/// result intact. Nested intra-window batches submitted by miners holding
/// the same pool interleave with the window tasks (work stealing).
///
/// Generic over the mining closure so tests (and embedders with custom
/// per-window work) can inject faults; [`mine_windows`] passes
/// [`WindowMiner::mine_window`].
pub fn run_windows(
    windows: &[Window],
    seed: TypeId,
    pool: &MiningPool,
    mine: impl Fn(&Window) -> WindowResult + Sync,
) -> Vec<Result<WindowResult, WindowFailure>> {
    if windows.is_empty() {
        return Vec::new();
    }
    pool.map(windows, |w| {
        catch_unwind(AssertUnwindSafe(|| mine(w))).map_err(|payload| WindowFailure {
            window: *w,
            seed,
            panic: panic_message(payload),
        })
    })
}

/// Mines every window in `windows` w.r.t. `seed` with `miner`, the
/// windows fanned out over `pool` ([`run_windows`]). Attach the same pool
/// to the miner ([`WindowMiner::with_pool`]) and each miner nests its
/// candidate-evaluation batches into it, so a single slow window spreads
/// over every idle worker. Each window is mined with a fresh memo;
/// Algorithm 2 calls [`run_windows`] itself to keep memos across
/// iterations.
pub fn mine_windows(
    miner: &WindowMiner<'_>,
    seed: TypeId,
    windows: &[Window],
    pool: &MiningPool,
) -> Vec<Result<WindowResult, WindowFailure>> {
    run_windows(windows, seed, pool, |w| miner.mine_window(seed, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::testutil::soccer_fixture;
    use std::collections::BTreeSet;

    /// Mines `windows` over the fixture on a fresh `threads`-wide pool
    /// shared with the miner, unwrapping every window's result.
    fn mine_fixture(
        fx: &crate::testutil::Fixture,
        windows: &[Window],
        threads: usize,
    ) -> Vec<WindowResult> {
        let pool = std::sync::Arc::new(MiningPool::new(threads));
        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config()).with_pool(pool.clone());
        mine_windows(&miner, fx.player_ty, windows, &pool)
            .into_iter()
            .map(|r| r.unwrap_or_else(|f| panic!("{f}")))
            .collect()
    }

    #[test]
    fn parallel_equals_sequential() {
        let fx = soccer_fixture();
        // Split the fixture window into 4 sub-windows.
        let windows = Window::split_span(fx.window.start, fx.window.end, fx.window.len() / 4);
        let seq = mine_fixture(&fx, &windows, 1);
        let par = mine_fixture(&fx, &windows, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.window, p.window);
            let sp: BTreeSet<Pattern> = s.patterns.iter().map(|x| x.pattern.clone()).collect();
            let pp: BTreeSet<Pattern> = p.patterns.iter().map(|x| x.pattern.clone()).collect();
            assert_eq!(sp, pp);
        }
    }

    #[test]
    fn empty_window_list() {
        let fx = soccer_fixture();
        assert!(mine_fixture(&fx, &[], 4).is_empty());
    }

    #[test]
    fn more_threads_than_windows_is_fine() {
        let fx = soccer_fixture();
        assert_eq!(mine_fixture(&fx, &[fx.window], 16).len(), 1);
    }

    #[test]
    fn worker_panic_is_isolated() {
        let fx = soccer_fixture();
        let windows = Window::split_span(fx.window.start, fx.window.end, fx.window.len() / 4);
        assert!(
            windows.len() >= 3,
            "fixture must split into several windows"
        );
        let poison = windows[1];

        let miner = WindowMiner::new(&fx.store, &fx.universe, fx.config());
        let out = run_windows(&windows, fx.player_ty, &MiningPool::new(4), |w| {
            if *w == poison {
                panic!("injected worker fault");
            }
            miner.mine_window(fx.player_ty, w)
        });

        assert_eq!(out.len(), windows.len());
        let clean = mine_fixture(&fx, &windows, 1);
        for (i, r) in out.iter().enumerate() {
            if windows[i] == poison {
                let failure = r.as_ref().expect_err("poisoned window must fail");
                assert_eq!(failure.window, poison);
                assert_eq!(failure.seed, fx.player_ty);
                assert!(failure.panic.contains("injected worker fault"));
            } else {
                // Every healthy window's result is intact and identical to
                // the clean run.
                let got = r.as_ref().expect("healthy window must succeed");
                let gp: BTreeSet<Pattern> =
                    got.patterns.iter().map(|x| x.pattern.clone()).collect();
                let cp: BTreeSet<Pattern> = clean[i]
                    .patterns
                    .iter()
                    .map(|x| x.pattern.clone())
                    .collect();
                assert_eq!(gp, cp);
            }
        }
    }

    #[test]
    fn sequential_path_also_isolates_panics() {
        let fx = soccer_fixture();
        let windows = [fx.window];
        let out = run_windows(
            &windows,
            fx.player_ty,
            &MiningPool::new(1),
            |_w| -> crate::miner::WindowResult { panic!("boom {}", 42) },
        );
        assert_eq!(out.len(), 1);
        let failure = out[0].as_ref().unwrap_err();
        assert!(failure.panic.contains("boom 42"));
        assert_eq!(failure.seed, fx.player_ty);
    }

    #[test]
    fn non_string_panic_payloads_are_not_swallowed() {
        let fx = soccer_fixture();
        let windows = [fx.window];

        let out = run_windows(
            &windows,
            fx.player_ty,
            &MiningPool::new(1),
            |_w| -> crate::miner::WindowResult { std::panic::panic_any(17usize) },
        );
        let failure = out[0].as_ref().unwrap_err();
        assert!(
            failure.panic.contains("17") && failure.panic.contains("usize"),
            "scalar payload must be rendered by value, got: {}",
            failure.panic
        );

        let out = run_windows(
            &windows,
            fx.player_ty,
            &MiningPool::new(1),
            |_w| -> crate::miner::WindowResult {
                std::panic::panic_any(std::borrow::Cow::<'static, str>::Owned(
                    "cow payload".to_string(),
                ))
            },
        );
        let failure = out[0].as_ref().unwrap_err();
        assert!(
            failure.panic.contains("cow payload"),
            "Cow<str> payload must be rendered, got: {}",
            failure.panic
        );

        // Arbitrary payloads at least identify themselves as non-string.
        #[derive(Debug)]
        struct Opaque;
        let out = run_windows(
            &windows,
            fx.player_ty,
            &MiningPool::new(1),
            |_w| -> crate::miner::WindowResult { std::panic::panic_any(Opaque) },
        );
        let failure = out[0].as_ref().unwrap_err();
        assert!(
            failure.panic.contains("non-string panic payload"),
            "opaque payload must be flagged, got: {}",
            failure.panic
        );
    }
}
