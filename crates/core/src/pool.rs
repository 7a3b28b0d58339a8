//! A shared work pool for the two-level mining parallelism model.
//!
//! One [`MiningPool`] is sized by the run's `threads` knob and shared between
//! the window-level driver ([`crate::parallel`]) and the intra-window
//! candidate evaluation inside [`crate::miner::WindowMiner`]. Work is
//! submitted as *batches* of independent index-addressed tasks; idle workers
//! steal indices from any open batch, and the submitting thread always
//! participates in its own batch. That caller participation is what makes
//! nested submission safe: a window task running on a pool worker may submit
//! an intra-window batch and is guaranteed to make progress even when every
//! other worker is busy, so the pool cannot deadlock on nesting.
//!
//! Determinism contract: the pool only decides *which thread* runs task `i`,
//! never *what* task `i` computes or how results are combined. Callers that
//! need deterministic output (all of mining does) must write results into
//! per-index slots and merge them in index order — see [`MiningPool::map`].

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One submitted batch of `len` index-addressed tasks.
///
/// `task` is a lifetime-erased pointer to the submitter's closure. It is only
/// ever dereferenced by a thread that claimed an index `i < len`, and the
/// submitter does not return from [`MiningPool::run_batch`] until `done ==
/// len`, so every dereference happens while the closure is alive.
struct Batch {
    task: *const (dyn Fn(usize) + Sync),
    len: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    complete: Mutex<bool>,
    complete_cv: Condvar,
    /// First panic payload raised by any task; re-thrown on the submitter so
    /// the per-window `catch_unwind` isolation still sees intra-window
    /// panics. Workers survive task panics.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// Safety: `task` points at a `Sync` closure and is only dereferenced while
// the submitting call frame is alive (see the struct docs).
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims indices and runs tasks until the batch has none left.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // Safety: i < len, and the submitter keeps the closure alive
            // until all claimed tasks have finished (done == len).
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*self.task)(i)
            }));
            if let Err(payload) = result {
                let mut first = self.panic.lock().unwrap();
                if first.is_none() {
                    *first = Some(payload);
                }
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.len {
                let mut complete = self.complete.lock().unwrap();
                *complete = true;
                self.complete_cv.notify_all();
            }
        }
    }

    /// Whether all indices have been claimed (running tasks may remain).
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.len
    }
}

struct PoolShared {
    /// Open batches with potentially unclaimed indices.
    open: Mutex<Vec<Arc<Batch>>>,
    /// Signals workers that a batch was submitted or shutdown was requested.
    work_cv: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut open = self.open.lock().unwrap();
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    open.retain(|b| !b.exhausted());
                    if let Some(b) = open.first() {
                        break Arc::clone(b);
                    }
                    open = self.work_cv.wait(open).unwrap();
                }
            };
            batch.drain();
        }
    }
}

/// Work-stealing batch pool shared by window-level and intra-window mining.
pub struct MiningPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    width: usize,
}

impl MiningPool {
    /// Creates a pool with `threads` total parallel width (the submitting
    /// thread counts as one; `threads - 1` workers are spawned). `threads <=
    /// 1` yields a pool that runs everything inline on the caller.
    pub fn new(threads: usize) -> Self {
        let width = threads.max(1);
        let shared = Arc::new(PoolShared {
            open: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (1..width)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wiclean-pool-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            width,
        }
    }

    /// Total parallel width (workers plus the submitting thread).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Runs `f(0..n)` across the pool, returning once every task finished.
    ///
    /// The calling thread participates, so this is safe to call from inside
    /// a task already running on this pool (nested batches). If any task
    /// panics, the first payload is re-thrown here on the submitting thread
    /// after the batch drains, which unwinds into the caller's
    /// `catch_unwind` (the per-window isolation in [`crate::parallel`]).
    pub fn run_batch(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.handles.is_empty() || n == 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let task = f as *const (dyn Fn(usize) + Sync);
        // Safety: erases the closure's borrow lifetime. The pointer is only
        // dereferenced by tasks that complete before this function returns.
        let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let batch = Arc::new(Batch {
            task,
            len: n,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            complete: Mutex::new(false),
            complete_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut open = self.shared.open.lock().unwrap();
            open.push(Arc::clone(&batch));
        }
        self.shared.work_cv.notify_all();
        // Participate: guarantees progress even with zero free workers.
        batch.drain();
        {
            let mut open = self.shared.open.lock().unwrap();
            open.retain(|b| !Arc::ptr_eq(b, &batch));
        }
        // Wait for workers still finishing tasks they already claimed.
        let mut complete = batch.complete.lock().unwrap();
        while !*complete {
            complete = batch.complete_cv.wait(complete).unwrap();
        }
        drop(complete);
        let payload = batch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Deterministic parallel map: `out[i] = f(&items[i])`, merged in index
    /// order regardless of which thread computed each slot.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run_batch(items.len(), &|i| {
            *slots[i].lock().unwrap() = Some(f(&items[i]));
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("pool task completed"))
            .collect()
    }
}

impl Drop for MiningPool {
    fn drop(&mut self) {
        // Set the flag under the lock workers check it under: a worker
        // between its check and its wait would otherwise miss the wakeup
        // and never exit, hanging this join.
        {
            let _open = self.shared.open.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let pool = MiningPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let out = pool.map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn inline_pool_runs_everything() {
        let pool = MiningPool::new(1);
        assert_eq!(pool.width(), 1);
        let sum = AtomicUsize::new(0);
        pool.run_batch(100, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn nested_batches_complete() {
        // Outer batch wider than the pool, each task submitting an inner
        // batch: caller participation must keep everything moving.
        let pool = MiningPool::new(3);
        let total = AtomicUsize::new(0);
        pool.run_batch(8, &|_| {
            pool.run_batch(16, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let pool = MiningPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(64, &|i| {
                if i == 17 {
                    panic!("boom at {i}");
                }
            });
        }));
        assert!(result.is_err(), "panic in a task must reach the submitter");
        // Pool must still be usable afterwards for non-panicking batches.
        let items = [1usize, 2, 3];
        let doubled = pool.map(&items, |&x| x * 2);
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn dropping_a_fresh_pool_never_hangs() {
        // Workers that have just started race the drop's shutdown signal:
        // one between its shutdown check and its wait must still wake.
        // Pools are made and dropped one at a time (3 workers each).
        for _ in 0..2000 {
            drop(MiningPool::new(4));
        }
    }

    #[test]
    fn concurrent_submitters_share_workers() {
        let pool = Arc::new(MiningPool::new(4));
        let results: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let items: Vec<usize> = (0..50).map(|i| i + t * 1000).collect();
                        pool.map(&items, |&x| x + 1).into_iter().sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, sum) in results.into_iter().enumerate() {
            let expect: usize = (0..50).map(|i| i + t * 1000 + 1).sum();
            assert_eq!(sum, expect);
        }
    }
}
