//! # cqp-par
//!
//! A zero-dependency work-stealing thread pool for the CQP workspace,
//! `std`-only in the spirit of the vendored shims (`crates/shims/*`): the
//! build environment has no registry access, so rayon-style fan-out is
//! provided here in ~200 lines.
//!
//! Design:
//!
//! * Each `map` call distributes task indices over per-worker deques in
//!   contiguous blocks. A worker pops its own deque from the **back**
//!   (LIFO, cache-friendly) and, when empty, steals from other workers'
//!   **front** (FIFO — stealing the oldest, largest-remaining prefix of a
//!   block keeps contention low).
//! * Workers are scoped threads (`std::thread::scope`), so tasks may borrow
//!   non-`'static` data such as a shared `Database` or `Obs`.
//! * With `threads == 1` (or a single item) the pool runs tasks inline on
//!   the caller's thread — zero overhead and the determinism baseline the
//!   parallel paths are tested against.
//! * Results are returned **in input order** regardless of which worker ran
//!   which task, so parallel callers observe sequential output shapes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Hard cap on pool width; far above any machine this workspace targets.
pub const MAX_WORKERS: usize = 32;

/// Static span names for per-worker span roots: `worker00`..`worker31`.
///
/// `Recorder::span_enter` takes `&'static str`, so worker spans come from
/// this fixed table rather than a formatted string.
const WORKER_SPAN_NAMES: [&str; MAX_WORKERS] = [
    "worker00", "worker01", "worker02", "worker03", "worker04", "worker05", "worker06", "worker07",
    "worker08", "worker09", "worker10", "worker11", "worker12", "worker13", "worker14", "worker15",
    "worker16", "worker17", "worker18", "worker19", "worker20", "worker21", "worker22", "worker23",
    "worker24", "worker25", "worker26", "worker27", "worker28", "worker29", "worker30", "worker31",
];

/// The span name for worker `w` (clamped to the table).
pub fn worker_span_name(w: usize) -> &'static str {
    WORKER_SPAN_NAMES[w.min(MAX_WORKERS - 1)]
}

/// The number of hardware threads, or 1 when it cannot be determined.
pub fn available_parallelism() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Per-task context handed to [`ThreadPool::run`] closures.
#[derive(Debug, Clone, Copy)]
pub struct WorkerCtx {
    /// Worker index in `0..threads`.
    pub worker: usize,
    /// Static span name for this worker (see [`worker_span_name`]).
    pub span_name: &'static str,
}

/// A fixed-width work-stealing pool. Threads are spawned per call (scoped),
/// not kept resident: CQP fan-outs are coarse (whole searches, whole grid
/// cells), so spawn cost is noise next to task cost, and scoped spawning is
/// what lets tasks borrow the shared database and recorder.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
}

impl ThreadPool {
    /// A pool of `threads` workers, clamped to `1..=MAX_WORKERS`.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.clamp(1, MAX_WORKERS),
            tasks_executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Tasks completed across this pool's lifetime.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed.load(Ordering::Relaxed)
    }

    /// Successful steals across this pool's lifetime (0 in inline mode).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order. `f` receives `(item_index, item)`.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run(items, |_ctx, i, item| f(i, item))
    }

    /// [`ThreadPool::map`] with the executing worker's [`WorkerCtx`] passed
    /// through, so tasks can open per-worker spans.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&WorkerCtx, usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            // Inline: the caller's thread is worker 0. This is the exact
            // sequential semantics the parallel path must reproduce.
            let ctx = WorkerCtx {
                worker: 0,
                span_name: worker_span_name(0),
            };
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    self.tasks_executed.fetch_add(1, Ordering::Relaxed);
                    f(&ctx, i, item)
                })
                .collect();
        }

        let workers = self.threads.min(n);
        // Task slots: each item is taken exactly once by whichever worker
        // claims its index.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Contiguous block distribution: worker w starts with indices
        // [w*n/workers, (w+1)*n/workers).
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * n / workers;
                let hi = (w + 1) * n / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();

        thread::scope(|s| {
            for w in 0..workers {
                let slots = &slots;
                let results = &results;
                let deques = &deques;
                let f = &f;
                s.spawn(move || {
                    let ctx = WorkerCtx {
                        worker: w,
                        span_name: worker_span_name(w),
                    };
                    loop {
                        // Own deque first (back = most recently assigned).
                        let mut claimed = deques[w].lock().unwrap().pop_back();
                        if claimed.is_none() {
                            // Steal the oldest task of the first non-empty
                            // victim, scanning round-robin from w+1.
                            for off in 1..workers {
                                let v = (w + off) % workers;
                                if let Some(i) = deques[v].lock().unwrap().pop_front() {
                                    self.steals.fetch_add(1, Ordering::Relaxed);
                                    claimed = Some(i);
                                    break;
                                }
                            }
                        }
                        let Some(i) = claimed else {
                            // Every deque is empty; the task set is fixed,
                            // so nothing new can appear.
                            break;
                        };
                        let item = slots[i]
                            .lock()
                            .unwrap()
                            .take()
                            .expect("task index claimed twice");
                        let r = f(&ctx, i, item);
                        *results[i].lock().unwrap() = Some(r);
                        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("worker exited with a task unfinished")
            })
            .collect()
    }
}

/// A boxed unit of work for the resident [`Executor`].
type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct ExecQueue {
    jobs: VecDeque<Job>,
    stop: bool,
}

struct ExecShared {
    queue: Mutex<ExecQueue>,
    available: Condvar,
    executed: AtomicU64,
    stopping: AtomicBool,
}

/// A resident worker pool with a `spawn` API, complementing the
/// fork-join [`ThreadPool`]: the epoll serving backend's reactors are
/// latency-critical and must never run solver work inline, so they hand
/// complete requests here and keep polling. Workers live until
/// [`Executor::shutdown`] (which drains nothing: queued jobs submitted
/// before the stop flag still run, then every worker is joined).
pub struct Executor {
    shared: Arc<ExecShared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    threads: usize,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .field("executed", &self.executed())
            .finish()
    }
}

impl Executor {
    /// A pool of `threads` resident workers (at least 1).
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        let shared = Arc::new(ExecShared {
            queue: Mutex::new(ExecQueue::default()),
            available: Condvar::new(),
            executed: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break Some(job);
                            }
                            if q.stop {
                                break None;
                            }
                            q = shared.available.wait(q).unwrap_or_else(|p| p.into_inner());
                        }
                    };
                    match job {
                        Some(job) => {
                            job();
                            shared.executed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => return,
                    }
                })
            })
            .collect();
        Executor {
            shared,
            workers: Mutex::new(workers),
            threads,
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues a job. Returns false (dropping the job) once shutdown has
    /// begun — callers treat that as the work being cancelled.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) -> bool {
        if self.shared.stopping.load(Ordering::Acquire) {
            return false;
        }
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if q.stop {
                return false;
            }
            q.jobs.push_back(Box::new(job));
        }
        self.shared.available.notify_one();
        true
    }

    /// Jobs waiting for a worker.
    pub fn queued(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .jobs
            .len()
    }

    /// Jobs completed across this executor's lifetime.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Stops accepting work, lets already-queued jobs finish, and joins
    /// every worker. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.stop = true;
        }
        self.shared.available.notify_all();
        let handles: Vec<_> = {
            let mut w = self.workers.lock().unwrap_or_else(|p| p.into_inner());
            w.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.map((0..100u64).collect(), |i, v| {
                assert_eq!(i as u64, v);
                v * v
            });
            assert_eq!(out, (0..100u64).map(|v| v * v).collect::<Vec<_>>());
            assert_eq!(pool.tasks_executed(), 100);
        }
    }

    #[test]
    fn inline_mode_runs_on_caller_thread() {
        let pool = ThreadPool::new(1);
        let caller = thread::current().id();
        let ids = pool.run(vec![(); 8], |ctx, _, _| {
            assert_eq!(ctx.worker, 0);
            thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
        assert_eq!(pool.steals(), 0);
    }

    #[test]
    fn workers_drain_imbalanced_loads() {
        // One block holds all the slow tasks; stealing must spread them.
        let pool = ThreadPool::new(4);
        let out = pool.run((0..64usize).collect(), |ctx, _, i| {
            if i < 16 {
                thread::sleep(std::time::Duration::from_millis(1));
            }
            (ctx.worker, i)
        });
        assert_eq!(out.len(), 64);
        for (slot, &(worker, i)) in out.iter().enumerate() {
            assert_eq!(slot, i);
            assert!(worker < 4);
        }
    }

    #[test]
    fn clamps_width_and_names() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert_eq!(ThreadPool::new(1000).threads(), MAX_WORKERS);
        assert_eq!(worker_span_name(0), "worker00");
        assert_eq!(worker_span_name(31), "worker31");
        assert_eq!(worker_span_name(99), "worker31");
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn executor_runs_spawned_jobs_and_joins_on_shutdown() {
        let exec = Executor::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            assert!(exec.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        exec.shutdown();
        // Queued-before-stop jobs all ran; nothing was dropped.
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(exec.executed(), 64);
        // Post-shutdown spawns are refused.
        assert!(!exec.spawn(|| {}));
        // Idempotent.
        exec.shutdown();
    }

    #[test]
    fn executor_width_is_clamped() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn borrows_non_static_data() {
        let data: Vec<u64> = (0..32).collect();
        let pool = ThreadPool::new(4);
        let sum: u64 = pool
            .map((0..data.len()).collect(), |_, i| data[i])
            .into_iter()
            .sum();
        assert_eq!(sum, (0..32).sum::<u64>());
    }
}
