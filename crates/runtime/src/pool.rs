//! Fixed-size worker pools with explicit overload shedding.
//!
//! A [`WorkerPool`] owns N OS threads pulling jobs off one
//! [`BoundedQueue`].  Admission is non-blocking: when the queue is full
//! the submission is *shed* — counted, reported, and refused — instead of
//! queued forever.  The callers that front a wire protocol use
//! [`WorkerPool::try_permit`] to learn the verdict while they still hold
//! the connection, so they can answer 503/BUSY on it before hanging up.
//!
//! Shutdown is graceful by construction: [`WorkerPool::shutdown`] closes
//! the queue (new submissions refused), lets the workers drain every job
//! accepted before the close, and joins them.

use crate::queue::{BoundedQueue, QueueError};
use snowflake_core::sync::LockExt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of pooled work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool's queue is at capacity: the caller should shed load
    /// (reply 503/BUSY) rather than wait.
    Busy,
    /// The pool is shutting down; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy => write!(f, "worker pool saturated"),
            SubmitError::ShuttingDown => write!(f, "worker pool shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Sizing for a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Thread-name prefix (`<name>-worker-<i>`), visible in debuggers.
    pub name: String,
    /// Worker threads — the bound on concurrently running jobs.
    pub workers: usize,
    /// Queue capacity — the bound on accepted-but-unstarted jobs.
    pub queue_capacity: usize,
}

impl PoolConfig {
    /// A named pool with explicit sizing.
    pub fn new(name: &str, workers: usize, queue_capacity: usize) -> PoolConfig {
        PoolConfig {
            name: name.to_string(),
            workers: workers.max(1),
            queue_capacity: queue_capacity.max(1),
        }
    }
}

/// A snapshot of a pool's counters — every queue in the serving path has
/// a capacity and a measurable drop counter, and this is where both
/// surface.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Worker threads.
    pub workers: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs finished (including ones that panicked).
    pub completed: u64,
    /// Submissions refused because the queue was full.
    pub shed: u64,
    /// Jobs accepted but not yet started.
    pub queue_depth: usize,
    /// Jobs currently running.
    pub in_flight: usize,
}

/// A fixed-size worker pool over a bounded queue.
pub struct WorkerPool {
    queue: Arc<BoundedQueue<Job>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    in_flight: Arc<AtomicUsize>,
    completed: Arc<AtomicU64>,
    worker_count: usize,
}

impl WorkerPool {
    /// Spawns the pool's worker threads.
    #[allow(clippy::disallowed_methods, reason = "the pool's own fixed worker threads")]
    pub fn new(config: PoolConfig) -> Arc<WorkerPool> {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let completed = Arc::new(AtomicU64::new(0));
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let in_flight = Arc::clone(&in_flight);
                let completed = Arc::clone(&completed);
                std::thread::Builder::new()
                    .name(format!("{}-worker-{i}", config.name))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            in_flight.fetch_add(1, Ordering::SeqCst);
                            // A panicking job must not take its worker (or
                            // a shared server) down with it.
                            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                            completed.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            queue,
            workers: Mutex::new(workers),
            in_flight,
            completed,
            worker_count: config.workers,
        })
    }

    /// Submits a job, shedding when the queue is full.  The job is
    /// dropped on refusal; callers holding a connection that must hear
    /// BUSY use [`WorkerPool::try_permit`] instead.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), SubmitError> {
        match self.queue.try_push(Box::new(job) as Job) {
            Ok(()) => Ok(()),
            Err((QueueError::Full, _)) => Err(SubmitError::Busy),
            Err((QueueError::Closed, _)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Reserves a job slot, deciding admission *before* the caller moves
    /// its connection into the job.  On `Err` the caller still owns the
    /// connection and can write 503/BUSY on it.
    pub fn try_permit(&self) -> Result<JobPermit<'_>, SubmitError> {
        match self.queue.reserve() {
            Ok(slot) => Ok(JobPermit { slot }),
            Err(QueueError::Full) => Err(SubmitError::Busy),
            Err(QueueError::Closed) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            workers: self.worker_count,
            queue_capacity: self.queue.capacity(),
            submitted: self.queue.pushed(),
            completed: self.completed.load(Ordering::SeqCst),
            shed: self.queue.dropped(),
            queue_depth: self.queue.len(),
            in_flight: self.in_flight.load(Ordering::SeqCst),
        }
    }

    /// Has [`WorkerPool::shutdown`] begun?  New submissions are refused
    /// with [`SubmitError::ShuttingDown`] from that point on.
    pub fn is_shutting_down(&self) -> bool {
        self.queue.is_closed()
    }

    /// Graceful shutdown: stop admitting, drain every accepted job, join
    /// the workers.  Idempotent: the first caller performs the join, later
    /// callers find nothing left to join and return at once.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.plock());
        let me = std::thread::current().id();
        for handle in handles {
            // A pooled job can own the last Arc to its own pool (drain
            // jobs do), putting this shutdown on a worker thread via
            // Drop; joining ourselves would deadlock forever.  Dropping
            // the handle instead is safe: the queue is closed, so this
            // worker exits as soon as the current job (and Drop) return.
            if handle.thread().id() == me {
                continue;
            }
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Detached workers would outlive the pool's counters; drain them.
        self.shutdown();
    }
}

/// A reserved slot in a pool's queue (see [`WorkerPool::try_permit`]).
pub struct JobPermit<'a> {
    slot: crate::queue::Reservation<'a, Job>,
}

impl JobPermit<'_> {
    /// Redeems the permit, enqueueing the job in the promised slot.
    pub fn submit<F: FnOnce() + Send + 'static>(self, job: F) {
        self.slot.push(Box::new(job) as Job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Condvar;

    /// A reusable open/closed gate for holding workers mid-job.
    pub(crate) struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        pub(crate) fn closed() -> Arc<Gate> {
            Arc::new(Gate {
                open: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        pub(crate) fn open(&self) {
            *self.open.plock() = true;
            self.cv.notify_all();
        }

        pub(crate) fn wait(&self) {
            let mut open = self.open.plock();
            while !*open {
                open = self
                    .cv
                    .wait(open)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) {
        let start = std::time::Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < std::time::Duration::from_millis(deadline_ms),
                "condition not reached in time"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn jobs_run_and_counters_track() {
        let pool = WorkerPool::new(PoolConfig::new("t", 2, 8));
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        wait_until(5_000, || counter.load(Ordering::SeqCst) == 8);
        let stats = pool.stats();
        assert_eq!(stats.submitted, 8);
        wait_until(5_000, || pool.stats().completed == 8);
        assert_eq!(pool.stats().shed, 0);
    }

    #[test]
    fn saturated_pool_sheds_and_counts() {
        let pool = WorkerPool::new(PoolConfig::new("shed", 1, 1));
        let gate = Gate::closed();
        let g = Arc::clone(&gate);
        pool.submit(move || g.wait()).unwrap();
        // Wait for the worker to start the gated job, then fill the queue.
        wait_until(5_000, || pool.stats().in_flight == 1);
        let g = Arc::clone(&gate);
        pool.submit(move || g.wait()).unwrap();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Busy));
        assert!(matches!(pool.try_permit(), Err(SubmitError::Busy)));
        let stats = pool.stats();
        assert_eq!(stats.shed, 2);
        assert_eq!(stats.queue_depth, 1);
        gate.open();
        wait_until(5_000, || pool.stats().completed == 2);
    }

    #[test]
    fn shutdown_drains_accepted_work_and_refuses_new() {
        let pool = WorkerPool::new(PoolConfig::new("drain", 1, 4));
        let gate = Gate::closed();
        let done = Arc::new(AtomicU32::new(0));
        for _ in 0..3 {
            let (g, d) = (Arc::clone(&gate), Arc::clone(&done));
            pool.submit(move || {
                g.wait();
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        let pool2 = Arc::clone(&pool);
        let closer = std::thread::spawn(move || pool2.shutdown());
        // Shutdown must wait for the drain, not abandon queued jobs.
        wait_until(5_000, || pool.is_shutting_down());
        assert_eq!(pool.submit(|| {}), Err(SubmitError::ShuttingDown));
        assert!(!closer.is_finished(), "shutdown must block on the drain");
        gate.open();
        closer.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 3, "every accepted job ran");
        assert_eq!(pool.stats().completed, 3);
    }

    /// Regression: draining a shutdown must settle every counter exactly
    /// once.  Queued-but-unstarted jobs are *flushed to completion* (they
    /// increment `completed`, not `shed`), pre-shutdown sheds stay at
    /// their pre-shutdown value, and a second shutdown (including the one
    /// `Drop` issues) must not re-count anything.
    #[test]
    fn drain_flushes_queued_job_counters_exactly_once() {
        let pool = WorkerPool::new(PoolConfig::new("drain-count", 1, 2));
        let gate = Gate::closed();

        // Occupy the worker, then fill the queue with 2 more jobs (only
        // after the worker has started the first, or the fill could race
        // it for queue slots).
        let g = Arc::clone(&gate);
        pool.submit(move || g.wait()).unwrap();
        wait_until(5_000, || pool.stats().in_flight == 1);
        for _ in 0..2 {
            let g = Arc::clone(&gate);
            pool.submit(move || g.wait()).unwrap();
        }
        // Two refused submissions: the only sheds this test ever makes.
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Busy));
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Busy));
        let before = pool.stats();
        assert_eq!((before.submitted, before.shed), (3, 2));
        assert_eq!(before.queue_depth, 2, "two jobs queued but unstarted");

        // Shutdown on another thread; open the gate so the drain proceeds.
        let pool2 = Arc::clone(&pool);
        let closer = std::thread::spawn(move || pool2.shutdown());
        wait_until(5_000, || pool.is_shutting_down());
        gate.open();
        closer.join().unwrap();

        let after = pool.stats();
        // The queued-but-unstarted jobs were flushed: completed counts all
        // three accepted jobs exactly once…
        assert_eq!(after.completed, 3, "every accepted job ran exactly once");
        assert_eq!(after.queue_depth, 0);
        assert_eq!(after.in_flight, 0);
        // …and the drain did not re-count them as sheds (nor re-count the
        // pre-shutdown sheds).
        assert_eq!(after.shed, 2, "drain must not touch the shed counter");
        assert_eq!(after.submitted, 3);

        // Idempotence: further shutdowns (and refused submissions after
        // the close) leave the flushed counters alone except for the
        // explicit new refusal.
        pool.shutdown();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::ShuttingDown));
        let settled = pool.stats();
        assert_eq!(settled.completed, 3);
        assert_eq!(
            settled.shed, 2,
            "a shutdown refusal is ShuttingDown, not a counted drop"
        );
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(PoolConfig::new("panic", 1, 4));
        pool.submit(|| panic!("handler bug")).unwrap();
        let ok = Arc::new(AtomicU32::new(0));
        let o = Arc::clone(&ok);
        pool.submit(move || {
            o.store(1, Ordering::SeqCst);
        })
        .unwrap();
        let start = std::time::Instant::now();
        while ok.load(Ordering::SeqCst) == 0 {
            assert!(start.elapsed().as_secs() < 5, "worker died after a panic");
            std::thread::yield_now();
        }
    }

    #[test]
    fn permit_survives_until_redeemed() {
        let pool = WorkerPool::new(PoolConfig::new("permit", 1, 1));
        let permit = pool.try_permit().unwrap();
        // The reserved slot counts against capacity.
        assert!(matches!(pool.try_permit(), Err(SubmitError::Busy)));
        let ran = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&ran);
        permit.submit(move || {
            r.store(1, Ordering::SeqCst);
        });
        let start = std::time::Instant::now();
        while ran.load(Ordering::SeqCst) == 0 {
            assert!(start.elapsed().as_secs() < 5);
            std::thread::yield_now();
        }
    }
}
