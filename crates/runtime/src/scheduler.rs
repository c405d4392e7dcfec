//! A monotonic-clock job scheduler.
//!
//! One timer thread owns a deadline heap ordered by
//! [`std::time::Instant`] — monotonic by construction, so a wall-clock
//! step (NTP, suspend/resume) never fires jobs early or starves them.
//! Jobs are either one-shot ([`Scheduler::schedule_once`]) or
//! *self-pacing* repeats ([`Scheduler::schedule_repeating`]): a repeating
//! job returns the delay until its next run, so a driver can tighten or
//! relax its own cadence (the freshness agent sleeps exactly until its
//! next CRL deadline instead of polling on a fixed period).
//!
//! Jobs run on the timer thread; they are expected to be short or to
//! hand real work to a [`crate::WorkerPool`].

use snowflake_core::sync::LockExt;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

enum SchedJob {
    Once(Box<dyn FnOnce() + Send + 'static>),
    /// Returns the delay until the next run; `None` retires the task.
    Repeating(Box<dyn FnMut() -> Option<Duration> + Send + 'static>),
}

struct Entry {
    due: Instant,
    id: u64,
    job: SchedJob,
}

// The heap orders by deadline only; ties break by id (earlier first) so
// ordering is total and deterministic.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.id == other.id
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.id.cmp(&self.id))
    }
}

struct SchedState {
    tasks: BinaryHeap<Entry>,
    /// Pending cancellations for tasks that are live (queued or mid-run);
    /// entries are reaped when the task is skipped, retired, or finishes,
    /// so the set cannot grow past the live-task count.
    cancelled: HashSet<u64>,
    /// The task currently executing on the timer thread, if any.
    running: Option<u64>,
    next_id: u64,
    shutdown: bool,
}

struct SchedInner {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// Cancels its task when asked; dropping the handle does *not* cancel.
pub struct TaskHandle {
    id: u64,
    inner: Weak<SchedInner>,
}

impl TaskHandle {
    /// Cancels the task: it will not fire again (a run already in
    /// progress on the timer thread finishes).  Cancelling a task that
    /// already completed or retired is a no-op.
    pub fn cancel(&self) {
        if let Some(inner) = self.inner.upgrade() {
            let mut state = inner.state.plock();
            // Only mark live tasks, or the set would leak an entry per
            // cancel-after-completion forever.
            let live = state.running == Some(self.id)
                || state.tasks.iter().any(|e| e.id == self.id);
            if live {
                state.cancelled.insert(self.id);
            }
            drop(state);
            inner.cv.notify_all();
        }
    }
}

/// The timer: schedules one-shot and self-pacing repeating jobs.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the timer thread.
    #[allow(clippy::disallowed_methods, reason = "the scheduler's one timer thread")]
    pub fn new() -> Scheduler {
        let inner = Arc::new(SchedInner {
            state: Mutex::new(SchedState {
                tasks: BinaryHeap::new(),
                cancelled: HashSet::new(),
                running: None,
                next_id: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let timer_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("sf-scheduler".into())
            .spawn(move || Self::run(&timer_inner))
            .expect("spawn scheduler thread");
        Scheduler {
            inner,
            thread: Mutex::new(Some(thread)),
        }
    }

    fn enqueue(&self, delay: Duration, job: SchedJob) -> TaskHandle {
        let mut state = self.inner.state.plock();
        let id = state.next_id;
        state.next_id += 1;
        state.tasks.push(Entry {
            due: Instant::now() + delay,
            id,
            job,
        });
        drop(state);
        self.cv_notify();
        TaskHandle {
            id,
            inner: Arc::downgrade(&self.inner),
        }
    }

    fn cv_notify(&self) {
        self.inner.cv.notify_all();
    }

    /// Runs `job` once after `delay`.
    pub fn schedule_once(
        &self,
        delay: Duration,
        job: impl FnOnce() + Send + 'static,
    ) -> TaskHandle {
        self.enqueue(delay, SchedJob::Once(Box::new(job)))
    }

    /// Runs `job` after `initial_delay`, then again after whatever delay
    /// each run returns, until it returns `None` or is cancelled.
    pub fn schedule_repeating(
        &self,
        initial_delay: Duration,
        job: impl FnMut() -> Option<Duration> + Send + 'static,
    ) -> TaskHandle {
        self.enqueue(initial_delay, SchedJob::Repeating(Box::new(job)))
    }

    /// Pending tasks (cancelled-but-unreaped entries included).
    pub fn pending(&self) -> usize {
        self.inner.state.plock().tasks.len()
    }

    #[cfg(test)]
    fn cancelled_len(&self) -> usize {
        self.inner.state.plock().cancelled.len()
    }

    /// Stops the timer: pending tasks are dropped unrun, the thread is
    /// joined.  Idempotent.
    pub fn shutdown(&self) {
        self.inner.state.plock().shutdown = true;
        self.cv_notify();
        if let Some(handle) = self.thread.plock().take() {
            let _ = handle.join();
        }
    }

    fn run(inner: &SchedInner) {
        let mut state = inner.state.plock();
        loop {
            if state.shutdown {
                return;
            }
            // Reap cancellations lazily from the top of the heap.
            while let Some(top) = state.tasks.peek() {
                if state.cancelled.contains(&top.id) {
                    let entry = state.tasks.pop().expect("peeked entry");
                    state.cancelled.remove(&entry.id);
                } else {
                    break;
                }
            }
            let now = Instant::now();
            match state.tasks.peek() {
                None => {
                    state = inner
                        .cv
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(top) if top.due > now => {
                    let timeout = top.due - now;
                    state = inner
                        .cv
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
                Some(_) => {
                    let entry = state.tasks.pop().expect("peeked entry");
                    let id = entry.id;
                    state.running = Some(id);
                    drop(state);
                    let reschedule = match entry.job {
                        SchedJob::Once(job) => {
                            job();
                            None
                        }
                        SchedJob::Repeating(mut job) => {
                            job().map(|next| (next, SchedJob::Repeating(job)))
                        }
                    };
                    // Running flag, cancellation reap, and reschedule all
                    // under one lock: a cancel landing any time during
                    // the run wins over rescheduling, and a finished or
                    // retired task leaves nothing behind in either set.
                    state = inner.state.plock();
                    state.running = None;
                    let was_cancelled = state.cancelled.remove(&id);
                    if let Some((next, job)) = reschedule {
                        if !was_cancelled && !state.shutdown {
                            state.tasks.push(Entry {
                                due: Instant::now() + next,
                                id,
                                job,
                            });
                        }
                    }
                }
            }
        }
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < Duration::from_millis(deadline_ms),
                "condition not reached in time"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn one_shot_fires_in_deadline_order() {
        let sched = Scheduler::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o1, o2) = (Arc::clone(&order), Arc::clone(&order));
        sched.schedule_once(Duration::from_millis(30), move || o1.plock().push(2));
        sched.schedule_once(Duration::from_millis(5), move || o2.plock().push(1));
        wait_until(5_000, || order.plock().len() == 2);
        assert_eq!(*order.plock(), vec![1, 2]);
    }

    #[test]
    fn repeating_self_paces_and_retires() {
        let sched = Scheduler::new();
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        sched.schedule_repeating(Duration::ZERO, move || {
            let n = r.fetch_add(1, Ordering::SeqCst) + 1;
            (n < 3).then_some(Duration::from_millis(1))
        });
        wait_until(5_000, || runs.load(Ordering::SeqCst) == 3);
        // Retired: no further runs.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cancel_prevents_future_runs() {
        let sched = Scheduler::new();
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        let handle =
            sched.schedule_once(Duration::from_millis(50), move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        handle.cancel();
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "cancelled task must not run");
    }

    #[test]
    fn cancel_stops_a_repeating_task() {
        let sched = Scheduler::new();
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        let handle = sched.schedule_repeating(Duration::ZERO, move || {
            r.fetch_add(1, Ordering::SeqCst);
            Some(Duration::from_millis(1))
        });
        wait_until(5_000, || runs.load(Ordering::SeqCst) >= 2);
        handle.cancel();
        let after = runs.load(Ordering::SeqCst) + 1; // one run may be mid-flight
        std::thread::sleep(Duration::from_millis(30));
        assert!(runs.load(Ordering::SeqCst) <= after, "cancel must stop the repeat");
    }

    #[test]
    fn cancel_after_completion_does_not_leak() {
        let sched = Scheduler::new();
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        let once = sched.schedule_once(Duration::ZERO, move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        let r = Arc::clone(&runs);
        let retired = sched.schedule_repeating(Duration::ZERO, move || {
            r.fetch_add(1, Ordering::SeqCst);
            None // retires immediately
        });
        wait_until(5_000, || runs.load(Ordering::SeqCst) == 2);
        wait_until(5_000, || sched.pending() == 0);
        // Cancelling dead tasks must be a no-op, not a permanent entry.
        once.cancel();
        retired.cancel();
        assert_eq!(sched.cancelled_len(), 0, "cancel-after-completion must not leak");
    }

    #[test]
    fn shutdown_joins_and_drops_pending() {
        let sched = Scheduler::new();
        let runs = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&runs);
        sched.schedule_once(Duration::from_secs(60), move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        sched.shutdown();
        assert_eq!(runs.load(Ordering::SeqCst), 0);
    }
}
