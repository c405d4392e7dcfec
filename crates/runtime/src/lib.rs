//! The unified bounded server runtime.
//!
//! Every Snowflake server — RMI skeletons, the HTTP servers and the MAC
//! establishment path, revocation push distribution, the quoting gateway —
//! serves from the same small runtime instead of growing its own
//! thread-per-connection accept loop:
//!
//! * [`BoundedQueue`] — mutex/condvar MPMC queues with a hard capacity, a
//!   measurable drop counter, and slot [reservations](queue::Reservation)
//!   so admission can be decided while the caller still holds the
//!   connection.
//! * [`WorkerPool`] — a fixed number of worker threads over one bounded
//!   queue.  Saturation is *shed* (503/BUSY at the protocol layer), never
//!   silently queued; shutdown drains accepted work and joins.
//! * [`Scheduler`] — a monotonic-clock timer for background jobs
//!   (pre-expiry CRL refresh, cache sweeps); repeating jobs pace
//!   themselves by returning their next delay.
//! * [`ServerRuntime`] — the bundle servers actually take: one pool, one
//!   scheduler, one shutdown.
//! * [`Surface`] — the one value a decision point holds: name, clock,
//!   audit emitter, latency histogram, memoized verification context,
//!   and shed reply.
//!
//! The policy this crate enforces workspace-wide: **no server accept path
//! outside this crate calls `thread::spawn` or accepts a socket, and every
//! queue in the serving path has a capacity and a drop counter**
//! (`clippy.toml` denies the spawn and accept methods everywhere; the
//! sites here carry a reasoned `#[allow]`).  The one sanctioned escape
//! hatch for genuinely dedicated blocking loops (a push-subscription
//! reader parked in `recv()`) is [`spawn_thread`], which keeps even those
//! spawns inside this crate.

#![deny(missing_docs)]

pub mod pool;
pub mod queue;
pub mod reactor;
pub mod scheduler;
pub mod shed;
pub mod surface;

pub use pool::{Job, JobPermit, PoolConfig, RuntimeStats, SubmitError, WorkerPool};
pub use queue::{BoundedQueue, QueueError};
pub use reactor::sys::{nofile_limit, raise_nofile_limit};
pub use reactor::{
    AcceptFn, CloseFn, ConnDriver, FrameScan, ListenerHandle, Reactor, ReactorConfig, ReactorStats,
    ReadyOutcome, SinkHandle, SINK_BUFFER_CAP,
};
pub use scheduler::{Scheduler, TaskHandle};
pub use shed::ShedLedger;
pub use surface::{Surface, CHAIN_MEMO_CAPACITY};

use std::sync::{Arc, OnceLock};

/// Spawns a named dedicated thread for a long-lived *blocking* loop (a
/// transport reader parked in `recv()`) that would otherwise pin a pool
/// worker forever.  This is the only sanctioned thread spawn outside the
/// pool and scheduler internals; request handling belongs on a
/// [`WorkerPool`].
#[allow(clippy::disallowed_methods, reason = "the one sanctioned dedicated-thread spawn")]
pub fn spawn_thread<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn dedicated runtime thread")
}

/// The bundle a server takes: one worker pool for connection/request
/// handling, one scheduler for background jobs, one connection reactor
/// (started lazily on first use), and a single graceful shutdown.
pub struct ServerRuntime {
    pool: Arc<WorkerPool>,
    scheduler: Scheduler,
    ledger: Arc<ShedLedger>,
    reactor_config: ReactorConfig,
    reactor: OnceLock<Arc<Reactor>>,
}

impl ServerRuntime {
    /// Builds a runtime from a pool configuration, with default reactor
    /// tuning.
    pub fn new(config: PoolConfig) -> Arc<ServerRuntime> {
        Self::with_reactor_config(config, ReactorConfig::default())
    }

    /// Builds a runtime with explicit reactor tuning (connection cap,
    /// idle timeout).
    pub fn with_reactor_config(
        config: PoolConfig,
        reactor_config: ReactorConfig,
    ) -> Arc<ServerRuntime> {
        Arc::new(ServerRuntime {
            pool: WorkerPool::new(config),
            scheduler: Scheduler::new(),
            ledger: Arc::new(ShedLedger::new()),
            reactor_config,
            reactor: OnceLock::new(),
        })
    }

    /// The connection/request worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The background-job scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The connection reactor, started on first use.  Every server
    /// surface registers its listeners (and adopts its push sinks) here;
    /// no surface touches a socket itself.
    pub fn reactor(&self) -> &Arc<Reactor> {
        self.reactor.get_or_init(|| {
            Reactor::start(
                Arc::clone(&self.pool),
                Arc::clone(&self.ledger),
                self.reactor_config.clone(),
            )
            .expect("start connection reactor")
        })
    }

    /// The shared shed ledger counting reactor-level refusals (the pool
    /// counts its own queue drops separately; [`stats`](Self::stats)
    /// folds both into one number).
    pub fn shed_ledger(&self) -> &Arc<ShedLedger> {
        &self.ledger
    }

    /// Reactor counters (parked connections, reaps, dispatches); zeros
    /// if no surface has used the reactor yet.
    pub fn reactor_stats(&self) -> ReactorStats {
        self.reactor
            .get()
            .map(|r| r.stats())
            .unwrap_or_default()
    }

    /// Runtime counters.  `shed` is the single ledger the operator
    /// watches: pool queue drops *plus* reactor-level refusals
    /// (parked-connection cap, drain-time accepts, stalled sinks).
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.pool.stats();
        stats.shed += self.ledger.total();
        stats
    }

    /// Shed counts broken down by where they happened: `"pool"` for
    /// queue-full drops, plus one row per surface for reactor-level
    /// refusals.
    pub fn sheds_by_surface(&self) -> Vec<(String, u64)> {
        let mut rows = vec![("pool".to_owned(), self.pool.stats().shed)];
        rows.extend(self.ledger.by_surface());
        rows
    }

    /// Registers scrape-time callbacks exposing [`RuntimeStats`],
    /// [`ReactorStats`], and the per-surface shed ledger in a metrics
    /// registry — the same atomics [`stats`](Self::stats) reads, so a
    /// scrape can never disagree with the stats API.  Idempotent: the
    /// collector is stored under the id `"runtime"` and re-registration
    /// replaces it (a process is expected to have one serving runtime).
    pub fn register_metrics(self: &Arc<Self>, registry: &snowflake_metrics::Registry) {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_sheds_total",
            "Requests refused under overload, by origin (pool queue or reactor surface)",
        );
        registry.set_help("sf_pool_queue_depth", "Jobs waiting in the worker-pool queue");
        let rt = Arc::downgrade(self);
        registry.register_collector(
            "runtime",
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(rt) = rt.upgrade() else { return };
                let pool = rt.pool.stats();
                out.push(Sample::gauge("sf_pool_workers", &[], pool.workers as f64));
                out.push(Sample::gauge(
                    "sf_pool_queue_capacity",
                    &[],
                    pool.queue_capacity as f64,
                ));
                out.push(Sample::gauge("sf_pool_queue_depth", &[], pool.queue_depth as f64));
                out.push(Sample::gauge("sf_pool_in_flight", &[], pool.in_flight as f64));
                out.push(Sample::counter("sf_jobs_submitted_total", &[], pool.submitted));
                out.push(Sample::counter("sf_jobs_completed_total", &[], pool.completed));
                out.push(Sample::counter("sf_sheds_total", &[("origin", "pool")], pool.shed));
                for (surface, n) in rt.ledger.by_surface() {
                    out.push(Sample::counter(
                        "sf_sheds_total",
                        &[("origin", "reactor"), ("surface", &surface)],
                        n,
                    ));
                }
                let r = rt.reactor_stats();
                out.push(Sample::gauge("sf_conns_open", &[], r.open_connections as f64));
                out.push(Sample::gauge("sf_conns_parked", &[], r.parked as f64));
                out.push(Sample::gauge("sf_sinks_open", &[], r.open_sinks as f64));
                out.push(Sample::counter("sf_conns_accepted_total", &[], r.accepted));
                out.push(Sample::counter("sf_conns_reaped_idle_total", &[], r.reaped_idle));
                out.push(Sample::counter(
                    "sf_frames_dispatched_total",
                    &[],
                    r.frames_dispatched,
                ));
            }),
        );
    }

    /// Has shutdown begun?
    pub fn is_shutting_down(&self) -> bool {
        self.pool.is_shutting_down()
            || self.reactor.get().is_some_and(|r| r.is_shutting_down())
    }

    /// Graceful shutdown: drain the reactor first (parked connections
    /// close, dispatched frames complete and flush while the pool still
    /// runs), then drain and join the pool, then stop the scheduler.
    pub fn shutdown(&self) {
        if let Some(reactor) = self.reactor.get() {
            reactor.shutdown();
        }
        self.pool.shutdown();
        self.scheduler.shutdown();
    }
}

impl Drop for ServerRuntime {
    fn drop(&mut self) {
        // The reactor thread holds an Arc of itself; without an explicit
        // drain it would outlive the runtime.  Idempotent if the owner
        // already called shutdown().
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    #[test]
    fn runtime_bundles_pool_and_scheduler() {
        let rt = ServerRuntime::new(PoolConfig::new("bundle", 2, 4));
        let ran = Arc::new(AtomicU32::new(0));
        let r = Arc::clone(&ran);
        rt.pool().submit(move || {
            r.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let r = Arc::clone(&ran);
        rt.scheduler().schedule_once(Duration::ZERO, move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        let start = std::time::Instant::now();
        while ran.load(Ordering::SeqCst) < 2 {
            assert!(start.elapsed().as_secs() < 5);
            std::thread::yield_now();
        }
        rt.shutdown();
        assert!(rt.is_shutting_down());
        assert_eq!(rt.stats().completed, 1);
        assert!(matches!(
            rt.pool().submit(|| {}),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn spawn_thread_names_and_joins() {
        let handle = spawn_thread("sf-test-loop", || {
            assert_eq!(
                std::thread::current().name(),
                Some("sf-test-loop"),
                "dedicated threads carry their name"
            );
            7u32
        });
        assert_eq!(handle.join().unwrap(), 7);
    }
}
