//! The readiness-driven connection layer.
//!
//! Every server surface used to pin one worker (or a dedicated thread)
//! per open connection, so connection count *was* worker count and idle
//! keep-alive sessions starved active requests.  The reactor inverts
//! that: **one thread owns every listening and parked socket**, watches
//! them with `epoll`, buffers partial frames per connection, and hands
//! only *ready* work units — one complete request frame plus the
//! connection's protocol driver — to the existing bounded [`WorkerPool`].
//! Idle connections cost a few kilobytes of buffer, not a thread.
//!
//! Ownership model:
//!
//! * The reactor owns the `TcpListener`s and every parked `TcpStream`.
//!   Surfaces never touch a socket; they provide a [`ConnDriver`] that
//!   scans bytes into frames and turns one frame into one reply.
//! * When a frame completes, the driver and frame move onto a pool
//!   worker (admission via `try_permit`: a saturated pool sheds that
//!   frame with the driver's busy reply).  The worker computes the reply
//!   and posts it back on a completion queue; an `eventfd` wakes the
//!   reactor, which writes the reply and re-parks the connection.  At
//!   most one frame per connection is in flight.
//! * A handshake is driver state like any other: its frames are scanned
//!   here and its public-key work is an ordinary frame job, so a peer
//!   that connects and sends nothing costs an fd until the wheel reaps
//!   it, never a worker.  A handshake that ends in a push stream turns
//!   its connection into a sink in place ([`ReadyOutcome::Sink`]).
//! * Idle deadlines live in a coarse timer wheel (`timer`), one entry per
//!   connection for its whole life.  A connection's deadline is set when
//!   it parks and moved only when a complete frame's reply has been
//!   flushed — moving it touches the connection, not the wheel.  When the
//!   entry fires, a connection parked past its deadline is reaped; any
//!   other is re-armed at its current deadline.  A slow-loris client
//!   dribbling bytes never moves its deadline and is reaped on schedule,
//!   while consuming zero workers in the meantime; a busy keep-alive
//!   connection costs one wheel entry however many requests it makes.
//! * Shedding carries over: pool-full refusals are counted by the pool's
//!   own drop counter (and answered with the driver's busy reply);
//!   reactor-level refusals — parked-connection cap, accepts during
//!   drain, stalled push sinks — land in the shared [`ShedLedger`] under
//!   the surface's name.  One ledger, surfaced per surface.  Every shed,
//!   wherever it is counted, is audited here through the [`Surface`]:
//!   one `Shed` event under its name.
//! * Drain mirrors the pool: shutdown closes idle parked connections at
//!   once, lets dispatched frames complete and flush their replies within
//!   a grace period, answers late accepts with the surface's shed reply,
//!   then closes the listeners and exits.
//! * A driver that panics degrades its own connection only: the pool
//!   swallows the panic, and the dispatched job's drop guard completes
//!   the connection as [`ReadyOutcome::Close`].
//! * A push sink's owner learns of its end through one close callback,
//!   run exactly once, outside the reactor lock, whenever the reactor
//!   drops the sink — hangup, write error, stall, owner close or drain.

pub mod sys;
mod timer;

use crate::pool::{SubmitError, WorkerPool};
use crate::shed::ShedLedger;
use crate::spawn_thread;
use crate::surface::Surface;
use sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use timer::TimerWheel;

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reactor tuning.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Hard cap on concurrently open reactor-owned connections; accepts
    /// beyond it are shed (counted in the ledger, answered with the
    /// surface's shed reply).
    pub max_parked: usize,
    /// How long a parked connection may sit without completing a frame
    /// before the timer wheel reaps it.
    pub idle_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_parked: 16_384,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// What a driver's frame scan concluded.
pub enum FrameScan {
    /// The first `n` buffered bytes form one complete frame.
    Complete(usize),
    /// More bytes are needed; stay parked.
    Partial,
    /// The bytes cannot become a valid frame; close the connection.
    Invalid(&'static str),
}

/// What handling one frame produced.
pub enum ReadyOutcome {
    /// Write these bytes, then re-park the connection (keep-alive).
    Reply(Vec<u8>),
    /// Write these bytes, then close.
    ReplyClose(Vec<u8>),
    /// Close without writing.
    Close,
    /// Write `reply`, then keep the connection as a write-only push sink,
    /// out of the idle timer.
    Sink {
        /// The sink's first outbound bytes, queued ahead of any send.
        reply: Vec<u8>,
        /// The surface the sink is shed and audited under.
        surface: Arc<Surface>,
        /// Runs once, outside the reactor lock, when the reactor drops the sink.
        on_close: CloseFn,
        /// Receives the sink's [`SinkHandle`] outside the reactor lock.
        adopted: Box<dyn FnOnce(SinkHandle) + Send>,
    },
}

/// `Ok(Some(n))` a whole frame of `n` bytes, `Ok(None)` more needed.
impl From<Result<Option<usize>, &'static str>> for FrameScan {
    fn from(scan: Result<Option<usize>, &'static str>) -> FrameScan {
        match scan {
            Ok(Some(n)) => FrameScan::Complete(n),
            Ok(None) => FrameScan::Partial,
            Err(why) => FrameScan::Invalid(why),
        }
    }
}

/// A per-connection protocol state machine.
///
/// The reactor calls `scan` on its thread (cheap, byte inspection only)
/// and moves the driver onto a pool worker for `handle` (the expensive
/// part: crypto, authorization, application logic).  All driver state
/// rides along — the reactor holds it between frames.
pub trait ConnDriver: Send {
    /// Inspects buffered bytes for one complete frame.
    fn scan(&mut self, buf: &[u8]) -> FrameScan;
    /// Turns one complete frame into an outcome.  Runs on a pool worker.
    fn handle(&mut self, frame: Vec<u8>) -> ReadyOutcome;
    /// The bytes to send when the pool sheds this connection's frame
    /// (e.g. an HTTP 503 or a sealed `RmiFault::Busy`); `None` closes
    /// without a reply.  The connection closes after the reply flushes.
    fn busy_reply(&mut self) -> Option<Vec<u8>>;
}

/// Makes the driver each accepted connection parks under.  Called on
/// the reactor thread; must not block.
pub type AcceptFn = Box<dyn Fn() -> Box<dyn ConnDriver> + Send>;

/// Blocks a serving thread until the reactor closes the listener (at
/// drain completion), preserving the blocking `serve_*` call shape the
/// surfaces have always exposed.
#[derive(Clone)]
pub struct ListenerHandle {
    closed: Arc<(Mutex<bool>, Condvar)>,
}

impl ListenerHandle {
    /// Waits until the listener is closed by reactor shutdown.
    pub fn wait(&self) {
        let (lock, cvar) = &*self.closed;
        let mut done = lock.lock().expect("listener handle poisoned");
        while !*done {
            done = cvar.wait(done).expect("listener handle poisoned");
        }
    }
}

/// A write handle to a reactor-owned push sink connection.
///
/// Sends are buffered in the reactor (bounded); a remote that stalls
/// past [`SINK_BUFFER_CAP`] is disconnected and counted as a shed — it
/// never blocks the sender and never occupies a thread.  However the
/// sink ends, its [`CloseFn`] runs once.
pub struct SinkHandle {
    reactor: Arc<Reactor>,
    token: u64,
}

impl SinkHandle {
    /// Queues `frame` for the remote.  Returns `false` once the
    /// connection is gone (peer closed, write error, or stalled past the
    /// buffer cap) — the caller should drop the subscription.
    pub fn send(&self, frame: &[u8]) -> bool {
        self.reactor.sink_send(self.token, frame)
    }

    /// Is the connection still open?
    pub fn is_open(&self) -> bool {
        self.reactor.sink_is_open(self.token)
    }

    /// Closes the sink connection now, dropping any queued bytes.  The
    /// remote observes EOF without having to poll or reconnect — this is
    /// how a broker cuts a revoked subscriber's stream mid-flight.
    /// Idempotent; subsequent [`SinkHandle::send`]s return `false`.
    pub fn close(&self) {
        self.reactor.sink_close(self.token);
    }
}

/// Most bytes a sink connection may have queued before the remote is
/// declared stalled and disconnected.
pub const SINK_BUFFER_CAP: usize = 256 * 1024;

/// How long draining waits for dispatched frames and in-progress reply
/// flushes before force-closing their connections.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

const WAKE_TOKEN: u64 = 0;
const READ_CHUNK: usize = 16 * 1024;
const WHEEL_SLOTS: usize = 512;
const WHEEL_GRANULARITY: Duration = Duration::from_millis(100);

/// Counters describing the reactor's current and cumulative state.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorStats {
    /// Reactor-owned request connections currently open (any phase).
    pub open_connections: u64,
    /// Of those, connections parked idle (no frame in flight).
    pub parked: u64,
    /// Push sink connections currently open.
    pub open_sinks: u64,
    /// Connections accepted from listeners, ever.
    pub accepted: u64,
    /// Idle connections reaped by the timer wheel, ever.
    pub reaped_idle: u64,
    /// Complete frames handed to the worker pool, ever.
    pub frames_dispatched: u64,
}

enum Phase {
    /// Owned by the reactor, waiting for readable bytes.
    Parked,
    /// A frame (and the driver) is on a pool worker.
    Dispatched,
    /// A reply is being written; `close_after` decides what follows.
    Flushing,
}

struct Conn {
    stream: TcpStream,
    surface: Arc<Surface>,
    driver: Option<Box<dyn ConnDriver>>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    phase: Phase,
    close_after: bool,
    /// When a parked request connection is idle past, the wheel reaps
    /// it.  Set at park; the connection's one wheel entry follows it.
    deadline: Instant,
    is_sink: bool,
    /// A sink's close callback, taken and run once when the reactor
    /// drops the sink.
    on_close: Option<CloseFn>,
}

/// What a push sink's owner does when the reactor drops the sink, for
/// any reason (e.g. the broker prunes the subscription).  Runs exactly
/// once, outside the reactor lock.
pub type CloseFn = Box<dyn FnOnce() + Send>;

impl Conn {
    /// A freshly parked connection: a request connection under `driver`,
    /// or a write-only sink when there is none.
    fn new(
        stream: TcpStream,
        surface: Arc<Surface>,
        driver: Option<Box<dyn ConnDriver>>,
        deadline: Instant,
        on_close: Option<CloseFn>,
    ) -> Conn {
        Conn {
            stream,
            surface,
            is_sink: driver.is_none(),
            driver,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            phase: Phase::Parked,
            close_after: false,
            deadline,
            on_close,
        }
    }
}

/// A frame on a pool worker.  The pool swallows a panicking job, so a
/// driver that panics drops this guard unfinished — and the guard then
/// completes the connection as `Close` instead of leaving it dispatched
/// forever (which would also hold drain open).
struct InFlight {
    reactor: Arc<Reactor>,
    token: u64,
    driver: Option<Box<dyn ConnDriver>>,
}

impl InFlight {
    fn run(mut self, frame: Vec<u8>) {
        // The driver stays in the guard while `handle` runs, so an unwind
        // finds it there.
        let driver = self.driver.as_mut().expect("in-flight frame owns its driver");
        let outcome = driver.handle(frame);
        let driver = self.driver.take().expect("in-flight frame owns its driver");
        self.reactor.complete(self.token, driver, outcome);
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        let Some(driver) = self.driver.take() else {
            return;
        };
        // Not `complete`: a drop runs while the panic unwinds and must not
        // panic itself.  A poisoned lock means the reactor thread is gone,
        // with nothing left to complete.
        if let Ok(mut st) = self.reactor.state.lock() {
            st.completions.push((self.token, driver, ReadyOutcome::Close));
            drop(st);
            self.reactor.wake.wake();
        }
    }
}

struct ListenerEntry {
    listener: TcpListener,
    surface: Arc<Surface>,
    accept: AcceptFn,
    handle: Arc<(Mutex<bool>, Condvar)>,
}

enum FlushResult {
    Done,
    Pending,
    Gone,
}

struct State {
    conns: HashMap<u64, Conn>,
    listeners: HashMap<u64, ListenerEntry>,
    wheel: TimerWheel,
    completions: Vec<(u64, Box<dyn ConnDriver>, ReadyOutcome)>,
    /// Sink close callbacks and sink handoffs queued while the lock was
    /// held; run in order by [`Reactor::unlock`] once it is released.
    deferred: Vec<CloseFn>,
    next_token: u64,
    shutting_down: bool,
    drain_started: bool,
    drain_deadline: Option<Instant>,
    finished: bool,
    accepted: u64,
    reaped_idle: u64,
    frames_dispatched: u64,
}

/// The epoll reactor: one thread owning every listening and parked
/// socket, dispatching ready frames to the worker pool.
pub struct Reactor {
    epoll: Epoll,
    wake: WakeFd,
    pool: Arc<WorkerPool>,
    ledger: Arc<ShedLedger>,
    config: ReactorConfig,
    state: Mutex<State>,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// Back-pointer so the reactor thread can hand dispatch jobs an
    /// owning `Arc` of itself; always upgradable while the thread runs.
    self_ref: std::sync::Weak<Reactor>,
}

impl Reactor {
    /// Starts the reactor thread.
    pub fn start(
        pool: Arc<WorkerPool>,
        ledger: Arc<ShedLedger>,
        config: ReactorConfig,
    ) -> io::Result<Arc<Reactor>> {
        let epoll = Epoll::new()?;
        let wake = WakeFd::new()?;
        epoll.add(wake.raw(), EPOLLIN, WAKE_TOKEN)?;
        let reactor = Arc::new_cyclic(|weak| Reactor {
            epoll,
            wake,
            pool,
            ledger,
            config,
            self_ref: weak.clone(),
            state: Mutex::new(State {
                conns: HashMap::new(),
                listeners: HashMap::new(),
                wheel: TimerWheel::new(WHEEL_SLOTS, WHEEL_GRANULARITY, Instant::now()),
                completions: Vec::new(),
                deferred: Vec::new(),
                next_token: 1,
                shutting_down: false,
                drain_started: false,
                drain_deadline: None,
                finished: false,
                accepted: 0,
                reaped_idle: 0,
                frames_dispatched: 0,
            }),
            thread: Mutex::new(None),
        });
        let me = Arc::clone(&reactor);
        let handle = spawn_thread("sf-reactor", move || me.run());
        *reactor.thread.lock().expect("reactor thread slot") = Some(handle);
        Ok(reactor)
    }

    /// Registers a listening socket under a surface.  The reactor owns
    /// the listener from here on; the returned handle blocks until the
    /// reactor closes it during drain.
    pub fn register_listener(
        &self,
        listener: TcpListener,
        surface: Arc<Surface>,
        accept: AcceptFn,
    ) -> io::Result<ListenerHandle> {
        listener.set_nonblocking(true)?;
        let mut st = self.state.lock().expect("reactor state poisoned");
        if st.shutting_down {
            return Err(io::Error::new(
                io::ErrorKind::Other,
                "reactor is shutting down",
            ));
        }
        let token = st.next_token;
        st.next_token += 1;
        let handle = Arc::new((Mutex::new(false), Condvar::new()));
        self.epoll.add(listener.as_raw_fd(), EPOLLIN, token)?;
        st.listeners.insert(
            token,
            ListenerEntry {
                listener,
                surface,
                accept,
                handle: Arc::clone(&handle),
            },
        );
        drop(st);
        self.wake.wake();
        Ok(ListenerHandle { closed: handle })
    }

    /// Adopts a write-only push sink connection under its service's
    /// shared surface.  The remote is watched for hangup; writes go
    /// through the returned [`SinkHandle`].  `on_close` runs once, outside
    /// the reactor lock, when the reactor drops the sink for any reason:
    /// hangup, write error, stall (also counted and audited as a shed),
    /// [`SinkHandle::close`], or drain.
    pub fn adopt_sink(
        self: &Arc<Self>,
        stream: TcpStream,
        surface: Arc<Surface>,
        on_close: Option<CloseFn>,
    ) -> io::Result<SinkHandle> {
        let mut st = self.state.lock().expect("reactor state poisoned");
        if st.shutting_down {
            return Err(io::Error::new(
                io::ErrorKind::Other,
                "reactor is shutting down",
            ));
        }
        stream.set_nonblocking(true)?;
        let token = st.next_token;
        st.next_token += 1;
        self.epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)?;
        // Sinks are never idle-reaped, so the deadline is never read.
        st.conns.insert(
            token,
            Conn::new(stream, surface, None, Instant::now(), on_close),
        );
        drop(st);
        self.wake.wake();
        Ok(SinkHandle {
            reactor: Arc::clone(self),
            token,
        })
    }

    /// Current reactor counters.
    pub fn stats(&self) -> ReactorStats {
        let st = self.state.lock().expect("reactor state poisoned");
        let mut open = 0u64;
        let mut parked = 0u64;
        let mut sinks = 0u64;
        for conn in st.conns.values() {
            if conn.is_sink {
                sinks += 1;
            } else {
                open += 1;
                if matches!(conn.phase, Phase::Parked) {
                    parked += 1;
                }
            }
        }
        ReactorStats {
            open_connections: open,
            parked,
            open_sinks: sinks,
            accepted: st.accepted,
            reaped_idle: st.reaped_idle,
            frames_dispatched: st.frames_dispatched,
        }
    }

    /// Has shutdown begun?
    pub fn is_shutting_down(&self) -> bool {
        self.state
            .lock()
            .expect("reactor state poisoned")
            .shutting_down
    }

    /// Begins drain and blocks until the reactor thread exits: idle
    /// parked connections close at once, dispatched frames complete and
    /// flush (force-closed past a grace period), late accepts are shed
    /// with the surface's reply, then the listeners close.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.state.lock().expect("reactor state poisoned");
            st.shutting_down = true;
        }
        self.wake.wake();
        let handle = self.thread.lock().expect("reactor thread slot").take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }

    // ---- internal: cross-thread entry points ----------------------------

    fn complete(&self, token: u64, driver: Box<dyn ConnDriver>, outcome: ReadyOutcome) {
        let mut st = self.state.lock().expect("reactor state poisoned");
        st.completions.push((token, driver, outcome));
        drop(st);
        self.wake.wake();
    }

    fn sink_send(&self, token: u64, frame: &[u8]) -> bool {
        let mut guard = self.state.lock().expect("reactor state poisoned");
        let st = &mut *guard;
        let Some(conn) = st.conns.get_mut(&token) else {
            return false;
        };
        let pending = conn.wbuf.len() - conn.wpos;
        if pending + frame.len() > SINK_BUFFER_CAP {
            // The remote has stalled past its buffer: disconnect and
            // count the shed rather than block or buffer unboundedly.
            self.ledger.record(conn.surface.name());
            let surface = Arc::clone(&conn.surface);
            Self::close_token(&self.epoll, st, token);
            Self::unlock(guard);
            surface.audit_shed("push-sink", "send", "push sink stalled past buffer cap");
            return false;
        }
        conn.wbuf.extend_from_slice(frame);
        let sent = self.flush_sink(st, token);
        Self::unlock(guard);
        sent
    }

    /// Writes a sink's queued bytes; `false` once the sink is gone.
    fn flush_sink(&self, st: &mut State, token: u64) -> bool {
        let Some(conn) = st.conns.get_mut(&token) else {
            return false;
        };
        match Self::flush_conn(conn) {
            FlushResult::Gone => {
                Self::close_token(&self.epoll, st, token);
                false
            }
            FlushResult::Done => true,
            FlushResult::Pending => {
                let _ = self.epoll.modify(
                    conn.stream.as_raw_fd(),
                    EPOLLIN | EPOLLRDHUP | EPOLLOUT,
                    token,
                );
                true
            }
        }
    }

    fn sink_close(&self, token: u64) {
        let mut st = self.state.lock().expect("reactor state poisoned");
        Self::close_token(&self.epoll, &mut st, token);
        Self::unlock(st);
        // The reactor may be parked in epoll_wait with no timeout; wake
        // it so drain bookkeeping observes the closed connection.
        self.wake.wake();
    }

    /// Releases the state lock, then runs the callbacks deferred while
    /// it was held.
    fn unlock(mut guard: MutexGuard<'_, State>) {
        let deferred = std::mem::take(&mut guard.deferred);
        drop(guard);
        for callback in deferred {
            callback();
        }
    }

    fn sink_is_open(&self, token: u64) -> bool {
        self.state
            .lock()
            .expect("reactor state poisoned")
            .conns
            .contains_key(&token)
    }

    // ---- internal: reactor thread ---------------------------------------

    fn run(self: Arc<Self>) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        loop {
            let timeout = {
                let st = self.state.lock().expect("reactor state poisoned");
                if st.finished {
                    break;
                }
                if st.shutting_down {
                    Some(50)
                } else {
                    st.wheel
                        .next_timeout(Instant::now())
                        .map(|d| d.as_millis() as u64 + 1)
                }
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => continue,
            };
            let mut guard = self.state.lock().expect("reactor state poisoned");
            let st = &mut *guard;
            let now = Instant::now();

            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                if token == WAKE_TOKEN {
                    self.wake.drain();
                } else if st.listeners.contains_key(&token) {
                    self.accept_ready(st, token);
                } else if st.conns.contains_key(&token) {
                    self.conn_ready(st, token, bits);
                }
            }

            let completions = std::mem::take(&mut st.completions);
            for (token, driver, outcome) in completions {
                self.process_completion(st, token, driver, outcome);
            }

            for token in st.wheel.expired(now) {
                // A closed connection's entry just lapses, as does a sink's.
                let Some(conn) = st.conns.get(&token).filter(|c| !c.is_sink) else {
                    continue;
                };
                let parked = matches!(conn.phase, Phase::Parked);
                if parked && conn.deadline <= now {
                    Self::close_token(&self.epoll, st, token);
                    st.reaped_idle += 1;
                } else {
                    // Parked again since the entry was armed (the deadline
                    // moved on), or busy with a frame: follow the deadline,
                    // or check back one idle period out while busy (the
                    // next park moves the deadline past that anyway).
                    let next = if parked {
                        conn.deadline
                    } else {
                        now + self.config.idle_timeout
                    };
                    st.wheel.insert(token, next);
                }
            }

            if st.shutting_down {
                self.drive_drain(st, now);
            }
            Self::unlock(guard);
        }
    }

    #[allow(clippy::disallowed_methods, reason = "the reactor is the only acceptor")]
    fn accept_ready(&self, st: &mut State, listener_token: u64) {
        loop {
            let (stream, surface, driver) = {
                let entry = match st.listeners.get(&listener_token) {
                    Some(e) => e,
                    None => return,
                };
                match entry.listener.accept() {
                    Ok((stream, _addr)) => {
                        (stream, Arc::clone(&entry.surface), (entry.accept)())
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            };
            st.accepted += 1;
            if self.refused(st, &surface, &stream) || stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Replies are written whole; a sink's back-to-back pushes must
            // not wait on Nagle for the peer's delayed ACK.
            let _ = stream.set_nodelay(true);
            let token = st.next_token;
            st.next_token += 1;
            if self
                .epoll
                .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                .is_err()
            {
                continue;
            }
            let deadline = Instant::now() + self.config.idle_timeout;
            st.wheel.insert(token, deadline);
            let conn = Conn::new(stream, surface, Some(driver), deadline, None);
            st.conns.insert(token, conn);
        }
    }

    /// Counts, audits, and answers a connection arriving during drain or
    /// past the parked cap; `true` when it was refused.
    fn refused(&self, st: &State, surface: &Surface, stream: &TcpStream) -> bool {
        let why = if st.shutting_down {
            "server shutting down"
        } else if st.conns.len() >= self.config.max_parked {
            "parked-connection cap reached"
        } else {
            return false;
        };
        self.ledger.record(surface.name());
        surface.refuse(why, stream);
        true
    }

    /// An owning `Arc` of this reactor, recovered from the back-pointer.
    /// Only called on the reactor thread, which holds a strong `Arc` for
    /// its whole life, so the upgrade cannot fail.
    fn self_arc(&self) -> Arc<Reactor> {
        self.self_ref.upgrade().expect("reactor thread holds an Arc")
    }

    fn conn_ready(&self, st: &mut State, token: u64, bits: u32) {
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            Self::close_token(&self.epoll, st, token);
            return;
        }
        if bits & EPOLLOUT != 0 {
            self.conn_writable(st, token);
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.conn_readable(st, token);
        }
    }

    fn conn_readable(&self, st: &mut State, token: u64) {
        let Some(conn) = st.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    Self::close_token(&self.epoll, st, token);
                    return;
                }
                Ok(n) => {
                    if conn.is_sink {
                        // Push channels are write-only; discard chatter.
                        continue;
                    }
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    Self::close_token(&self.epoll, st, token);
                    return;
                }
            }
        }
        if !conn.is_sink && matches!(conn.phase, Phase::Parked) {
            self.try_dispatch(st, token);
        }
    }

    fn conn_writable(&self, st: &mut State, token: u64) {
        let Some(conn) = st.conns.get_mut(&token) else {
            return;
        };
        match Self::flush_conn(conn) {
            FlushResult::Pending => {}
            FlushResult::Gone => Self::close_token(&self.epoll, st, token),
            FlushResult::Done => {
                if conn.is_sink {
                    let _ = self.epoll.modify(
                        conn.stream.as_raw_fd(),
                        EPOLLIN | EPOLLRDHUP,
                        token,
                    );
                } else if conn.close_after {
                    Self::close_token(&self.epoll, st, token);
                } else {
                    self.park(st, token);
                }
            }
        }
    }

    fn try_dispatch(self: &Reactor, st: &mut State, token: u64) {
        let Some(conn) = st.conns.get_mut(&token) else {
            return;
        };
        let Some(driver) = conn.driver.as_mut() else {
            return;
        };
        // `scan` and `busy_reply` run here, on the reactor thread, under
        // the state lock.  A panic in either closes this one connection,
        // as an invalid frame does; caught inside the lock scope, the
        // unwind never drops the guard, so the lock is not poisoned.
        let scan = catch_unwind(AssertUnwindSafe(|| driver.scan(&conn.rbuf)))
            .unwrap_or(FrameScan::Invalid("frame scan panicked"));
        match scan {
            FrameScan::Partial => {}
            FrameScan::Invalid(_why) => {
                Self::close_token(&self.epoll, st, token);
            }
            FrameScan::Complete(len) => {
                let frame: Vec<u8> = conn.rbuf.drain(..len).collect();
                match self.pool.try_permit() {
                    Ok(permit) => {
                        conn.phase = Phase::Dispatched;
                        let _ = self.epoll.modify(conn.stream.as_raw_fd(), 0, token);
                        let job = InFlight {
                            reactor: self.self_arc(),
                            token,
                            driver: conn.driver.take(),
                        };
                        permit.submit(move || job.run(frame));
                        st.frames_dispatched += 1;
                    }
                    Err(SubmitError::Busy) => {
                        // Counted by the pool's drop counter (the failed
                        // reservation); answer with the protocol's busy
                        // reply and close once it flushes.
                        conn.surface
                            .audit_shed("connection", "dispatch", "worker pool saturated");
                        let reply = catch_unwind(AssertUnwindSafe(|| driver.busy_reply()));
                        match reply.unwrap_or(None) {
                            Some(reply) => self.start_reply(st, token, reply, true),
                            None => Self::close_token(&self.epoll, st, token),
                        }
                    }
                    Err(SubmitError::ShuttingDown) => {
                        Self::close_token(&self.epoll, st, token);
                    }
                }
            }
        }
    }

    fn process_completion(
        &self,
        st: &mut State,
        token: u64,
        driver: Box<dyn ConnDriver>,
        outcome: ReadyOutcome,
    ) {
        let Some(conn) = st.conns.get_mut(&token) else {
            // The connection died (peer hangup, drain force-close) while
            // its frame was in flight; nothing to deliver.
            return;
        };
        conn.driver = Some(driver);
        match outcome {
            ReadyOutcome::Close => Self::close_token(&self.epoll, st, token),
            ReadyOutcome::Reply(bytes) => {
                // During drain, keep-alive ends here: deliver the reply,
                // then close instead of re-parking.
                let close_after = st.shutting_down;
                self.start_reply(st, token, bytes, close_after);
            }
            ReadyOutcome::ReplyClose(bytes) => self.start_reply(st, token, bytes, true),
            // Drain has already closed every sink: refuse this one as a
            // late accept is refused, with the surface's shed reply.
            ReadyOutcome::Sink { .. } if st.shutting_down => {
                self.ledger.record(conn.surface.name());
                conn.surface.refuse("shutting down", &conn.stream);
                Self::close_token(&self.epoll, st, token);
            }
            ReadyOutcome::Sink {
                reply,
                surface,
                on_close,
                adopted,
            } => {
                st.wheel.remove(token, conn.deadline);
                conn.driver = None;
                conn.is_sink = true;
                conn.surface = surface;
                conn.on_close = Some(on_close);
                conn.phase = Phase::Parked;
                conn.rbuf = Vec::new();
                conn.wbuf = reply;
                conn.wpos = 0;
                let _ = self
                    .epoll
                    .modify(conn.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token);
                let handle = SinkHandle {
                    reactor: self.self_arc(),
                    token,
                };
                st.deferred.push(Box::new(move || adopted(handle)));
                self.flush_sink(st, token);
            }
        }
    }

    fn start_reply(&self, st: &mut State, token: u64, bytes: Vec<u8>, close_after: bool) {
        let Some(conn) = st.conns.get_mut(&token) else {
            return;
        };
        conn.wbuf = bytes;
        conn.wpos = 0;
        conn.close_after = close_after;
        match Self::flush_conn(conn) {
            FlushResult::Gone => Self::close_token(&self.epoll, st, token),
            FlushResult::Done => {
                if close_after {
                    Self::close_token(&self.epoll, st, token);
                } else {
                    self.park(st, token);
                }
            }
            FlushResult::Pending => {
                conn.phase = Phase::Flushing;
                let _ = self
                    .epoll
                    .modify(conn.stream.as_raw_fd(), EPOLLOUT, token);
            }
        }
    }

    /// Re-parks a connection after a completed frame: fresh idle
    /// deadline (the only place one is moved; the connection's wheel
    /// entry catches up when it fires), read interest back on, and an
    /// immediate re-scan for a pipelined next frame.
    fn park(&self, st: &mut State, token: u64) {
        let Some(conn) = st.conns.get_mut(&token) else {
            return;
        };
        conn.phase = Phase::Parked;
        conn.deadline = Instant::now() + self.config.idle_timeout;
        let _ = self
            .epoll
            .modify(conn.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token);
        self.try_dispatch(st, token);
    }

    fn flush_conn(conn: &mut Conn) -> FlushResult {
        while conn.wpos < conn.wbuf.len() {
            match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return FlushResult::Gone,
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushResult::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushResult::Gone,
            }
        }
        conn.wbuf.clear();
        conn.wpos = 0;
        FlushResult::Done
    }

    /// Drops a connection.  A sink's close callback is queued for
    /// [`Reactor::unlock`]: it may take its owner's locks, so it never
    /// runs under this one.
    fn close_token(epoll: &Epoll, st: &mut State, token: u64) {
        if let Some(mut conn) = st.conns.remove(&token) {
            // Deregister, then dropping the stream closes the fd.
            let _ = epoll.delete(conn.stream.as_raw_fd());
            st.deferred.extend(conn.on_close.take());
        }
    }

    fn drive_drain(&self, st: &mut State, now: Instant) {
        if !st.drain_started {
            st.drain_started = true;
            st.drain_deadline = Some(now + DRAIN_GRACE);
            let idle: Vec<u64> = st
                .conns
                .iter()
                .filter(|(_, c)| c.is_sink || matches!(c.phase, Phase::Parked))
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                Self::close_token(&self.epoll, st, token);
            }
        }
        if let Some(deadline) = st.drain_deadline {
            if now >= deadline {
                let stuck: Vec<u64> = st
                    .conns
                    .iter()
                    .filter(|(_, c)| matches!(c.phase, Phase::Dispatched | Phase::Flushing))
                    .map(|(t, _)| *t)
                    .collect();
                for token in stuck {
                    Self::close_token(&self.epoll, st, token);
                }
            }
        }
        if st.conns.is_empty() {
            for (_, entry) in st.listeners.drain() {
                let _ = self.epoll.delete(entry.listener.as_raw_fd());
                let (lock, cvar) = &*entry.handle;
                *lock.lock().expect("listener handle poisoned") = true;
                cvar.notify_all();
            }
            st.finished = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use std::net::TcpStream as ClientStream;

    /// Newline-framed echo: replies with the same line, uppercased.
    /// `QUIT` asks for reply-then-close.
    struct EchoDriver;

    impl ConnDriver for EchoDriver {
        fn scan(&mut self, buf: &[u8]) -> FrameScan {
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => FrameScan::Complete(i + 1),
                None if buf.len() > 1024 => FrameScan::Invalid("line too long"),
                None => FrameScan::Partial,
            }
        }

        fn handle(&mut self, frame: Vec<u8>) -> ReadyOutcome {
            let upper: Vec<u8> = frame.to_ascii_uppercase();
            if frame.starts_with(b"QUIT") {
                ReadyOutcome::ReplyClose(upper)
            } else {
                ReadyOutcome::Reply(upper)
            }
        }

        fn busy_reply(&mut self) -> Option<Vec<u8>> {
            Some(b"BUSY\n".to_vec())
        }
    }

    fn rig(
        max_parked: usize,
        idle: Duration,
    ) -> (Arc<WorkerPool>, Arc<ShedLedger>, Arc<Reactor>) {
        let pool = WorkerPool::new(PoolConfig::new("reactor-test", 2, 8));
        let ledger = Arc::new(ShedLedger::new());
        let reactor = Reactor::start(
            Arc::clone(&pool),
            Arc::clone(&ledger),
            ReactorConfig {
                max_parked,
                idle_timeout: idle,
            },
        )
        .expect("start reactor");
        (pool, ledger, reactor)
    }

    fn echo_listener(reactor: &Arc<Reactor>) -> (std::net::SocketAddr, ListenerHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = reactor
            .register_listener(
                listener,
                Arc::new(
                    Surface::new("echo").with_shed_reply(|why| format!("SHED {why}\n").into_bytes()),
                ),
                Box::new(|| Box::new(EchoDriver)),
            )
            .expect("register");
        (addr, handle)
    }

    fn read_line(stream: &mut ClientStream) -> String {
        let mut out = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) => break,
                Ok(_) => {
                    out.push(byte[0]);
                    if byte[0] == b'\n' {
                        break;
                    }
                }
                Err(e) => panic!("read_line: {e}"),
            }
        }
        String::from_utf8(out).expect("utf8 line")
    }

    #[test]
    fn keep_alive_roundtrips_park_between_frames() {
        let (pool, _ledger, reactor) = rig(64, Duration::from_secs(10));
        let (addr, _handle) = echo_listener(&reactor);

        let mut c = ClientStream::connect(addr).expect("connect");
        for i in 0..3 {
            c.write_all(format!("hello {i}\n").as_bytes()).unwrap();
            assert_eq!(read_line(&mut c), format!("HELLO {i}\n"));
        }
        // Between frames the connection is parked, not on a worker.
        let start = Instant::now();
        loop {
            let stats = reactor.stats();
            if stats.parked == 1 && pool.stats().in_flight == 0 {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(5), "{stats:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reactor.stats().frames_dispatched, 3);

        c.write_all(b"QUIT\n").unwrap();
        assert_eq!(read_line(&mut c), "QUIT\n");
        let mut rest = Vec::new();
        c.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "closed after QUIT reply");

        reactor.shutdown();
        pool.shutdown();
    }

    #[test]
    fn partial_frames_buffer_without_consuming_a_worker() {
        let (pool, _ledger, reactor) = rig(64, Duration::from_secs(10));
        let (addr, _handle) = echo_listener(&reactor);

        let mut c = ClientStream::connect(addr).expect("connect");
        // Dribble a frame byte by byte; until the newline arrives the
        // connection stays parked and the pool sees nothing.
        for &b in b"slow" {
            c.write_all(&[b]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = reactor.stats();
        assert_eq!(stats.frames_dispatched, 0, "no frame yet");
        assert_eq!(pool.stats().in_flight, 0, "no worker consumed");
        assert_eq!(stats.parked, 1, "parked with a partial frame buffered");

        c.write_all(b"\n").unwrap();
        assert_eq!(read_line(&mut c), "SLOW\n");

        reactor.shutdown();
        pool.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_by_the_timer_wheel() {
        let (pool, _ledger, reactor) = rig(64, Duration::from_millis(300));
        let (addr, _handle) = echo_listener(&reactor);

        let mut c = ClientStream::connect(addr).expect("connect");
        c.write_all(b"ping\n").unwrap();
        assert_eq!(read_line(&mut c), "PING\n");

        // Idle past the deadline: the wheel reaps the parked connection.
        let mut eof = Vec::new();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.read_to_end(&mut eof).expect("reaped => EOF");
        assert!(eof.is_empty());
        let start = Instant::now();
        while reactor.stats().reaped_idle == 0 {
            assert!(start.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(reactor.stats().open_connections, 0);

        reactor.shutdown();
        pool.shutdown();
    }

    /// However many requests a keep-alive connection makes, it holds one
    /// timer-wheel entry: parking moves the connection's deadline, not
    /// the wheel.
    #[test]
    fn keep_alive_requests_leave_one_wheel_entry_per_connection() {
        let (pool, _ledger, reactor) = rig(64, Duration::from_secs(10));
        let (addr, _handle) = echo_listener(&reactor);

        let mut c = ClientStream::connect(addr).expect("connect");
        for i in 0..10_000 {
            c.write_all(format!("req {i}\n").as_bytes()).unwrap();
            assert_eq!(read_line(&mut c), format!("REQ {i}\n"));
        }
        let open = reactor.stats().open_connections as usize;
        let entries = reactor.state.lock().unwrap().wheel.len();
        assert_eq!(open, 1);
        assert!(entries <= open, "{entries} wheel entries for {open} connection");

        reactor.shutdown();
        pool.shutdown();
    }

    /// Panics on its first frame.
    struct PanickingDriver;

    impl ConnDriver for PanickingDriver {
        fn scan(&mut self, buf: &[u8]) -> FrameScan {
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => FrameScan::Complete(i + 1),
                None => FrameScan::Partial,
            }
        }

        fn handle(&mut self, _frame: Vec<u8>) -> ReadyOutcome {
            panic!("driver bug");
        }

        fn busy_reply(&mut self) -> Option<Vec<u8>> {
            None
        }
    }

    /// Runs `reactor.shutdown()` on a helper thread; `true` when it
    /// returned within `limit`.
    fn shutdown_returns_within(reactor: &Arc<Reactor>, limit: Duration) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        let r = Arc::clone(reactor);
        std::thread::spawn(move || {
            r.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(limit).is_ok()
    }

    /// A driver that panics costs its own connection and nothing else:
    /// the peer sees EOF, the reactor forgets the connection, and drain
    /// is not held open by a frame that will never complete.
    #[test]
    fn panicking_driver_closes_its_connection_and_shutdown_returns() {
        let (pool, _ledger, reactor) = rig(64, Duration::from_secs(10));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        reactor
            .register_listener(
                listener,
                Arc::new(Surface::new("panicky")),
                Box::new(|| Box::new(PanickingDriver)),
            )
            .expect("register");

        let mut c = ClientStream::connect(addr).expect("connect");
        c.write_all(b"boom\n").unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut eof = Vec::new();
        c.read_to_end(&mut eof).expect("the panicked connection is closed");
        assert!(eof.is_empty());
        let start = Instant::now();
        while reactor.stats().open_connections != 0 {
            assert!(start.elapsed() < Duration::from_secs(5), "{:?}", reactor.stats());
            std::thread::sleep(Duration::from_millis(5));
        }
        // The job's drop guard closes the connection during the unwind;
        // the pool counts the job only once `catch_unwind` returns, so
        // EOF and the closed count can be seen before `completed` moves.
        let start = Instant::now();
        while pool.stats().completed != 1 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the pool survived the panic: {:?}",
                pool.stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        assert!(shutdown_returns_within(&reactor, Duration::from_secs(10)));
        pool.shutdown();
    }

    /// Echoes, but its frame scan panics on a `!` byte.
    struct PanickingScan;

    impl ConnDriver for PanickingScan {
        fn scan(&mut self, buf: &[u8]) -> FrameScan {
            assert!(!buf.contains(&b'!'), "scan panics on '!'");
            EchoDriver.scan(buf)
        }

        fn handle(&mut self, frame: Vec<u8>) -> ReadyOutcome {
            EchoDriver.handle(frame)
        }

        fn busy_reply(&mut self) -> Option<Vec<u8>> {
            None
        }
    }

    /// A frame scan that panics on the reactor thread costs its own
    /// connection and nothing else: the peer sees EOF, the next
    /// connection is still served, and shutdown returns (the state lock
    /// was not poisoned).
    #[test]
    fn panicking_scan_closes_its_connection_and_the_reactor_serves_on() {
        let (pool, _ledger, reactor) = rig(64, Duration::from_secs(10));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        reactor
            .register_listener(
                listener,
                Arc::new(Surface::new("panicky-scan")),
                Box::new(|| Box::new(PanickingScan)),
            )
            .expect("register");

        let mut bad = ClientStream::connect(addr).expect("connect");
        bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        bad.write_all(b"!\n").unwrap();
        let mut eof = Vec::new();
        bad.read_to_end(&mut eof).expect("the panicked connection is closed");
        assert!(eof.is_empty());

        let mut good = ClientStream::connect(addr).expect("connect");
        good.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        good.write_all(b"hello\n").unwrap();
        assert_eq!(read_line(&mut good), "HELLO\n");
        drop(good);

        assert!(shutdown_returns_within(&reactor, Duration::from_secs(10)));
        pool.shutdown();
    }

    /// Blocks in `handle` until the gate opens.
    struct GatedDriver(Arc<(Mutex<bool>, Condvar)>);

    impl ConnDriver for GatedDriver {
        fn scan(&mut self, buf: &[u8]) -> FrameScan {
            EchoDriver.scan(buf)
        }

        fn handle(&mut self, frame: Vec<u8>) -> ReadyOutcome {
            let (open, cvar) = &*self.0;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
            ReadyOutcome::Reply(frame)
        }

        fn busy_reply(&mut self) -> Option<Vec<u8>> {
            None
        }
    }

    /// Drain waits for a dispatched frame only as long as its grace: a
    /// handler that never returns cannot hold shutdown open.
    #[test]
    fn drain_force_closes_a_frame_stuck_past_the_grace() {
        let (pool, _ledger, reactor) = rig(64, Duration::from_secs(10));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let driver_gate = Arc::clone(&gate);
        reactor
            .register_listener(
                listener,
                Arc::new(Surface::new("stuck")),
                Box::new(move || Box::new(GatedDriver(Arc::clone(&driver_gate)))),
            )
            .expect("register");

        let mut c = ClientStream::connect(addr).expect("connect");
        c.write_all(b"hang\n").unwrap();
        let start = Instant::now();
        while pool.stats().in_flight != 1 {
            assert!(start.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(5));
        }

        let returned = shutdown_returns_within(&reactor, DRAIN_GRACE * 3);
        // Release the worker whatever happened, so the pool can join it.
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        assert!(returned, "shutdown waited on a stuck frame past the grace");
        pool.shutdown();
    }

    /// A sink the peer hangs up on runs its close callback exactly once,
    /// and a hangup is not a shed.
    #[test]
    fn sink_hangup_runs_the_close_callback_once() {
        let (pool, ledger, reactor) = rig(64, Duration::from_secs(10));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = ClientStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let closes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&closes);
        let sink = reactor
            .adopt_sink(
                served,
                Arc::new(Surface::new("push")),
                Some(Box::new(move || {
                    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                })),
            )
            .unwrap();

        drop(client);
        let start = Instant::now();
        while closes.load(std::sync::atomic::Ordering::SeqCst) == 0 {
            assert!(start.elapsed() < Duration::from_secs(5), "hangup never reported");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!sink.is_open());
        sink.close();
        reactor.shutdown();
        assert_eq!(closes.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(ledger.total(), 0, "a hangup is not a shed");
        pool.shutdown();
    }

    /// Answers its first line with `OK` and turns the connection into a
    /// sink, handing the handle out through a channel.
    struct SinkAfterHello(
        std::sync::mpsc::Sender<SinkHandle>,
        Arc<std::sync::atomic::AtomicUsize>,
    );

    impl ConnDriver for SinkAfterHello {
        fn scan(&mut self, buf: &[u8]) -> FrameScan {
            EchoDriver.scan(buf)
        }

        fn handle(&mut self, _frame: Vec<u8>) -> ReadyOutcome {
            let (handles, closes) = (self.0.clone(), Arc::clone(&self.1));
            ReadyOutcome::Sink {
                reply: b"OK\n".to_vec(),
                surface: Arc::new(Surface::new("converted")),
                on_close: Box::new(move || {
                    closes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }),
                adopted: Box::new(move |sink| handles.send(sink).unwrap()),
            }
        }

        fn busy_reply(&mut self) -> Option<Vec<u8>> {
            None
        }
    }

    /// A frame that ends in `ReadyOutcome::Sink` turns its connection into
    /// a push sink in place: the reply goes out first, the handle reaches
    /// the owner, the connection leaves the timer wheel, and its close
    /// callback runs once on hangup.
    #[test]
    fn a_frame_turns_its_connection_into_a_sink_in_place() {
        let (pool, ledger, reactor) = rig(64, Duration::from_secs(10));
        let (handles, adopted) = std::sync::mpsc::channel();
        let closes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let counter = Arc::clone(&closes);
        reactor
            .register_listener(
                listener,
                Arc::new(Surface::new("converting")),
                Box::new(move || Box::new(SinkAfterHello(handles.clone(), Arc::clone(&counter)))),
            )
            .expect("register");

        let mut c = ClientStream::connect(addr).expect("connect");
        c.write_all(b"hello\n").unwrap();
        let sink = adopted
            .recv_timeout(Duration::from_secs(5))
            .expect("handle handed out");
        assert!(sink.send(b"PUSH\n"));
        assert_eq!(read_line(&mut c), "OK\n");
        assert_eq!(read_line(&mut c), "PUSH\n");
        let stats = reactor.stats();
        assert_eq!(
            (stats.open_sinks, stats.open_connections),
            (1, 0),
            "{stats:?}"
        );
        assert_eq!(
            reactor.state.lock().unwrap().wheel.len(),
            0,
            "left the wheel"
        );

        drop(c);
        let start = Instant::now();
        while closes.load(std::sync::atomic::Ordering::SeqCst) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "hangup never reported"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!sink.is_open());
        reactor.shutdown();
        assert_eq!(closes.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(ledger.total(), 0);
        pool.shutdown();
    }

    #[test]
    fn parked_cap_sheds_into_the_ledger_with_a_reply() {
        let (pool, ledger, reactor) = rig(2, Duration::from_secs(10));
        let (addr, _handle) = echo_listener(&reactor);

        let mut keep = Vec::new();
        for i in 0..2 {
            let mut c = ClientStream::connect(addr).expect("connect");
            c.write_all(format!("warm {i}\n").as_bytes()).unwrap();
            assert_eq!(read_line(&mut c), format!("WARM {i}\n"));
            keep.push(c);
        }
        // Third connection breaches the cap: shed reply + ledger count.
        let mut c3 = ClientStream::connect(addr).expect("connect");
        c3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let line = read_line(&mut c3);
        assert!(line.contains("SHED"), "{line:?}");
        assert!(line.contains("parked-connection cap"), "{line:?}");
        assert_eq!(ledger.total(), 1);
        assert_eq!(ledger.by_surface(), vec![("echo".to_owned(), 1)]);

        reactor.shutdown();
        pool.shutdown();
    }

    #[test]
    fn drain_closes_parked_conns_and_sheds_late_accepts() {
        let (pool, ledger, reactor) = rig(64, Duration::from_secs(10));
        let (addr, handle) = echo_listener(&reactor);

        let mut parked = ClientStream::connect(addr).expect("connect");
        parked.write_all(b"warm\n").unwrap();
        assert_eq!(read_line(&mut parked), "WARM\n");

        let r2 = Arc::clone(&reactor);
        let closer = std::thread::spawn(move || r2.shutdown());

        // The parked connection is closed by the drain.
        parked
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut eof = Vec::new();
        parked.read_to_end(&mut eof).expect("drained => EOF");
        assert!(eof.is_empty());

        closer.join().expect("shutdown returns");
        handle.wait();
        assert!(reactor.is_shutting_down());

        // A connection after drain completes is refused outright (the
        // listener is closed) — and any accepted during the drain window
        // was answered with the shed reply and counted.  Either way no
        // new work was admitted.
        match ClientStream::connect(addr) {
            Err(_) => {}
            Ok(mut late) => {
                late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                let mut buf = Vec::new();
                let _ = late.read_to_end(&mut buf);
                if !buf.is_empty() {
                    let line = String::from_utf8_lossy(&buf);
                    assert!(line.contains("SHED"), "{line}");
                    assert!(ledger.total() >= 1);
                }
            }
        }
        pool.shutdown();
    }
}
