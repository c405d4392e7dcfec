//! RMI over real TCP through the connection reactor: the handshake is
//! the connection driver's first state, the session then parks between
//! invocations (no worker per connection), session resumption works
//! through the same driver, a saturated pool closes a handshake without
//! a reply and answers an established session with a sealed `Busy`
//! fault, and shutdown drains what was admitted while refusing what
//! arrives late.

use snowflake_channel::transport::length_prefixed;
use snowflake_channel::{SecureChannel, SessionCache, TcpTransport};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{Principal, Time};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_prover::Prover;
use snowflake_rmi::{CallerInfo, Invocation, RemoteObject, RmiClient, RmiFault, RmiServer};
use snowflake_runtime::{PoolConfig, ServerRuntime};
use snowflake_sexpr::Sexp;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn fixed_clock() -> Time {
    Time(1_000)
}

fn keypair(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

/// An open/closed gate plus a count of callers currently parked on it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn closed() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
            entered: AtomicUsize::new(0),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn wait_entered(&self, n: usize) {
        wait_for(|| self.entered.load(Ordering::SeqCst) >= n);
    }
}

fn wait_for(mut cond: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(start.elapsed().as_secs() < 10, "condition not reached in time");
        std::thread::yield_now();
    }
}

/// `wait` parks on the gate; `ping` returns immediately.  Registered
/// open so the tests exercise connection mechanics, not proof search.
struct GatedObject(Arc<Gate>);

impl RemoteObject for GatedObject {
    fn issuer(&self) -> Principal {
        Principal::message(b"reactor-test")
    }

    fn invoke(&self, invocation: &Invocation, _caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        match invocation.method.as_str() {
            "wait" => {
                self.0.wait();
                Ok(Sexp::from("waited"))
            }
            "ping" => Ok(Sexp::from("pong")),
            other => Err(RmiFault::NoSuchMethod(other.into())),
        }
    }
}

/// Handshakes a secure channel to `addr`, returning it un-boxed so the
/// caller can inspect resumption before wrapping it in a client.
fn secure_connect(
    addr: std::net::SocketAddr,
    seed: &str,
    resume: Option<(&SessionCache, &str)>,
) -> SecureChannel {
    let transport = TcpTransport::new(TcpStream::connect(addr).unwrap());
    let key = keypair(seed);
    let mut rng = DetRng::new(format!("{seed}-rng").as_bytes());
    SecureChannel::client(Box::new(transport), Some(&key), resume, &mut |b| {
        rng.fill(b)
    })
    .unwrap()
}

fn client_for(channel: SecureChannel, seed: &str) -> RmiClient {
    RmiClient::with_clock(
        Box::new(channel),
        keypair(seed),
        Arc::new(Prover::new()),
        fixed_clock,
    )
}

/// Several authenticated sessions invoke over one 4-worker runtime; the
/// connections park in the reactor between calls (no worker held), and a
/// reconnecting client resumes its cached session through the offloaded
/// handshake path.
#[test]
fn reactor_parks_sessions_between_invocations() {
    let gate = Gate::closed();
    let server = RmiServer::with_clock(fixed_clock);
    server.register_open("gated", Arc::new(GatedObject(Arc::clone(&gate))));
    let runtime = ServerRuntime::new(PoolConfig::new("rmi-reactor", 4, 8));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_cache = SessionCache::new();
    let handle = server
        .serve_reactor(listener, &runtime, keypair("server"), Some(server_cache))
        .unwrap();

    // Three sessions, each making two invocations on the same socket.
    let mut clients: Vec<RmiClient> = (0..3)
        .map(|i| {
            let seed = format!("client-{i}");
            client_for(secure_connect(addr, &seed, None), &seed)
        })
        .collect();
    for c in &mut clients {
        for _ in 0..2 {
            assert_eq!(c.invoke("gated", "ping", vec![]).unwrap(), Sexp::from("pong"));
        }
    }

    // Between invocations every session is parked: sockets open, zero
    // workers in flight.
    wait_for(|| runtime.reactor_stats().parked == 3 && runtime.stats().in_flight == 0);
    assert!(runtime.reactor_stats().frames_dispatched >= 6);

    // A fourth client with a warm cache reconnects twice; the second
    // handshake resumes (no public-key operations) through the driver.
    let client_cache = SessionCache::new();
    let first = secure_connect(addr, "resumer", Some((&client_cache, "rmi")));
    assert!(!first.was_resumed());
    let mut c = client_for(first, "resumer");
    assert_eq!(c.invoke("gated", "ping", vec![]).unwrap(), Sexp::from("pong"));
    drop(c);
    let second = secure_connect(addr, "resumer", Some((&client_cache, "rmi")));
    assert!(
        second.was_resumed(),
        "the handshake driver must honor tickets"
    );

    runtime.shutdown();
    handle.wait();
}

/// With the one worker parked mid-invocation and the queue full, a
/// further invocation on an *established* session is shed with a sealed
/// `Busy` fault — counted once, by the pool's drop counter.
#[test]
fn saturated_pool_seals_busy_at_invocation_time() {
    let gate = Gate::closed();
    let server = RmiServer::with_clock(fixed_clock);
    server.register_open("gated", Arc::new(GatedObject(Arc::clone(&gate))));
    let runtime = ServerRuntime::new(PoolConfig::new("rmi-busy", 1, 1));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = server
        .serve_reactor(listener, &runtime, keypair("server"), None)
        .unwrap();

    // Handshake all three sessions while the pool is still free (the
    // handshake's frames are pool jobs).
    let mut a = client_for(secure_connect(addr, "busy-a", None), "busy-a");
    let mut b = client_for(secure_connect(addr, "busy-b", None), "busy-b");
    let mut c = client_for(secure_connect(addr, "busy-c", None), "busy-c");
    let handshakes = runtime.stats().submitted;

    // A occupies the only worker; B fills the one queue slot.
    let a_thread =
        std::thread::spawn(move || a.invoke("gated", "wait", vec![]).expect("gated call"));
    gate.wait_entered(1);
    let b_thread =
        std::thread::spawn(move || b.invoke("gated", "ping", vec![]).expect("queued call"));
    wait_for(|| runtime.stats().submitted == handshakes + 2);

    // C's invocation is shed: a Busy fault sealed on its own session.
    match c.invoke("gated", "ping", vec![]) {
        Err(e) if e.is_busy() => {}
        other => panic!("expected a sealed Busy fault, got {other:?}"),
    }
    assert_eq!(runtime.stats().shed, 1, "one counted drop, one ledger");

    gate.open();
    assert_eq!(a_thread.join().unwrap(), Sexp::from("waited"));
    assert_eq!(b_thread.join().unwrap(), Sexp::from("pong"));

    runtime.shutdown();
    handle.wait();
}

/// Shutdown drains: the in-flight invocation and the queued one both
/// complete and reach their clients, while a connection arriving after
/// shutdown began is refused — one counted shed on the `rmi` surface.
#[test]
fn shutdown_drains_admitted_invocations() {
    let gate = Gate::closed();
    let server = RmiServer::with_clock(fixed_clock);
    server.register_open("gated", Arc::new(GatedObject(Arc::clone(&gate))));
    let runtime = ServerRuntime::new(PoolConfig::new("rmi-drain", 1, 4));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = server
        .serve_reactor(listener, &runtime, keypair("server"), None)
        .unwrap();

    let mut a = client_for(secure_connect(addr, "drain-a", None), "drain-a");
    let mut b = client_for(secure_connect(addr, "drain-b", None), "drain-b");
    let handshakes = runtime.stats().submitted;

    // A: in flight (parked on the gate).  B: admitted, still queued.
    let a_thread =
        std::thread::spawn(move || a.invoke("gated", "wait", vec![]).expect("in-flight call"));
    gate.wait_entered(1);
    let b_thread =
        std::thread::spawn(move || b.invoke("gated", "ping", vec![]).expect("queued call"));
    wait_for(|| runtime.stats().submitted == handshakes + 2);

    // Begin shutdown on a side thread (it blocks until the drain ends).
    let rt = Arc::clone(&runtime);
    let closer = std::thread::spawn(move || rt.shutdown());
    wait_for(|| runtime.is_shutting_down());
    assert!(!closer.is_finished(), "shutdown must block on the drain");

    // A connection arriving during the drain never gets a session.
    let late = TcpTransport::new(TcpStream::connect(addr).unwrap());
    let mut rng = DetRng::new(b"drain-late-rng");
    let refused =
        SecureChannel::client(Box::new(late), Some(&keypair("drain-late")), None, &mut |b| {
            rng.fill(b)
        });
    assert!(refused.is_err(), "no handshake once the drain began");
    assert!(
        runtime.sheds_by_surface().contains(&("rmi".to_owned(), 1)),
        "the refusal is one counted shed: {:?}",
        runtime.sheds_by_surface()
    );

    // Release the gate: A completes, B is then served, the drain ends.
    gate.open();
    assert_eq!(a_thread.join().unwrap(), Sexp::from("waited"));
    assert_eq!(b_thread.join().unwrap(), Sexp::from("pong"));
    closer.join().unwrap();
    handle.wait();
    assert_eq!(runtime.stats().completed, handshakes + 2);
}

/// Records every audited decision.
#[derive(Default)]
struct Collector(Mutex<Vec<DecisionEvent>>);

impl AuditEmitter for Collector {
    fn emit(&self, event: DecisionEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// A handshake frame that meets a saturated pool is shed: closed without
/// a reply (the `rmi` surface has no shed reply), counted once by the
/// pool, and audited once as a `Shed` on the `rmi` surface.
#[test]
fn saturated_pool_closes_a_handshake_without_a_reply() {
    let gate = Gate::closed();
    let server = RmiServer::with_clock(fixed_clock);
    let audit = Arc::new(Collector::default());
    server.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
    let runtime = ServerRuntime::new(PoolConfig::new("rmi-hs-busy", 1, 1));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = server
        .serve_reactor(listener, &runtime, keypair("server"), None)
        .unwrap();

    // One job holds the only worker, a second fills the one queue slot.
    for _ in 0..2 {
        let held = Arc::clone(&gate);
        runtime.pool().submit(move || held.wait()).unwrap();
        gate.wait_entered(1);
    }

    let mut peer = TcpStream::connect(addr).unwrap();
    peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    peer.write_all(&length_prefixed(b"(5:hello)")).unwrap();
    let mut reply = Vec::new();
    peer.read_to_end(&mut reply)
        .expect("the shed handshake is closed");
    assert!(reply.is_empty(), "closed without a reply: {reply:?}");
    assert_eq!(runtime.stats().shed, 1, "one counted pool drop");
    let events = audit.0.lock().unwrap().clone();
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(
        (events[0].decision, events[0].surface.as_str()),
        (Decision::Shed, "rmi")
    );
    assert_eq!(events[0].detail, "worker pool saturated");

    gate.open();
    runtime.shutdown();
    handle.wait();
}
