//! End-to-end broker behavior: the authz endpoint answering foxford-shape
//! JSON over the reactor-served HTTP surface, the protected topic broker
//! granting `subscribe` against real delegation chains, revocation push
//! cutting exactly the right streams mid-flight, stalled subscribers
//! being shed without harming healthy ones, and a presence-style
//! in-memory scale run.

use snowflake_broker::topic::{read_publish, subscribe_frame, subscribe_stream};
use snowflake_broker::{
    subject_principal, AuthzEndpoint, NamespaceAuthority, SubscribeError, SubscriberSink,
    TopicBroker,
};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{Certificate, Delegation, Principal, Proof, RevocationPolicy, Time, Validity};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_http::{Handler, HttpClient, HttpRequest, HttpServer};
use snowflake_prover::Prover;
use snowflake_revocation::{
    FreshnessAgent, InProcessValidator, RevocationBus, ValidatorService, DEFAULT_CRL_WINDOW,
};
use snowflake_runtime::{PoolConfig, ReactorConfig, ServerRuntime};
use snowflake_sexpr::Sexp;
use snowflake_crypto::HashVal;
use snowflake_tags::path_vector::{grant_tag, request_tag, ActionTable, PathPattern};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OBJECT_NS: &str = "conference.example.org";
const SUBJECT_NS: &str = "iam.example.org";

fn kp(seed: &[u8]) -> KeyPair {
    let mut rng = DetRng::new(seed);
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn test_now() -> Time {
    Time(1_000_000)
}

fn account(name: &str) -> Principal {
    subject_principal(SUBJECT_NS, &["accounts".to_string(), name.to_string()])
}

/// Collects every emitted decision for assertions.
#[derive(Default)]
struct Collector(Mutex<Vec<DecisionEvent>>);

impl Collector {
    fn events(&self) -> Vec<DecisionEvent> {
        self.0.lock().unwrap().clone()
    }
}

impl AuditEmitter for Collector {
    fn emit(&self, event: DecisionEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// The exemplar conferencing object/action matrix.
fn conference_table() -> ActionTable {
    let mut t = ActionTable::new();
    t.allow(&["rooms"], &["create", "list"])
        .allow(&["rooms", "*"], &["read", "update", "delete"])
        .allow(&["rooms", "*", "agents"], &["list"])
        .allow(&["rooms", "*", "agents", "*"], &["read", "update"])
        .allow(&["rooms", "*", "rtcs"], &["create", "list"])
        .allow(&["rooms", "*", "rtcs", "*"], &["read", "update", "delete"])
        .allow(&["rooms", "*", "events"], &["subscribe"])
        .allow(&["audiences", "*", "events"], &["subscribe"]);
    t
}

fn authz_body(subject: &str, object_path: &[&str], action: &str) -> Vec<u8> {
    let path = object_path
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"subject\":{{\"namespace\":\"{SUBJECT_NS}\",\"value\":[\"accounts\",\"{subject}\"]}},\
          \"object\":{{\"namespace\":\"{OBJECT_NS}\",\"value\":[{path}]}},\
          \"action\":\"{action}\"}}"
    )
    .into_bytes()
}

/// POST /authz over a real reactor-served HTTP connection: the foxford
/// JSON shape is answered allow/deny from the prover's delegation graph,
/// malformed bodies are refused fail-closed, and every answer is audited.
#[test]
fn authz_endpoint_answers_over_http() {
    let issuer_kp = kp(b"authz-endpoint-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let mut rng = DetRng::new(b"authz-endpoint-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);

    // Alice may read/update any rtc in any room; nothing else.
    prover
        .delegate(
            &account("alice"),
            &issuer,
            grant_tag(
                OBJECT_NS,
                &PathPattern::parse(&["rooms", "*", "rtcs", "*"]),
                &["read", "update"],
            ),
            Validity::always(),
            false,
        )
        .unwrap();

    let endpoint = AuthzEndpoint::with_clock(Arc::clone(&prover), test_now);
    endpoint.add_namespace(
        OBJECT_NS,
        NamespaceAuthority {
            issuer,
            table: conference_table(),
        },
    );
    let audit = Arc::new(Collector::default());
    endpoint.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);

    let runtime = ServerRuntime::new(PoolConfig::new("authz-test", 2, 8));
    let server = HttpServer::with_clock(test_now);
    server.route("/authz", endpoint);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    server.attach_to_reactor(listener, &runtime).unwrap();

    let ask = |body: Vec<u8>| {
        let mut client = HttpClient::new(Box::new(TcpStream::connect(addr).unwrap()));
        client.send(&HttpRequest::post("/authz", body)).unwrap()
    };

    // Granted: the delegation covers the path and action.
    let resp = ask(authz_body("alice", &["rooms", "r1", "rtcs", "x9"], "read"));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"{\"result\":\"allow\"}");

    // Denied: action outside the delegated set.
    let resp = ask(authz_body("alice", &["rooms", "r1", "rtcs", "x9"], "delete"));
    assert_eq!(resp.status, 200);
    assert!(resp.body.starts_with(b"{\"result\":\"deny\""), "{:?}", String::from_utf8_lossy(&resp.body));

    // Denied fail-closed: the action exists nowhere on this shape, so no
    // proof search even runs.
    let resp = ask(authz_body("alice", &["rooms", "r1"], "subscribe"));
    assert!(resp.body.starts_with(b"{\"result\":\"deny\""));

    // Denied: a different subject holds no delegation.
    let resp = ask(authz_body("mallory", &["rooms", "r1", "rtcs", "x9"], "read"));
    assert!(resp.body.starts_with(b"{\"result\":\"deny\""));

    // Malformed bodies are 400, fail closed.
    for bad in [
        &b"not json at all"[..],
        b"{\"subject\":{\"namespace\":\"x\",\"value\":[]},\"object\":{\"namespace\":\"y\",\"value\":[\"rooms\"]},\"action\":\"list\"}",
        b"{\"subject\":{\"namespace\":\"x\",\"value\":[\"a\"]},\"object\":{\"namespace\":\"y\",\"value\":[\"rooms\",7]},\"action\":\"list\"}",
        b"{}",
    ] {
        let resp = ask(bad.to_vec());
        assert_eq!(resp.status, 400, "{:?}", String::from_utf8_lossy(bad));
    }

    // GET is refused outright.
    let mut client = HttpClient::new(Box::new(TcpStream::connect(addr).unwrap()));
    let resp = client.send(&HttpRequest::get("/authz")).unwrap();
    assert_eq!(resp.status, 405);

    let events = audit.events();
    let grants = events.iter().filter(|e| e.decision == Decision::Grant).count();
    let denies = events.iter().filter(|e| e.decision == Decision::Deny).count();
    assert_eq!(grants, 1);
    // 3 evaluated denials + 4 malformed-body refusals + the refused GET.
    assert_eq!(denies, 8);
    assert!(events.iter().all(|e| e.surface == "authz"));
    let grant = events.iter().find(|e| e.decision == Decision::Grant).unwrap();
    assert_eq!(grant.object, format!("{OBJECT_NS}:/rooms/r1/rtcs/x9"));
    assert_eq!(grant.action, "read");
    assert_eq!(grant.subject, Some(account("alice")));
    assert!(!grant.cert_hashes.is_empty(), "grant records provenance");

    runtime.shutdown();
}

/// The full streaming story over real TCP: subscribe with a proof, get
/// `(sub-ok)`, receive publishes mid-stream, then one certificate
/// revocation cuts exactly the stream built on it — the other subscriber
/// keeps receiving, no reconnect, no polling.
#[test]
fn revocation_push_cuts_exactly_the_poisoned_stream() {
    let issuer_kp = kp(b"broker-wire-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let mut rng = DetRng::new(b"broker-wire-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);

    let events_grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    let alice = account("alice");
    let bob = account("bob");
    let proof_a = prover
        .delegate(&alice, &issuer, events_grant.clone(), Validity::always(), false)
        .unwrap();
    let proof_b = prover
        .delegate(&bob, &issuer, events_grant, Validity::always(), false)
        .unwrap();
    let cert_a = proof_a.cert_hashes()[0].clone();

    let runtime = ServerRuntime::new(PoolConfig::new("broker-wire", 2, 16));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        Arc::clone(&prover),
        OBJECT_NS,
        issuer,
        conference_table(),
        test_now,
    );
    let audit = Arc::new(Collector::default());
    broker.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    broker.attach_subscribe_listener(listener).unwrap();

    let topic = ["rooms", "r1", "events"];
    let mut stream_a = subscribe_stream(addr, &topic, &alice, &proof_a)
        .unwrap()
        .expect("alice's chain authorizes subscribe");
    let mut stream_b = subscribe_stream(addr, &topic, &bob, &proof_b)
        .unwrap()
        .expect("bob's chain authorizes subscribe");

    // A proof for the wrong subject is refused before the reactor ever
    // sees the connection.
    let denied = subscribe_stream(addr, &topic, &account("mallory"), &proof_a).unwrap();
    assert!(denied.is_err(), "mallory must be denied");
    // A path with no subscribe row is refused fail-closed.
    let denied = subscribe_stream(addr, &["rooms", "r1"], &alice, &proof_a).unwrap();
    match denied {
        Err(reason) => assert_eq!(reason, SubscribeError::NoSuchTopic.to_string()),
        Ok(_) => panic!("a path with no subscribe row must be refused"),
    }

    // Wait until both grants registered (handshakes run on the pool).
    wait_for(|| broker.stats().subscribers == 2);

    // Both live streams receive the publish.
    broker.publish(&topic, b"first").unwrap();
    assert_eq!(read_publish(&mut stream_a).unwrap().1, b"first");
    let (path, data) = read_publish(&mut stream_b).unwrap();
    assert_eq!(path, vec!["rooms", "r1", "events"]);
    assert_eq!(data, b"first");

    // Revoke the certificate behind ALICE's grant: exactly her stream is
    // cut, mid-flight, and she observes EOF without polling.
    assert_eq!(broker.certificate_revoked(&cert_a), 1);
    assert!(
        read_publish(&mut stream_a).is_err(),
        "alice's stream must be severed by the revocation"
    );

    // Bob is untouched: the next publish still reaches him.
    wait_for(|| broker.stats().subscribers == 1);
    broker.publish(&topic, b"second").unwrap();
    assert_eq!(read_publish(&mut stream_b).unwrap().1, b"second");

    // Re-revoking the same certificate cuts nothing further.
    assert_eq!(broker.certificate_revoked(&cert_a), 0);

    let stats = broker.stats();
    assert_eq!(stats.subscribes, 2);
    assert_eq!(stats.denied_subscribes, 2);
    assert_eq!(stats.cut_streams, 1);

    let events = audit.events();
    let cut: Vec<_> = events
        .iter()
        .filter(|e| e.decision == Decision::Revoke)
        .collect();
    assert_eq!(cut.len(), 1);
    assert_eq!(cut[0].surface, "broker-push");
    assert_eq!(cut[0].subject, Some(alice));
    assert!(cut[0].cert_hashes.contains(&cert_a));
    assert_eq!(
        events
            .iter()
            .filter(|e| e.decision == Decision::Grant && e.surface == "broker-sub")
            .count(),
        2
    );

    runtime.shutdown();
}

/// A subscriber that never reads stalls past the reactor's sink buffer
/// cap: it is disconnected, unsubscribed, counted in the per-surface
/// ledger, and audited — while the healthy subscriber keeps receiving.
#[test]
fn stalled_subscriber_is_shed_without_harming_healthy_ones() {
    let issuer_kp = kp(b"broker-stall-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let mut rng = DetRng::new(b"broker-stall-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);
    let grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    let healthy = account("healthy");
    let stalled = account("stalled");
    let proof_h = prover
        .delegate(&healthy, &issuer, grant.clone(), Validity::always(), false)
        .unwrap();
    let proof_s = prover
        .delegate(&stalled, &issuer, grant, Validity::always(), false)
        .unwrap();

    let runtime = ServerRuntime::new(PoolConfig::new("broker-stall", 2, 32));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        prover,
        OBJECT_NS,
        issuer,
        conference_table(),
        test_now,
    );
    let audit = Arc::new(Collector::default());
    broker.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    broker.attach_subscribe_listener(listener).unwrap();

    let topic = ["rooms", "stall", "events"];
    let mut healthy_stream = subscribe_stream(addr, &topic, &healthy, &proof_h)
        .unwrap()
        .unwrap();
    // Subscribed, then never read: kernel buffers fill, then the
    // reactor's sink cap is the backstop.
    let _stalled_stream = subscribe_stream(addr, &topic, &stalled, &proof_s)
        .unwrap()
        .unwrap();
    wait_for(|| broker.stats().subscribers == 2);

    // The healthy side drains on a separate thread so its own socket
    // never backs up while we flood.
    let received = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&received);
    let reader = std::thread::spawn(move || {
        while read_publish(&mut healthy_stream).is_ok() {
            counter.fetch_add(1, Ordering::SeqCst);
        }
    });

    let chunk = vec![7u8; 32 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    while broker.stats().pruned == 0 {
        assert!(Instant::now() < deadline, "stall was never shed");
        // try_permit sheds when the pool is momentarily full; that's
        // fine, keep pushing.
        let _ = broker.publish(&topic, &chunk);
        std::thread::sleep(Duration::from_millis(2));
    }

    wait_for(|| broker.stats().subscribers == 1);
    let stats = broker.stats();
    assert_eq!(stats.pruned, 1);
    assert!(
        runtime
            .sheds_by_surface()
            .iter()
            .any(|(surface, n)| surface == "broker-push" && *n >= 1),
        "the stall must be counted on the push surface: {:?}",
        runtime.sheds_by_surface()
    );
    // The shed/prune was audited with the stalled subject's topic.
    assert!(audit
        .events()
        .iter()
        .any(|e| e.decision == Decision::Shed && e.surface == "broker-push"));

    // The healthy subscriber kept receiving throughout the flood.
    assert!(received.load(Ordering::SeqCst) > 0);
    let before = received.load(Ordering::SeqCst);
    broker.publish(&topic, b"after-the-storm").unwrap();
    wait_for(|| received.load(Ordering::SeqCst) > before);

    runtime.shutdown();
    reader.join().unwrap();
}

/// Subscribers that hang up are pruned as soon as the reactor drops
/// their sinks — no publish has to find them dead first — and a hangup
/// is counted as a prune, never audited as a shed.
#[test]
fn hung_up_subscribers_are_pruned_without_a_publish() {
    const STREAMS: usize = 50;

    let issuer_kp = kp(b"broker-hangup-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let mut rng = DetRng::new(b"broker-hangup-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);
    let churner = account("churner");
    let proof = prover
        .delegate(
            &churner,
            &issuer,
            grant_tag(
                OBJECT_NS,
                &PathPattern::parse(&["rooms", "*", "events"]),
                &["subscribe"],
            ),
            Validity::always(),
            false,
        )
        .unwrap();

    let runtime = ServerRuntime::new(PoolConfig::new("broker-hangup", 2, 16));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        prover,
        OBJECT_NS,
        issuer,
        conference_table(),
        test_now,
    );
    let audit = Arc::new(Collector::default());
    broker.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    broker.attach_subscribe_listener(listener).unwrap();

    let topic = ["rooms", "churn", "events"];
    let streams: Vec<_> = (0..STREAMS)
        .map(|_| {
            subscribe_stream(addr, &topic, &churner, &proof)
                .unwrap()
                .expect("the chain authorizes subscribe")
        })
        .collect();
    wait_for(|| broker.stats().subscribes == STREAMS as u64);

    // Every client hangs up; nothing is ever published.
    drop(streams);
    wait_for(|| broker.stats().subscribers == 0);
    assert_eq!(broker.stats().pruned, STREAMS as u64);
    assert!(
        !audit.events().iter().any(|e| e.decision == Decision::Shed),
        "a hangup is not a shed"
    );

    runtime.shutdown();
}

/// One subscriber's chain and a broker serving subscribe on `runtime`
/// under `clock`, audited into the returned collector.
fn subscribe_rig(
    runtime: &Arc<ServerRuntime>,
    seed: &str,
    clock: fn() -> Time,
) -> (
    Arc<TopicBroker>,
    std::net::SocketAddr,
    Principal,
    Proof,
    Arc<Collector>,
) {
    let issuer_kp = kp(format!("{seed}-issuer").as_bytes());
    let issuer = Principal::key(&issuer_kp.public);
    let mut rng = DetRng::new(format!("{seed}-prover").as_bytes());
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);
    let subscriber = account(seed);
    let grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    let proof = prover
        .delegate(&subscriber, &issuer, grant, Validity::always(), false)
        .unwrap();
    let broker = TopicBroker::with_clock(
        Arc::clone(runtime),
        prover,
        OBJECT_NS,
        issuer,
        conference_table(),
        clock,
    );
    let audit = Arc::new(Collector::default());
    broker.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    broker.attach_subscribe_listener(listener).unwrap();
    (broker, addr, subscriber, proof, audit)
}

/// A subscribe that meets a saturated pool hears the `broker-sub`
/// surface's shed reply, the framed `(sub-deny "worker pool saturated")`,
/// is counted once by the pool, audited once as a `Shed` on that
/// surface, and never becomes a stream.
#[test]
fn saturated_pool_denies_a_subscribe_as_before() {
    let runtime = ServerRuntime::new(PoolConfig::new("broker-busy", 1, 1));
    let (broker, addr, subscriber, proof, audit) = subscribe_rig(&runtime, "busy", test_now);

    // One job holds the only worker, a second fills the one queue slot;
    // both end when the guard drops, even if an assertion fails first.
    struct Release(Arc<AtomicBool>);
    impl Drop for Release {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let release = Release(Arc::new(AtomicBool::new(false)));
    for queued in 0..2 {
        let release = Arc::clone(&release.0);
        runtime
            .pool()
            .submit(move || {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .unwrap();
        wait_for(|| {
            let stats = runtime.stats();
            stats.in_flight == 1 && stats.queue_depth == queued
        });
    }

    let topic = ["rooms", "busy", "events"];
    let frame = subscribe_frame(&topic, &subscriber, &proof);
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    peer.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
    peer.write_all(&frame).unwrap();
    let mut reply = Vec::new();
    peer.read_to_end(&mut reply)
        .expect("the shed subscribe is closed");
    let deny = Sexp::tagged(
        "sub-deny",
        vec![Sexp::atom(b"worker pool saturated".to_vec())],
    );
    let mut expected = (deny.canonical().len() as u32).to_be_bytes().to_vec();
    expected.extend_from_slice(&deny.canonical());
    assert_eq!(reply, expected);

    assert_eq!(runtime.stats().shed, 1, "one counted pool drop");
    let events = audit.events();
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(
        (events[0].decision, events[0].surface.as_str()),
        (Decision::Shed, "broker-sub")
    );
    assert_eq!(broker.stats().subscribers, 0);
    assert_eq!(runtime.reactor_stats().open_sinks, 0);

    drop(release);
    runtime.shutdown();
}

/// A granted subscriber's connection becomes a sink in place and leaves
/// the idle timer: idle for three idle timeouts, it is still an open
/// sink and still receives a publish.
#[test]
fn a_granted_sink_outlives_the_idle_timer() {
    let idle = Duration::from_millis(200);
    let runtime = ServerRuntime::with_reactor_config(
        PoolConfig::new("broker-idle", 2, 16),
        ReactorConfig {
            idle_timeout: idle,
            ..ReactorConfig::default()
        },
    );
    let (broker, addr, subscriber, proof, _audit) = subscribe_rig(&runtime, "idle", test_now);

    let topic = ["rooms", "idle", "events"];
    let mut stream = subscribe_stream(addr, &topic, &subscriber, &proof)
        .unwrap()
        .expect("the chain authorizes subscribe");
    wait_for(|| broker.stats().subscribers == 1);

    std::thread::sleep(idle * 3);
    assert_eq!(runtime.reactor_stats().open_sinks, 1);
    assert_eq!(runtime.reactor_stats().reaped_idle, 0);
    broker
        .publish(&topic, b"after three idle timeouts")
        .unwrap();
    assert_eq!(
        read_publish(&mut stream).unwrap().1,
        b"after three idle timeouts"
    );
    assert_eq!(broker.stats().subscribers, 1);

    runtime.shutdown();
}

/// Closed while a subscribe decision must wait; [`held_clock`] parks the
/// decision on it, so a test can begin drain with a grant in flight.
static HELD: (Mutex<bool>, std::sync::Condvar) = (Mutex::new(true), std::sync::Condvar::new());
static DECIDING: AtomicBool = AtomicBool::new(false);

fn held_clock() -> Time {
    DECIDING.store(true, Ordering::SeqCst);
    let (held, released) = &HELD;
    let mut held = held.lock().unwrap();
    while *held {
        held = released.wait(held).unwrap();
    }
    test_now()
}

/// A grant decided after drain began never becomes a stream: the peer
/// hears the `broker-sub` shed reply, `(sub-deny "shutting down")`, and
/// the refusal is counted and audited as a shed.
#[test]
fn a_grant_decided_during_drain_is_refused() {
    let runtime = ServerRuntime::new(PoolConfig::new("broker-drain", 2, 16));
    let (broker, addr, subscriber, proof, audit) = subscribe_rig(&runtime, "drain", held_clock);

    let topic = ["rooms", "drain", "events"];
    let client = std::thread::spawn(move || {
        subscribe_stream(addr, &topic, &subscriber, &proof)
            .unwrap()
            .map(|_| ())
    });
    wait_for(|| DECIDING.load(Ordering::SeqCst));
    let closer = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || runtime.shutdown())
    };
    wait_for(|| runtime.is_shutting_down());
    *HELD.0.lock().unwrap() = false;
    HELD.1.notify_all();

    assert_eq!(client.join().unwrap(), Err("shutting down".to_string()));
    closer.join().unwrap();
    assert_eq!(broker.stats().subscribers, 0);
    assert!(runtime
        .sheds_by_surface()
        .contains(&("broker-sub".to_owned(), 1)));
    assert!(audit
        .events()
        .iter()
        .any(|e| e.decision == Decision::Shed && e.detail == "shutting down"));
}

/// An in-memory subscriber sink (no fd cost), for presence-style scale.
#[derive(Default)]
struct MemSink {
    open: AtomicBool,
    delivered: AtomicU64,
}

impl MemSink {
    fn new() -> Arc<MemSink> {
        Arc::new(MemSink {
            open: AtomicBool::new(true),
            delivered: AtomicU64::new(0),
        })
    }
}

impl SubscriberSink for MemSink {
    fn deliver(&self, _frame: &[u8]) -> bool {
        if self.open.load(Ordering::SeqCst) {
            self.delivered.fetch_add(1, Ordering::SeqCst);
            true
        } else {
            false
        }
    }
    fn is_open(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }
    fn close(&self) {
        self.open.store(false, Ordering::SeqCst);
    }
}

/// Presence at scale, in memory: hundreds of subscribers whose grants
/// descend from two team certificates.  Revoking ONE team's certificate
/// cuts every stream in that team and none outside it, and the broker's
/// cut counter matches the prover's invalidation counters.
#[test]
fn one_revocation_cuts_exactly_one_teams_streams() {
    // Debug-build signing dominates here; the 5k-subscriber version of
    // this scenario runs release-mode in `benches/broker_fanout.rs`.
    const PER_TEAM: usize = 100;

    let issuer_kp = kp(b"broker-scale-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let team_a_kp = kp(b"broker-scale-team-a");
    let team_b_kp = kp(b"broker-scale-team-b");
    let team_a = Principal::key(&team_a_kp.public);
    let team_b = Principal::key(&team_b_kp.public);
    let mut rng = DetRng::new(b"broker-scale-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);
    prover.add_key(team_a_kp);
    prover.add_key(team_b_kp);

    let grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    // Team leads hold delegable authority from the issuer; each member's
    // own grant descends from their team's certificate.
    let team_a_proof = prover
        .delegate(&team_a, &issuer, grant.clone(), Validity::always(), true)
        .unwrap();
    let team_b_proof = prover
        .delegate(&team_b, &issuer, grant.clone(), Validity::always(), true)
        .unwrap();
    let cert_team_a = team_a_proof.cert_hashes()[0].clone();
    let cert_team_b = team_b_proof.cert_hashes()[0].clone();

    let runtime = ServerRuntime::new(PoolConfig::new("broker-scale", 2, 16));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        Arc::clone(&prover),
        OBJECT_NS,
        issuer,
        conference_table(),
        test_now,
    );

    let topic = ["rooms", "main", "events"];
    let mut sinks_a = Vec::new();
    let mut sinks_b = Vec::new();
    for i in 0..PER_TEAM {
        for (tname, team, sinks) in
            [("a", &team_a, &mut sinks_a), ("b", &team_b, &mut sinks_b)]
        {
            let subject = account(&format!("member-{tname}-{i}"));
            prover
                .delegate(&subject, team, grant.clone(), Validity::always(), false)
                .unwrap();
            let sink = MemSink::new();
            broker
                .subscribe_local(subject, &topic, Arc::clone(&sink) as Arc<dyn SubscriberSink>)
                .expect("chain through the team cert must authorize");
            sinks.push(sink);
        }
    }
    assert_eq!(broker.stats().subscribers, (PER_TEAM * 2) as u64);

    // Every parked presence receives one publish.
    broker.publish(&topic, b"announce").unwrap();
    wait_for(|| broker.stats().deliveries == (PER_TEAM * 2) as u64);

    // One revocation: team A's certificate dies.  The prover's warm
    // edges AND the broker's streams built on it go together.
    let cuts = broker.certificate_revoked(&cert_team_a);
    let prover_evicted = prover.invalidate_cert(&cert_team_a);
    assert_eq!(cuts, PER_TEAM, "exactly team A's streams are cut");
    assert_eq!(broker.stats().cut_streams, PER_TEAM as u64);
    assert!(
        prover_evicted > 0,
        "the prover held warm edges through the dead certificate"
    );
    assert!(prover.stats().cert_invalidations >= 1);
    assert!(sinks_a.iter().all(|s| !s.is_open()), "team A severed");
    assert!(sinks_b.iter().all(|s| s.is_open()), "team B untouched");
    assert_eq!(broker.stats().subscribers, PER_TEAM as u64);

    // Survivors still receive; the dead streams take nothing.
    let before: u64 = sinks_b.iter().map(|s| s.delivered.load(Ordering::SeqCst)).sum();
    broker.publish(&topic, b"after-cut").unwrap();
    wait_for(|| {
        sinks_b
            .iter()
            .map(|s| s.delivered.load(Ordering::SeqCst))
            .sum::<u64>()
            == before + PER_TEAM as u64
    });
    assert!(sinks_a
        .iter()
        .all(|s| s.delivered.load(Ordering::SeqCst) == 1));

    // Team B's certificate still cuts cleanly afterwards.
    assert_eq!(broker.certificate_revoked(&cert_team_b), PER_TEAM);
    assert_eq!(broker.stats().subscribers, 0);

    runtime.shutdown();
}

/// Armed with a broker and a certificate, [`racing_clock`] revokes that
/// certificate the next time the broker reads the time — which the
/// subscribe decision does after taking its token and before verifying,
/// exactly where a revocation push can land in production.
static RACE: Mutex<Option<(Arc<TopicBroker>, HashVal)>> = Mutex::new(None);

fn racing_clock() -> Time {
    let armed = RACE.lock().unwrap().take();
    if let Some((broker, cert)) = armed {
        broker.certificate_revoked(&cert);
    }
    test_now()
}

/// A subscribe whose verification a revocation push overtook is refused:
/// no stream stays parked on the dead certificate, in process or over
/// the wire, and the refusal is audited.  Presenting the proof again
/// (a fresh token) is granted.
#[test]
fn subscribe_overtaken_by_revocation_is_refused() {
    let issuer_kp = kp(b"broker-race-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let mut rng = DetRng::new(b"broker-race-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);
    let alice = account("alice");
    let grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    let proof = prover
        .delegate(&alice, &issuer, grant, Validity::always(), false)
        .unwrap();
    let cert = proof.cert_hashes()[0].clone();

    let runtime = ServerRuntime::new(PoolConfig::new("broker-race", 2, 16));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        prover,
        OBJECT_NS,
        issuer,
        conference_table(),
        racing_clock,
    );
    let audit = Arc::new(Collector::default());
    broker.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
    let topic = ["rooms", "r1", "events"];

    // In process: the push lands between the token and the insert.
    *RACE.lock().unwrap() = Some((Arc::clone(&broker), cert.clone()));
    let sink = MemSink::new();
    let refused = broker.subscribe_with_proof(
        alice.clone(),
        &topic,
        &proof,
        Arc::clone(&sink) as Arc<dyn SubscriberSink>,
    );
    assert!(
        matches!(refused, Err(SubscribeError::Unauthorized(_))),
        "a grant the revocation overtook must be refused: {refused:?}"
    );
    assert_eq!(broker.stats().subscribers, 0, "no stream parked");
    assert_eq!(broker.certificate_revoked(&cert), 0, "nothing left on the dead cert");
    let stats = broker.stats();
    assert_eq!((stats.subscribes, stats.denied_subscribes), (0, 1));
    let events = audit.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].decision, Decision::Deny);
    assert_eq!(events[0].surface, "broker-sub");
    assert_eq!(events[0].subject, Some(alice.clone()));
    assert!(events[0].detail.contains("revocation landed"), "{}", events[0].detail);

    // Over the wire: `sub-ok` was already sent when the insert refuses,
    // so the peer sees its stream cut — EOF, like any revoked stream.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    broker.attach_subscribe_listener(listener).unwrap();
    *RACE.lock().unwrap() = Some((Arc::clone(&broker), cert.clone()));
    let mut stream = subscribe_stream(addr, &topic, &alice, &proof)
        .unwrap()
        .expect("the decision itself passed");
    assert!(read_publish(&mut stream).is_err(), "the overtaken stream is severed");
    wait_for(|| broker.stats().denied_subscribes == 2);
    wait_for(|| runtime.reactor_stats().open_sinks == 0);
    assert_eq!(broker.stats().subscribers, 0);

    // Unraced, the same proof is granted (the broker holds no CRL; only
    // the push said the certificate was dead).
    assert!(RACE.lock().unwrap().is_none());
    broker
        .subscribe_with_proof(alice, &topic, &proof, sink)
        .expect("a fresh token inserts");
    assert_eq!(broker.stats().subscribers, 1);

    runtime.shutdown();
}

/// Flipped by the stress test's revoker *before* it pushes: from then on
/// the clock reads past the team certificate's validity, so a subscribe
/// that verifies afterwards is denied — the stand-in for "the CRL learns
/// of a revocation before the push evicts".
static TEAM_CERT_DEAD: AtomicBool = AtomicBool::new(false);

fn stress_clock() -> Time {
    if TEAM_CERT_DEAD.load(Ordering::SeqCst) {
        Time(2_000_000)
    } else {
        test_now()
    }
}

/// Three subscriber threads race one revoker.  Every subscription's
/// chain runs through one team certificate; once the revocation has been
/// pushed, not one live subscription may rest on it — each was either
/// parked in time to be cut, or refused — while a bystander on another
/// chain is untouched.
#[test]
fn subscribe_vs_revoke_stress_leaves_no_stream_on_the_dead_cert() {
    let issuer_kp = kp(b"broker-stress-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let team_kp = kp(b"broker-stress-team");
    let team = Principal::key(&team_kp.public);
    let mut rng = DetRng::new(b"broker-stress-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| rng.fill(b))));
    prover.add_key(issuer_kp);
    prover.add_key(team_kp);
    let grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    let team_cert = prover
        .delegate(&team, &issuer, grant.clone(), Validity::until(Time(1_500_000)), true)
        .unwrap()
        .cert_hashes()[0]
        .clone();
    let topic = ["rooms", "stress", "events"];
    let members: Vec<_> = (0..3)
        .map(|i| {
            let member = account(&format!("stress-{i}"));
            prover
                .delegate(&member, &team, grant.clone(), Validity::always(), false)
                .unwrap();
            let tag = request_tag(OBJECT_NS, &topic, "subscribe");
            let proof = prover.find_proof(&member, &issuer, &tag, test_now()).unwrap();
            assert!(proof.cert_hashes().contains(&team_cert));
            (member, proof)
        })
        .collect();
    let bystander = account("bystander");
    let bystander_proof = prover
        .delegate(&bystander, &issuer, grant, Validity::always(), false)
        .unwrap();

    let runtime = ServerRuntime::new(PoolConfig::new("broker-stress", 2, 16));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        prover,
        OBJECT_NS,
        issuer,
        conference_table(),
        stress_clock,
    );
    let bystander_sink = MemSink::new();
    broker
        .subscribe_with_proof(
            bystander,
            &topic,
            &bystander_proof,
            Arc::clone(&bystander_sink) as Arc<dyn SubscriberSink>,
        )
        .unwrap();

    let granted = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(members.len() + 1);
    let sinks: Vec<Arc<MemSink>> = std::thread::scope(|s| {
        let workers: Vec<_> = members
            .iter()
            .map(|(member, proof)| {
                let (broker, granted, done, start) = (&broker, &granted, &done, &start);
                s.spawn(move || {
                    let mut parked = Vec::new();
                    start.wait();
                    while !done.load(Ordering::SeqCst) {
                        let sink = MemSink::new();
                        let as_dyn = Arc::clone(&sink) as Arc<dyn SubscriberSink>;
                        if broker.subscribe_with_proof(member.clone(), &topic, proof, as_dyn).is_ok() {
                            granted.fetch_add(1, Ordering::SeqCst);
                            parked.push(sink);
                        }
                    }
                    parked
                })
            })
            .collect();
        start.wait();
        while granted.load(Ordering::SeqCst) < 300 {
            std::thread::yield_now();
        }
        TEAM_CERT_DEAD.store(true, Ordering::SeqCst);
        let cut = broker.certificate_revoked(&team_cert);
        done.store(true, Ordering::SeqCst);
        assert!(cut >= 300, "the parked streams were cut: {cut}");
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });

    assert_eq!(
        broker.certificate_revoked(&team_cert),
        0,
        "a live subscription still rests on the revoked certificate"
    );
    assert_eq!(broker.stats().subscribers, 1, "only the bystander remains");
    assert!(bystander_sink.is_open());
    assert!(
        sinks.iter().all(|s| !s.is_open()),
        "every stream granted on the team certificate was severed"
    );
    assert_eq!(sinks.len() as u64, broker.stats().cut_streams);

    runtime.shutdown();
}

fn wait_for(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition never held");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A grant from the namespace issuer to `subject` whose certificate
/// names `validator` in a CRL revocation policy, loaded into a fresh
/// prover; returns the prover and the certificate's hash.
fn crl_policy_grant(
    issuer_kp: &KeyPair,
    subject: &Principal,
    validator: &ValidatorService,
    actions: &[&str],
    pattern: &[&str],
) -> (Arc<Prover>, HashVal) {
    let mut rng = DetRng::new(b"crl-policy-grant");
    let cert = Certificate::issue_with_revocation(
        issuer_kp,
        Delegation {
            subject: subject.clone(),
            issuer: Principal::key(&issuer_kp.public),
            tag: grant_tag(OBJECT_NS, &PathPattern::parse(pattern), actions),
            validity: Validity::always(),
            delegable: false,
        },
        Some(RevocationPolicy::Crl {
            validator: validator.validator_hash(),
        }),
        &mut |b| rng.fill(b),
    );
    let hash = cert.hash();
    let mut prng = DetRng::new(b"crl-policy-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    prover.add_proof(Proof::signed_cert(cert));
    (prover, hash)
}

/// A freshness agent that refetches on every `refresh_due` (a lead of a
/// whole CRL window), fed in-process by `validator`.  No push bus is
/// wired anywhere it is used: what it knows, it learned by pulling.
fn pulling_agent(validator: &Arc<ValidatorService>) -> Arc<FreshnessAgent> {
    let agent = FreshnessAgent::with_pacing(test_now, DEFAULT_CRL_WINDOW, 0, 0);
    agent.register_validator(
        validator.validator_hash(),
        Arc::new(InProcessValidator(Arc::clone(validator))),
    );
    agent
}

fn crl_validator() -> Arc<ValidatorService> {
    let mut rng = DetRng::new(b"crl-policy-validator-rng");
    ValidatorService::with_clock(kp(b"crl-policy-validator"), test_now, Box::new(move |b| rng.fill(b)))
}

/// `/authz` consults revocation data through its surface: a chain whose
/// certificate carries a CRL policy is refused while no CRL is known,
/// granted once a freshness agent is attached to the surface, and refused
/// again once the validator revokes it and the agent pulls the new list.
#[test]
fn authz_consults_the_crl_of_an_attached_agent() {
    let issuer_kp = kp(b"crl-authz-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let validator = crl_validator();
    let (prover, cert) = crl_policy_grant(
        &issuer_kp,
        &account("alice"),
        &validator,
        &["read"],
        &["rooms", "*"],
    );
    let endpoint = AuthzEndpoint::with_clock(prover, test_now);
    endpoint.add_namespace(
        OBJECT_NS,
        NamespaceAuthority {
            issuer,
            table: conference_table(),
        },
    );
    let ask = || {
        let req = HttpRequest::post("/authz", authz_body("alice", &["rooms", "r1"], "read"));
        String::from_utf8(endpoint.handle(&req).body).unwrap()
    };

    let before = ask();
    assert!(before.contains("no current CRL"), "{before}");

    let agent = pulling_agent(&validator);
    endpoint.surface().set_revocation_source(agent.clone());
    assert_eq!(agent.refresh_due(), 1);
    assert_eq!(ask(), "{\"result\":\"allow\"}");

    validator.revoke(cert);
    assert_eq!(agent.refresh_due(), 1);
    let after = ask();
    assert!(after.contains("certificate is on the CRL"), "{after}");
}

/// The broker's subscribe decision consults the same: granted under an
/// attached agent's CRL, refused after the revocation is pulled.
#[test]
fn subscribe_consults_the_crl_of_an_attached_agent() {
    let issuer_kp = kp(b"crl-broker-issuer");
    let issuer = Principal::key(&issuer_kp.public);
    let validator = crl_validator();
    let bob = account("bob");
    let (prover, cert) = crl_policy_grant(
        &issuer_kp,
        &bob,
        &validator,
        &["subscribe"],
        &["rooms", "*", "events"],
    );
    let runtime = ServerRuntime::new(PoolConfig::new("broker-crl", 1, 4));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        prover,
        OBJECT_NS,
        issuer,
        conference_table(),
        test_now,
    );
    let topic = ["rooms", "r1", "events"];
    let subscribe = || broker.subscribe_local(bob.clone(), &topic, MemSink::new());

    match subscribe() {
        Err(SubscribeError::Unauthorized(why)) => assert!(why.contains("no current CRL"), "{why}"),
        other => panic!("no CRL known yet, got {other:?}"),
    }

    let agent = pulling_agent(&validator);
    broker.surface().set_revocation_source(agent.clone());
    assert_eq!(agent.refresh_due(), 1);
    assert!(subscribe().is_ok());

    validator.revoke(cert);
    assert_eq!(agent.refresh_due(), 1);
    match subscribe() {
        Err(SubscribeError::Unauthorized(why)) => {
            assert!(why.contains("certificate is on the CRL"), "{why}")
        }
        other => panic!("revoked and pulled, got {other:?}"),
    }
    runtime.shutdown();
}
