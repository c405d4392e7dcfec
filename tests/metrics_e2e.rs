//! The live metrics plane, end to end: every serving surface — the
//! protected servlet, its HTTP server, the RMI server, the HTTP→RMI
//! gateway, the authz facade, and the topic broker — rides one runtime,
//! takes real traffic over TCP, and a `GET /metrics` scrape of the
//! process-global registry shows per-surface request-latency histograms
//! with non-zero tails, the shed counters, and the memo / key-table hit
//! ratios, all in one consistent Prometheus snapshot.

use snowflake_apps::emaildb::{EmailDb, EMAIL_DB_OBJECT};
use snowflake_audit::{AuditLog, AuditSink, MemoryBackend};
use snowflake_broker::topic::{read_publish, subscribe_stream};
use snowflake_broker::{AuthzEndpoint, NamespaceAuthority, TopicBroker};
use snowflake_channel::{SecureChannel, TcpTransport};
use snowflake_core::audit::AuditEmitter;
use snowflake_core::{Certificate, Delegation, Principal, Proof, Tag, Time, Validity};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_http::{
    serve_metrics, HttpClient, HttpRequest, HttpResponse, HttpServer, ProtectedServlet,
    SnowflakeProxy, SnowflakeService, METRICS_PATH,
};
use snowflake_prover::Prover;
use snowflake_rmi::{CallerInfo, Invocation, RemoteObject, RmiClient, RmiFault, RmiServer};
use snowflake_runtime::{PoolConfig, ServerRuntime};
use snowflake_sexpr::Sexp;
use snowflake_tags::path_vector::{grant_tag, ActionTable, PathPattern};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const OBJECT_NS: &str = "conference.example.org";

fn fixed_clock() -> Time {
    Time(1_000_000)
}

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn det(seed: &str) -> Box<dyn FnMut(&mut [u8]) + Send> {
    let mut r = DetRng::new(seed.as_bytes());
    Box::new(move |b: &mut [u8]| r.fill(b))
}

fn tag(src: &str) -> Tag {
    Tag::parse(&Sexp::parse(src.as_bytes()).unwrap()).unwrap()
}

struct Echo {
    issuer: Principal,
}

impl SnowflakeService for Echo {
    fn issuer(&self, _req: &HttpRequest) -> Principal {
        self.issuer.clone()
    }
    fn min_tag(&self, req: &HttpRequest) -> Tag {
        snowflake_http::auth::web_tag(&req.method, "echo", &req.path)
    }
    fn serve(&self, req: &HttpRequest, _speaker: &Principal) -> HttpResponse {
        HttpResponse::ok("text/plain", req.path.clone().into_bytes())
    }
}

struct Ping;

impl RemoteObject for Ping {
    fn issuer(&self) -> Principal {
        Principal::message(b"metrics-e2e-rmi")
    }
    fn invoke(&self, invocation: &Invocation, _caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        match invocation.method.as_str() {
            "ping" => Ok(Sexp::from("pong")),
            other => Err(RmiFault::NoSuchMethod(other.into())),
        }
    }
}

/// Reads one sample's value out of a rendered exposition body.
fn metric(body: &str, line_prefix: &str) -> f64 {
    let line = body
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .unwrap_or_else(|| panic!("no sample starting with {line_prefix:?} in:\n{body}"));
    line.rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|e| panic!("unparseable value on {line:?}: {e}"))
}

fn wait_for(cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "condition never held");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut client = HttpClient::new(Box::new(TcpStream::connect(addr).unwrap()));
    let resp = client.send(&HttpRequest::get(METRICS_PATH)).unwrap();
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body).unwrap()
}

#[test]
fn every_surface_reports_into_one_live_scrape() {
    let registry = snowflake_metrics::global();

    // One audit pipeline and one runtime under every surface.
    let log = AuditLog::with_rng(
        kp("metrics-e2e-log"),
        Box::new(MemoryBackend::new(0)),
        4,
        det("metrics-e2e-log-rng"),
    )
    .unwrap();
    let sink = AuditSink::with_capacity(Arc::clone(&log), 1024);
    let runtime = ServerRuntime::new(PoolConfig::new("metrics-e2e", 4, 16));
    runtime.register_metrics(registry);
    sink.register_metrics(registry);
    snowflake_crypto::register_key_table_metrics(registry);

    // --- Servlet + HTTP + authz facade + gateway on one HTTP server. ---
    let owner = kp("metrics-e2e-owner");
    let issuer = Principal::key(&owner.public);
    let servlet = ProtectedServlet::with_clock(
        Echo {
            issuer: issuer.clone(),
        },
        fixed_clock,
        det("metrics-e2e-servlet"),
    );
    servlet.register_metrics(registry);

    let broker_issuer_kp = kp("metrics-e2e-broker-issuer");
    let broker_issuer = Principal::key(&broker_issuer_kp.public);
    let prover = Arc::new(Prover::with_rng(det("metrics-e2e-prover")));
    prover.add_key(broker_issuer_kp);
    prover.register_metrics(registry);
    let endpoint = AuthzEndpoint::with_clock(Arc::clone(&prover), fixed_clock);
    endpoint.add_namespace(
        OBJECT_NS,
        NamespaceAuthority {
            issuer: broker_issuer.clone(),
            table: {
                let mut t = ActionTable::new();
                t.allow(&["rooms", "*", "events"], &["subscribe"]);
                t
            },
        },
    );
    endpoint.set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);
    endpoint.register_metrics(registry);

    // --- The RMI surface, also backing the gateway's client. -----------
    let db_key = kp("metrics-e2e-db");
    let rmi_server = RmiServer::with_clock(fixed_clock);
    rmi_server.register_open("echo", Arc::new(Ping));
    rmi_server.register(EMAIL_DB_OBJECT, Arc::new(EmailDb::new(Principal::key(&db_key.public))));
    rmi_server.register_metrics(registry);
    let rmi_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let rmi_addr = rmi_listener.local_addr().unwrap();
    rmi_server
        .serve_reactor(rmi_listener, &runtime, kp("metrics-e2e-rmi-server"), None)
        .unwrap();

    let connect_rmi = |seed: &str| {
        let transport = TcpTransport::new(TcpStream::connect(rmi_addr).unwrap());
        let key = kp(seed);
        let mut rng = DetRng::new(format!("{seed}-rng").as_bytes());
        let channel =
            SecureChannel::client(Box::new(transport), Some(&key), None, &mut |b| rng.fill(b))
                .unwrap();
        RmiClient::with_clock(Box::new(channel), kp(seed), Arc::new(Prover::new()), fixed_clock)
    };
    let mut rmi_client = connect_rmi("metrics-e2e-rmi-client");
    for _ in 0..3 {
        assert_eq!(
            rmi_client.invoke("echo", "ping", vec![]).unwrap(),
            Sexp::from("pong")
        );
    }

    let gateway = Arc::new(snowflake_apps::QuotingGateway::new(
        connect_rmi("metrics-e2e-gateway"),
        fixed_clock,
    ));
    gateway.register_metrics(registry);

    let http = HttpServer::with_clock(fixed_clock);
    http.route("/echo", Arc::clone(&servlet) as Arc<dyn snowflake_http::Handler>);
    http.route("/authz", endpoint);
    http.route("/mail", gateway as Arc<dyn snowflake_http::Handler>);
    let http_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let http_addr = http_listener.local_addr().unwrap();
    http.attach_to_reactor(http_listener, &runtime).unwrap();

    // --- The topic broker with its subscribe listener. ------------------
    let mut table = ActionTable::new();
    table.allow(&["rooms", "*", "events"], &["subscribe"]);
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        Arc::clone(&prover),
        OBJECT_NS,
        broker_issuer.clone(),
        table,
        fixed_clock,
    );
    broker.set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);
    broker.register_metrics(registry);
    let sub_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let sub_addr = sub_listener.local_addr().unwrap();
    broker.attach_subscribe_listener(sub_listener).unwrap();

    // --- The exporter itself, a surface like any other. -----------------
    let metrics_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let metrics_addr = metrics_listener.local_addr().unwrap();
    let (_metrics_handle, metrics_endpoint) =
        serve_metrics(metrics_listener, &runtime, fixed_clock).unwrap();
    metrics_endpoint.set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);

    // ===== Load. =========================================================
    // Servlet: an authorized client behind the proxy, three times over.
    let alice = kp("metrics-e2e-alice");
    let mut rng = det("metrics-e2e-grant");
    let grant = Certificate::issue(
        &owner,
        Delegation {
            subject: Principal::key(&alice.public),
            issuer,
            tag: tag("(tag (web))"),
            validity: Validity::always(),
            delegable: true,
        },
        &mut rng,
    );
    let alice_prover = Arc::new(Prover::with_rng(det("metrics-e2e-alice-prover")));
    alice_prover.add_proof(Proof::signed_cert(grant));
    alice_prover.add_key(alice.clone());
    let proxy = SnowflakeProxy::with_clock(alice_prover, fixed_clock, det("metrics-e2e-proxy"));
    proxy.set_identity(Principal::key(&alice.public));
    for _ in 0..3 {
        let mut client = HttpClient::new(Box::new(TcpStream::connect(http_addr).unwrap()));
        let resp = proxy.execute(&mut client, HttpRequest::get("/echo/doc")).unwrap();
        assert_eq!(resp.status, 200);
    }

    // Authz facade: one allow answer.
    let carol = Principal::message(b"carol");
    let events_grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    let carol_proof = prover
        .delegate(&carol, &broker_issuer, events_grant, Validity::always(), false)
        .unwrap();
    let body = format!(
        "{{\"subject\":{{\"namespace\":\"{OBJECT_NS}\",\"value\":[\"x\"]}},\
          \"object\":{{\"namespace\":\"{OBJECT_NS}\",\"value\":[\"rooms\",\"r1\",\"events\"]}},\
          \"action\":\"subscribe\"}}"
    );
    let mut client = HttpClient::new(Box::new(TcpStream::connect(http_addr).unwrap()));
    let resp = client
        .send(&HttpRequest::post("/authz", body.into_bytes()))
        .unwrap();
    assert_eq!(resp.status, 200);

    // Gateway: an unauthenticated mail read is challenged — a decision,
    // timed like any other.
    let mut client = HttpClient::new(Box::new(TcpStream::connect(http_addr).unwrap()));
    let resp = client
        .send(&HttpRequest::get("/mail/alice/inbox"))
        .unwrap();
    assert_eq!(resp.status, 401);

    // Broker: carol subscribes twice on one proof (the second verification
    // is a memo hit), then a publish fans out to both streams.
    let topic = ["rooms", "r1", "events"];
    let mut phone = subscribe_stream(sub_addr, &topic, &carol, &carol_proof)
        .unwrap()
        .expect("carol authorized");
    let mut laptop = subscribe_stream(sub_addr, &topic, &carol, &carol_proof)
        .unwrap()
        .expect("carol authorized twice");
    wait_for(|| broker.stats().subscribers == 2);
    broker.publish(&topic, b"hello").unwrap();
    assert_eq!(read_publish(&mut phone).unwrap().1, b"hello");
    assert_eq!(read_publish(&mut laptop).unwrap().1, b"hello");

    // ===== Scrape twice (the second sees the first scrape's own latency).
    let _ = scrape(metrics_addr);
    let body = scrape(metrics_addr);

    // Every surface's request-latency histogram is live and non-empty,
    // with a non-zero tail.
    for surface in [
        "http",
        "servlet",
        "authz",
        "rmi",
        "gateway",
        "broker-sub",
        "broker-publish",
        "metrics",
    ] {
        let count = metric(
            &body,
            &format!("sf_request_duration_seconds_count{{surface=\"{surface}\"}}"),
        );
        assert!(count >= 1.0, "surface {surface} recorded nothing:\n{body}");
        let sum = metric(
            &body,
            &format!("sf_request_duration_seconds_sum{{surface=\"{surface}\"}}"),
        );
        assert!(sum > 0.0, "surface {surface} has a zero latency sum");
        let p99 = snowflake_metrics::request_histogram(surface)
            .snapshot()
            .p99_ns();
        assert!(p99 > 0.0, "surface {surface} has a zero p99");
    }

    // The shed counters from the pool and the per-surface reactor ledger
    // are mapped into the registry (zero is fine; absent is not).
    assert!(body.contains("sf_sheds_total{origin=\"pool\"}"), "{body}");
    assert_eq!(metric(&body, "sf_pool_workers"), 4.0);
    assert!(metric(&body, "sf_jobs_submitted_total") >= 1.0);

    // Cache behavior is visible: the broker's verified-chain memo hit on
    // carol's second subscribe, and the Schnorr key table was populated
    // by the proof verifications.
    assert!(
        metric(&body, "sf_chain_memo_hits_total{surface=\"broker-sub\"}") >= 1.0,
        "{body}"
    );
    assert!(
        metric(&body, "sf_chain_memo_misses_total{surface=\"broker-sub\"}") >= 1.0,
        "{body}"
    );
    assert!(metric(&body, "sf_key_table_builds_total") >= 1.0, "{body}");
    assert!(body.contains("sf_key_table_hits_total"), "{body}");
    // The servlet and authz memos are registered even where idle.
    assert!(body.contains("sf_chain_memo_hits_total{surface=\"servlet\"}"), "{body}");
    assert!(body.contains("sf_chain_memo_hits_total{surface=\"authz\"}"), "{body}");
    // The audit sink's health counters ride along.
    assert!(metric(&body, "sf_audit_accepted_total") >= 1.0, "{body}");

    runtime.shutdown();
}
