//! End-to-end: every decision surface — gateway, RMI dispatch, the email
//! database's app checks, the HTTP servlet (signed and MAC paths), the
//! accept-loop sheds, and revocation pushes — emits into one bounded sink,
//! and the resulting chained log answers "why was this historical request
//! granted?" with the full speaks-for provenance, verifiably.

use snowflake_apps::emaildb::{EmailDb, EMAIL_DB_OBJECT};
use snowflake_apps::{ProtectedWebService, QuotingGateway, Vfs};
use snowflake_audit::{
    records_from_reply, verify_chain, AuditLog, AuditQuery, AuditService, AuditSink, DbBackend,
    Decision, MemoryBackend, AUDIT_OBJECT,
};
use snowflake_channel::{PipeTransport, SecureChannel};
use snowflake_core::{
    AuditEmitter, Certificate, Delegation, HashAlg, Principal, Proof, Tag, Time, Validity,
};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_http::mac::ClientMacSession;
use snowflake_http::{duplex, HttpClient, HttpRequest, HttpServer, MacSessionStore, SnowflakeProxy};
use snowflake_prover::Prover;
use snowflake_rmi::{RmiClient, RmiServer};
use snowflake_sexpr::Sexp;
use std::sync::Arc;

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn fixed_clock() -> Time {
    Time(1_000_000)
}

fn tag(src: &str) -> Tag {
    Tag::parse(&Sexp::parse(src.as_bytes()).unwrap()).unwrap()
}

fn fresh_sink(seed: &str, backend: Box<dyn snowflake_audit::AuditBackend>) -> Arc<AuditSink> {
    let key = kp(&format!("{seed}-log-key"));
    let mut sr = DetRng::new(format!("{seed}-log-sign").as_bytes());
    let log = AuditLog::with_rng(key, backend, 4, Box::new(move |b| sr.fill(b))).expect("fresh backend");
    AuditSink::with_capacity(log, 256)
}

/// The four-boundary gateway scenario of `snowflake-apps`, instrumented:
/// one sink hears the RMI server, the email database, and the gateway.
#[test]
fn gateway_email_flow_is_fully_audited() {
    let sink = fresh_sink("gw", Box::new(DbBackend::new()));
    let emitter: Arc<dyn AuditEmitter> = Arc::clone(&sink) as Arc<dyn AuditEmitter>;

    let db_key = kp("db-server");
    let alice = kp("alice-identity");
    let db_issuer = Principal::key(&db_key.public);

    // Database server + seeded mail (seeding happens before the emitter is
    // attached, so the trail holds only externally driven decisions).
    let db_server = RmiServer::with_clock(fixed_clock);
    let email = Arc::new(EmailDb::with_clock(db_issuer.clone(), fixed_clock));
    {
        use snowflake_rmi::{CallerInfo, Invocation, RemoteObject};
        let caller = CallerInfo {
            speaker: Principal::message(b"setup"),
            channel: snowflake_core::ChannelId {
                kind: "setup".into(),
                id: snowflake_core::HashVal::of(b"setup"),
            },
        };
        for (owner, sender, subject, body) in [
            ("alice", "bob", "lunch", "noon at the green?"),
            ("bob", "alice", "re: lunch", "sounds good"),
        ] {
            email
                .invoke(
                    &Invocation {
                        object: EMAIL_DB_OBJECT.into(),
                        method: "insert".into(),
                        args: vec![
                            Sexp::from(owner),
                            Sexp::from(sender),
                            Sexp::from(subject),
                            Sexp::from(body),
                            Sexp::from("inbox"),
                        ],
                        quoting: None,
                    },
                    &caller,
                )
                .unwrap();
        }
    }
    db_server.set_audit_emitter(Arc::clone(&emitter));
    email.set_audit_emitter(Arc::clone(&emitter));
    db_server.register(EMAIL_DB_OBJECT, email);

    // Gateway connected over the secure channel.
    let gateway_session = kp("gateway-session");
    let mut grng = DetRng::new(b"gw-prover");
    let gateway_prover = Arc::new(Prover::with_rng(Box::new(move |b| grng.fill(b))));
    let (ct, st) = PipeTransport::pair();
    // Serves until the gateway's client channel drops with the HTTP
    // server at the end of the test; not joined (same shape as the apps
    // four-boundaries tests).
    let _db_thread = {
        let server = Arc::clone(&db_server);
        let db_key2 = db_key.clone();
        std::thread::spawn(move || {
            let mut rng = DetRng::new(b"db-chan");
            let mut channel =
                SecureChannel::server(Box::new(st), &db_key2, None, &mut |b| rng.fill(b)).unwrap();
            let _ = server.serve_connection(&mut channel);
        })
    };
    let gateway_rmi = {
        let mut rng = DetRng::new(b"gw-chan");
        let channel = SecureChannel::client(Box::new(ct), Some(&gateway_session), None, &mut |b| {
            rng.fill(b)
        })
        .unwrap();
        RmiClient::with_clock(
            Box::new(channel),
            gateway_session.clone(),
            gateway_prover,
            fixed_clock,
        )
    };
    let gateway = QuotingGateway::new(gateway_rmi, fixed_clock);
    gateway.set_audit_emitter(Arc::clone(&emitter));
    let http_server = HttpServer::new();
    http_server.route("/mail", Arc::new(gateway));

    // Alice's proxy, holding the owner's delegable grant.
    let mut rng = DetRng::new(b"grant");
    let grant_cert = Certificate::issue(
        &db_key,
        Delegation {
            subject: Principal::key(&alice.public),
            issuer: db_issuer,
            tag: EmailDb::owner_tag("alice"),
            validity: Validity::always(),
            delegable: true,
        },
        &mut |b| rng.fill(b),
    );
    let grant_hash = grant_cert.hash();
    let mut prng = DetRng::new(b"alice-prover");
    let alice_prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    alice_prover.add_proof(Proof::signed_cert(grant_cert));
    alice_prover.add_key(alice.clone());
    let mut xrng = DetRng::new(b"alice-proxy");
    let alice_proxy =
        SnowflakeProxy::with_clock(alice_prover, fixed_clock, Box::new(move |b| xrng.fill(b)));
    alice_proxy.set_identity(Principal::key(&alice.public));

    // Alice reads her inbox (challenge → proof → grant), then fails to
    // read Bob's.
    let (client_stream, mut server_stream) = duplex();
    let http2 = Arc::clone(&http_server);
    let http_thread = std::thread::spawn(move || {
        let _ = http2.serve_stream(&mut server_stream);
    });
    let mut client = HttpClient::new(Box::new(client_stream));
    let resp = alice_proxy
        .execute(&mut client, HttpRequest::get("/mail/alice/inbox"))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert!(alice_proxy
        .execute(&mut client, HttpRequest::get("/mail/bob/inbox"))
        .is_err());
    drop(client);
    http_thread.join().unwrap();

    sink.flush();
    let log = sink.log();
    assert_eq!(sink.stats().dropped, 0);

    // Every surface spoke: the gateway challenged then granted, the RMI
    // layer denied (no proof), digested the proof, and granted from its
    // cache, and the email app recorded the row-scoped operation.
    let by = |surface: &str, decision: Decision| {
        log.query(&AuditQuery::all().surface(surface))
            .unwrap()
            .into_iter()
            .filter(|r| r.event.decision == decision)
            .collect::<Vec<_>>()
    };
    assert!(!by("gateway", Decision::Deny).is_empty(), "gateway challenge recorded");
    let gateway_grants = by("gateway", Decision::Grant);
    assert_eq!(gateway_grants.len(), 1, "one granted gateway transaction");
    assert_eq!(
        gateway_grants[0].event.subject,
        Some(Principal::key(&alice.public)),
        "the gateway's grant names the quoted client"
    );
    assert!(!by("rmi", Decision::Deny).is_empty(), "database fault recorded");
    assert!(!by("emaildb", Decision::Grant).is_empty(), "app outcome recorded");

    // The RMI grant carries the full speaks-for provenance: the owner's
    // grant to Alice is among the certificates the decision rested on.
    let rmi_grants = by("rmi", Decision::Grant);
    assert!(
        rmi_grants
            .iter()
            .any(|r| r.event.cert_hashes.contains(&grant_hash)),
        "some rmi grant depends on the owner→alice certificate"
    );

    // Bob's inbox attempt produced no grant for that object anywhere.
    let bob_reads = log
        .query(&AuditQuery::all().object_prefix("/mail/bob"))
        .unwrap();
    assert!(!bob_reads.is_empty());
    assert!(bob_reads.iter().all(|r| r.event.decision == Decision::Deny));

    // And the captured stream is tamper-evidently intact.
    let entries = log.entries().unwrap();
    let head = log.head().unwrap();
    verify_chain(&entries, log.public_key(), log.checkpoint_interval(), Some(&head)).unwrap();
}

/// The HTTP servlet's surfaces: challenge and signed-proof decisions
/// (`http`), MAC establishment and per-request MACs (`http-mac`), and the
/// accept loop's sheds (`http`, over real TCP).
#[test]
fn http_servlet_mac_and_shed_surfaces_audited() {
    let sink = fresh_sink("http", Box::new(MemoryBackend::new(0)));
    let emitter: Arc<dyn AuditEmitter> = Arc::clone(&sink) as Arc<dyn AuditEmitter>;

    let server = HttpServer::new();
    server.set_audit_emitter(Arc::clone(&emitter));
    let macs = Arc::new(MacSessionStore::new());
    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a", b"a".to_vec());
    let mut mrng = DetRng::new(b"mount");
    let servlet = ProtectedWebService::new(Principal::message(b"owner"), "docs", vfs).mount(
        &server,
        "/docs",
        macs,
        fixed_clock,
        Box::new(move |b| mrng.fill(b)),
    );
    servlet.set_audit_emitter(Arc::clone(&emitter));

    // 1. Challenge (no proof) → deny on the signed surface.
    assert_eq!(server.respond(&HttpRequest::get("/docs/a")).status, 401);

    // 2. Signed-proof grant.
    let signed_get = |path: &str| {
        let mut req = HttpRequest::get(path);
        let stmt = Delegation {
            subject: snowflake_http::request_principal(&req, HashAlg::Sha256),
            issuer: Principal::message(b"owner"),
            tag: Tag::Star,
            validity: Validity::until(Time(2_000_000)),
            delegable: false,
        };
        servlet.surface().base_ctx().assume(&stmt);
        snowflake_http::auth::attach_proof(
            &mut req,
            &Proof::Assumption {
                stmt,
                authority: "test".into(),
            },
        );
        req
    };
    assert_eq!(server.respond(&signed_get("/docs/a")).status, 200);

    // 3. MAC establishment (grant) and a MAC-authenticated request.
    let mut crng = DetRng::new(b"mac-client");
    let (body, dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
    let mut est = HttpRequest::post(snowflake_http::MAC_SESSION_PATH, body);
    let stmt = Delegation {
        subject: snowflake_http::request_principal(&est, HashAlg::Sha256),
        issuer: Principal::message(b"owner"),
        tag: Tag::Star,
        validity: Validity::until(Time(1_003_000)),
        delegable: false,
    };
    servlet.surface().base_ctx().assume(&stmt);
    snowflake_http::auth::attach_proof(
        &mut est,
        &Proof::Assumption {
            stmt,
            authority: "test".into(),
        },
    );
    let resp = server.respond(&est);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let session = ClientMacSession::from_grant(&resp.body, &dh, Validity::always()).unwrap();
    let mut mac_req = HttpRequest::get("/docs/a");
    let hash = snowflake_http::request_hash(&mac_req, HashAlg::Sha256);
    mac_req.set_header(snowflake_http::auth::MAC_ID_HEADER, &session.id_header());
    mac_req.set_header(snowflake_http::auth::MAC_HEADER, &session.authenticate(&hash));
    assert_eq!(server.respond(&mac_req).status, 200);

    // 4. A garbage MAC → deny on the MAC surface.
    let mut bad = HttpRequest::get("/docs/a");
    bad.set_header(snowflake_http::auth::MAC_ID_HEADER, &session.id_header());
    bad.set_header(snowflake_http::auth::MAC_HEADER, "AAAA");
    assert_eq!(server.respond(&bad).status, 403);

    // 5. Sheds over real TCP: a saturated pool, then a shutting-down one.
    let runtime = snowflake_runtime::ServerRuntime::new(PoolConfig::new("audit-http", 1, 1));
    let gate = Gate::closed();
    let g = Arc::clone(&gate);
    runtime.pool().submit(move || g.wait()).unwrap();
    wait_for(|| runtime.stats().in_flight == 1);
    let g = Arc::clone(&gate);
    runtime.pool().submit(move || g.wait()).unwrap(); // fills the queue
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept_thread = {
        let server = Arc::clone(&server);
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || {
            let _ = server.serve_tcp(listener, &runtime);
        })
    };
    let shed_resp = {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let mut req = HttpRequest::get("/docs/a");
        req.set_header("Connection", "close");
        req.write_to(&mut stream).unwrap();
        snowflake_http::HttpResponse::read_from(&mut std::io::BufReader::new(stream))
            .unwrap()
            .expect("shed connections still hear a reply")
    };
    assert_eq!(shed_resp.status, 503);
    gate.open();
    runtime.shutdown();
    // The next connection lands on the shutting-down runtime, which also
    // ends the accept loop.
    let _ = std::net::TcpStream::connect(addr).map(|mut s| {
        let mut req = HttpRequest::get("/docs/a");
        req.set_header("Connection", "close");
        let _ = req.write_to(&mut s);
    });
    accept_thread.join().unwrap();

    sink.flush();
    let log = sink.log();
    let count = |surface: &str, decision: Decision| {
        log.query(&AuditQuery::all().surface(surface))
            .unwrap()
            .into_iter()
            .filter(|r| r.event.decision == decision)
            .count()
    };
    assert!(count("http", Decision::Deny) >= 1, "challenge recorded");
    assert!(count("http", Decision::Grant) >= 1, "signed grant recorded");
    assert!(count("http-mac", Decision::Grant) >= 2, "establishment + MAC hit");
    assert!(count("http-mac", Decision::Deny) >= 1, "bad MAC recorded");
    assert!(count("http", Decision::Shed) >= 1, "TCP shed recorded");
    log.verify().unwrap();
}

use snowflake_runtime::PoolConfig;
use std::sync::{Condvar, Mutex};

struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn closed() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

fn wait_for(mut cond: impl FnMut() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(start.elapsed().as_secs() < 10, "condition not reached in time");
        std::thread::yield_now();
    }
}

/// Revocation pushes are first-class audit events: the bus records the
/// dead certificate and the eviction fan-out.
#[test]
fn revocation_push_is_first_class_audit_event() {
    use snowflake_revocation::{AuditedBus, RevocationBus};

    let sink = fresh_sink("revoke", Box::new(MemoryBackend::new(0)));
    let emitter: Arc<dyn AuditEmitter> = Arc::clone(&sink) as Arc<dyn AuditEmitter>;

    // A prover warm with a certificate-backed proof is one of the caches
    // the push must reach.
    let issuer_kp = kp("revoke-issuer");
    let subject_kp = kp("revoke-subject");
    let mut rng = DetRng::new(b"revoke-cert");
    let cert = Certificate::issue(
        &issuer_kp,
        Delegation {
            subject: Principal::key(&subject_kp.public),
            issuer: Principal::key(&issuer_kp.public),
            tag: Tag::Star,
            validity: Validity::always(),
            delegable: true,
        },
        &mut |b| rng.fill(b),
    );
    let cert_hash = cert.hash();
    let mut prng = DetRng::new(b"revoke-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    prover.add_proof(Proof::signed_cert(cert));

    let bus = AuditedBus::with_clock(
        prover as Arc<dyn RevocationBus>,
        Arc::clone(&emitter),
        fixed_clock,
    );
    bus.certificate_revoked(&cert_hash);

    sink.flush();
    let log = sink.log();
    let revokes = log
        .query(&AuditQuery::all().surface("revocation"))
        .unwrap();
    assert_eq!(revokes.len(), 1);
    let ev = &revokes[0].event;
    assert_eq!(ev.decision, Decision::Revoke);
    assert!(ev.object.starts_with("cert:"));
    assert_eq!(ev.cert_hashes, vec![cert_hash]);
    assert!(ev.detail.contains("evicted"));
    log.verify().unwrap();
}

/// The query API over RMI: a delegated auditor reads the trail through the
/// protected `AuditService`, exports the entries, and re-verifies the
/// chain offline — and the read itself lands in the trail.
#[test]
fn audit_service_queries_over_rmi() {
    let sink = fresh_sink("svc", Box::new(DbBackend::new()));
    let emitter: Arc<dyn AuditEmitter> = Arc::clone(&sink) as Arc<dyn AuditEmitter>;
    let log = Arc::clone(sink.log());

    // Pre-populate the trail with a few decisions.
    for i in 0..5u64 {
        emitter.emit(
            snowflake_core::DecisionEvent::new(
                Time(1_000_000 + i),
                "rmi",
                if i == 2 { Decision::Deny } else { Decision::Grant },
                "email-db",
                "select",
                "seeded",
            )
            .with_subject(Principal::message(b"alice")),
        );
    }
    sink.flush();

    // The audit server: a protected AuditService whose own decisions feed
    // the same sink.
    let auditor_key = kp("auditor");
    let server = RmiServer::with_clock(fixed_clock);
    server.set_audit_emitter(Arc::clone(&emitter));
    server.register(
        AUDIT_OBJECT,
        AuditService::new(Arc::clone(&log), Principal::key(&auditor_key.public)),
    );

    // The auditor delegates read access to the client's identity.
    let client_identity = kp("audit-client");
    let mut rng = DetRng::new(b"audit-grant");
    let cert = Certificate::issue(
        &auditor_key,
        Delegation {
            subject: Principal::key(&client_identity.public),
            issuer: Principal::key(&auditor_key.public),
            tag: tag("(rmi (object audit-log))"),
            validity: Validity::always(),
            delegable: true,
        },
        &mut |b| rng.fill(b),
    );
    let mut prng = DetRng::new(b"audit-client-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    prover.add_proof(Proof::signed_cert(cert));
    prover.add_key(client_identity.clone());

    let session = kp("audit-session");
    let (ct, st) = PipeTransport::pair();
    let serve_thread = {
        let server = Arc::clone(&server);
        let auditor_key = auditor_key.clone();
        std::thread::spawn(move || {
            let mut rng = DetRng::new(b"audit-srv-chan");
            let mut channel =
                SecureChannel::server(Box::new(st), &auditor_key, None, &mut |b| rng.fill(b))
                    .unwrap();
            let _ = server.serve_connection(&mut channel);
        })
    };
    let mut client = {
        let mut rng = DetRng::new(b"audit-cli-chan");
        let channel =
            SecureChannel::client(Box::new(ct), Some(&session), None, &mut |b| rng.fill(b))
                .unwrap();
        RmiClient::with_clock(Box::new(channel), session.clone(), prover, fixed_clock)
    };

    // Query: alice's denials only.
    let q = AuditQuery::all()
        .subject(&Principal::message(b"alice").describe())
        .surface("rmi")
        .newest(10);
    let reply = client
        .invoke(AUDIT_OBJECT, "query", vec![q.to_sexp()])
        .unwrap();
    let records = records_from_reply(&reply).unwrap();
    assert_eq!(records.len(), 5);
    assert_eq!(
        records.iter().filter(|r| r.event.decision == Decision::Deny).count(),
        1
    );

    // Export and offline-verify against the served head.  The log is
    // *live* — the audit server's own decisions about these reads keep
    // appending — so the export is a superset of the fetched head; the
    // auditor verifies the stream up to the head it trusts.
    let head_reply = client.invoke(AUDIT_OBJECT, "head", vec![]).unwrap();
    let head = snowflake_audit::head_from_reply(&head_reply).unwrap().unwrap();
    let entries_reply = client.invoke(AUDIT_OBJECT, "entries", vec![]).unwrap();
    let entries = snowflake_audit::entries_from_reply(&entries_reply).unwrap();
    assert!(entries.len() as u64 > head.0, "the export covers the head");
    let cut = entries
        .iter()
        .position(|e| matches!(e, snowflake_audit::LogEntry::Record(r) if r.seq > head.0))
        .unwrap_or(entries.len());
    verify_chain(&entries[..cut], log.public_key(), log.checkpoint_interval(), Some(&head))
        .unwrap();

    // The reads themselves were authorization decisions on the rmi
    // surface, now visible in the trail (receive-proof + cache grants on
    // the audit-log object).
    sink.flush();
    let audit_reads = log
        .query(&AuditQuery::all().object_prefix(AUDIT_OBJECT))
        .unwrap();
    assert!(
        audit_reads
            .iter()
            .any(|r| r.event.decision == Decision::Grant),
        "the audit read is itself audited"
    );

    drop(client);
    drop(server);
    serve_thread.join().unwrap();
}

/// The `/metrics` exporter's listener sheds are audited through the
/// emitter its caller attaches to the endpoint: server and endpoint share
/// one `metrics` surface (same technique as the servlet's TCP shed
/// above: a saturated pool sheds the scrape with a 503).
#[test]
fn metrics_listener_sheds_reach_the_endpoint_emitter() {
    let sink = fresh_sink("metrics-shed", Box::new(MemoryBackend::new(0)));
    let runtime = snowflake_runtime::ServerRuntime::new(PoolConfig::new("audit-metrics", 1, 1));
    let gate = Gate::closed();
    let g = Arc::clone(&gate);
    runtime.pool().submit(move || g.wait()).unwrap();
    wait_for(|| runtime.stats().in_flight == 1);
    let g = Arc::clone(&gate);
    runtime.pool().submit(move || g.wait()).unwrap(); // fills the queue
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (_handle, endpoint) = snowflake_http::serve_metrics(listener, &runtime, fixed_clock).unwrap();
    endpoint.set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut req = HttpRequest::get(snowflake_http::METRICS_PATH);
    req.set_header("Connection", "close");
    req.write_to(&mut stream).unwrap();
    let shed = snowflake_http::HttpResponse::read_from(&mut std::io::BufReader::new(stream))
        .unwrap()
        .expect("a shed scrape still hears a reply");
    assert_eq!(shed.status, 503);
    gate.open();
    runtime.shutdown();

    sink.flush();
    let sheds = sink
        .log()
        .query(&AuditQuery::all().surface("metrics"))
        .unwrap()
        .into_iter()
        .filter(|r| r.event.decision == Decision::Shed)
        .count();
    assert_eq!(sheds, 1, "the metrics shed is audited once");
}

/// The email database's row-scoped checks audit both outcomes: an
/// applied operation is a grant, a refused one a deny.
#[test]
fn emaildb_grants_and_denies_are_audited() {
    use snowflake_rmi::{CallerInfo, Invocation, RemoteObject};

    let sink = fresh_sink("emaildb", Box::new(MemoryBackend::new(0)));
    let db = EmailDb::new(Principal::message(b"emaildb-owner"));
    db.set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);
    let caller = CallerInfo {
        speaker: Principal::message(b"emaildb-caller"),
        channel: snowflake_core::ChannelId {
            kind: "test".into(),
            id: snowflake_crypto::HashVal::of(b"emaildb-channel"),
        },
    };
    let call = |method: &str| Invocation {
        object: EMAIL_DB_OBJECT.into(),
        method: method.into(),
        args: vec![Sexp::from("alice")],
        quoting: None,
    };
    assert!(db.invoke(&call("select"), &caller).is_ok());
    assert!(db.invoke(&call("drop_table"), &caller).is_err());

    sink.flush();
    let decisions: Vec<Decision> = sink
        .log()
        .query(&AuditQuery::all().surface("emaildb"))
        .unwrap()
        .into_iter()
        .map(|r| r.event.decision)
        .collect();
    assert_eq!(decisions, vec![Decision::Grant, Decision::Deny]);
}
