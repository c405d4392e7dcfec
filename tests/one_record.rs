//! One record per decision: every outcome a decision surface reaches —
//! grant, each deny path, challenge, malformed input, warm hit — emits
//! exactly one audit record, and the surface stamps it with its own name,
//! the decision's instant and the revocation epoch the verdict was
//! reached against.
//!
//! Each surface's verification context carries a revocation source at a
//! nonzero epoch (it revokes nothing; the chains here name no
//! validator), so a record that was not stamped by its surface shows up
//! as epoch 0.

use snowflake_apps::emaildb::{EmailDb, EMAIL_DB_OBJECT};
use snowflake_apps::{ProtectedWebService, QuotingGateway, Vfs};
use snowflake_broker::topic::subscribe_stream;
use snowflake_broker::{
    subject_principal, AuthzEndpoint, NamespaceAuthority, SubscriberSink, TopicBroker,
};
use snowflake_channel::transport::length_prefixed;
use snowflake_channel::{AuthChannel, PipeTransport, SecureChannel};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{
    Certificate, ChannelId, Crl, Delegation, HashAlg, HashVal, Principal, Proof, Revalidation,
    RevocationSource, Tag, Time, Validity,
};
use snowflake_crypto::{DetRng, Group, KeyPair, PublicKey};
use snowflake_http::mac::ClientMacSession;
use snowflake_http::{
    auth, duplex, Handler, HttpClient, HttpRequest, HttpResponse, HttpServer, MacSessionStore,
    MetricsEndpoint, ProtectedServlet, SnowflakeProxy, MAC_SESSION_PATH, METRICS_PATH,
};
use snowflake_prover::Prover;
use snowflake_rmi::{
    CallerInfo, Invocation, RemoteObject, RmiClient, RmiFault, RmiReply, RmiServer,
    PROOF_RECIPIENT,
};
use snowflake_runtime::{PoolConfig, ServerRuntime, Surface};
use snowflake_sexpr::Sexp;
use snowflake_tags::path_vector::{grant_tag, ActionTable, PathPattern};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const NOW: Time = Time(1_000_000);
const EPOCH: u64 = 7;

fn clock() -> Time {
    NOW
}

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn det(seed: &str) -> Box<dyn FnMut(&mut [u8]) + Send> {
    let mut rng = DetRng::new(seed.as_bytes());
    Box::new(move |b| rng.fill(b))
}

/// Revocation data at epoch [`EPOCH`] that revokes nothing.
struct AtEpoch;

impl RevocationSource for AtEpoch {
    fn crl(&self, _validator: &HashVal, _now: Time) -> Option<Arc<Crl>> {
        None
    }
    fn revalidation(&self, _cert_hash: &HashVal, _now: Time) -> Option<Revalidation> {
        None
    }
    fn epoch(&self) -> u64 {
        EPOCH
    }
}

/// Attaches a counting emitter and [`AtEpoch`] to `surface`.
fn watch(surface: &Surface) -> Arc<Counting> {
    let audit = Arc::new(Counting::default());
    surface.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
    surface.set_revocation_source(Arc::new(AtEpoch));
    audit
}

/// Counts the records a surface emits.
#[derive(Default)]
struct Counting(Mutex<Vec<DecisionEvent>>);

impl AuditEmitter for Counting {
    fn emit(&self, event: DecisionEvent) {
        self.0.lock().unwrap().push(event);
    }
}

impl Counting {
    /// Drives one outcome and asserts it emitted exactly one record, from
    /// `surface`, with `decision` and a detail containing `detail`,
    /// stamped at [`NOW`] and [`EPOCH`].  Returns what `drive` returned.
    fn one<R>(
        &self,
        case: &str,
        surface: &str,
        decision: Decision,
        detail: &str,
        drive: impl FnOnce() -> R,
    ) -> R {
        self.0.lock().unwrap().clear();
        let out = drive();
        let events = std::mem::take(&mut *self.0.lock().unwrap());
        assert_eq!(events.len(), 1, "{case}: one record, got {events:#?}");
        let ev = &events[0];
        assert_eq!(
            (ev.surface.as_str(), ev.decision),
            (surface, decision),
            "{case}: {ev:?}"
        );
        assert!(ev.detail.contains(detail), "{case}: detail {:?}", ev.detail);
        assert_eq!(ev.time, NOW, "{case}: stamped at the decision's instant");
        assert_eq!(ev.revocation_epoch, EPOCH, "{case}: stamped with the epoch");
        out
    }
}

/// A statement `issuer` makes about `subject`, vouched for by `surface`
/// (so a proof of it verifies), and that proof.
fn assumed(surface: &Surface, subject: Principal, issuer: &Principal, until: Time) -> Proof {
    let stmt = Delegation {
        subject,
        issuer: issuer.clone(),
        tag: Tag::Star,
        validity: Validity::until(until),
        delegable: false,
    };
    surface.assume(&stmt);
    unassumed(stmt)
}

/// A proof of `stmt` that nothing vouches for.
fn unassumed(stmt: Delegation) -> Proof {
    Proof::Assumption {
        stmt,
        authority: "test".into(),
    }
}

fn docs_servlet(
    owner: &Principal,
    macs: &Arc<MacSessionStore>,
    seed: &str,
) -> Arc<ProtectedServlet<ProtectedWebService>> {
    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a", b"a".to_vec());
    let service = ProtectedWebService::new(owner.clone(), "docs", vfs);
    ProtectedServlet::with_store(service, clock, det(seed), Arc::clone(macs))
}

/// The servlet decides signed requests on `http` and MAC requests and
/// session establishment on `http-mac`.
#[test]
fn servlet_records_one_decision_per_request() {
    let owner = Principal::message(b"one-record-owner");
    let macs = Arc::new(MacSessionStore::new());
    let servlet = docs_servlet(&owner, &macs, "one-record-servlet");
    let audit = watch(servlet.surface());
    let status = |req: &HttpRequest| servlet.handle(req).status;

    // Signed requests.
    let mut signed = HttpRequest::get("/docs/a");
    let proof = assumed(
        servlet.surface(),
        auth::request_principal(&signed, HashAlg::Sha256),
        &owner,
        Time(2_000_000),
    );
    auth::attach_proof(&mut signed, &proof);
    let mut forged = HttpRequest::get("/docs/a?forged");
    let stmt = Delegation {
        subject: auth::request_principal(&forged, HashAlg::Sha256),
        issuer: owner.clone(),
        tag: Tag::Star,
        validity: Validity::always(),
        delegable: false,
    };
    auth::attach_proof(&mut forged, &unassumed(stmt));
    let mut garbled = HttpRequest::get("/docs/a?garbled");
    garbled.set_header("Authorization", "SnowflakeProof (((");

    let http_cases: [(&str, Decision, &str, &HttpRequest, u16); 5] = [
        ("challenge", Decision::Deny, "challenge: no proof presented", &HttpRequest::get("/docs/a"), 401),
        ("malformed proof", Decision::Deny, "challenge", &garbled, 401),
        ("unverifiable proof", Decision::Deny, "authorization failed", &forged, 403),
        ("proof verified", Decision::Grant, "proof-verified", &signed, 200),
        ("warm hit", Decision::Grant, "identical-request-cache", &signed, 200),
    ];
    for (case, decision, detail, req, expect) in http_cases {
        let got = audit.one(case, "http", decision, detail, || status(req));
        assert_eq!(got, expect, "{case}");
    }

    // MAC establishment.
    let establishment = |seed: &str, until: Option<Time>| {
        let mut crng = DetRng::new(seed.as_bytes());
        let (body, dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
        let mut req = HttpRequest::post(MAC_SESSION_PATH, body);
        if let Some(until) = until {
            let subject = auth::request_principal(&req, HashAlg::Sha256);
            auth::attach_proof(&mut req, &assumed(servlet.surface(), subject, &owner, until));
        }
        (req, dh)
    };
    let (bare, _) = establishment("mac-bare", None);
    let (unbounded, _) = establishment("mac-unbounded", Some(Time(u64::MAX)));
    let (mut unproven, _) = establishment("mac-unproven", None);
    let stmt = Delegation {
        subject: auth::request_principal(&unproven, HashAlg::Sha256),
        issuer: owner.clone(),
        tag: Tag::Star,
        validity: Validity::until(NOW.plus(60)),
        delegable: false,
    };
    auth::attach_proof(&mut unproven, &unassumed(stmt));
    let (good, dh) = establishment("mac-good", Some(NOW.plus(600)));
    let est_cases: [(&str, Decision, &str, &HttpRequest, u16); 4] = [
        ("establish challenge", Decision::Deny, "challenge: no establishment proof", &bare, 401),
        ("establish unbounded", Decision::Deny, "unbounded establishment validity", &unbounded, 403),
        ("establish unverifiable", Decision::Deny, "authorization failed", &unproven, 403),
        ("establish", Decision::Grant, "session established", &good, 200),
    ];
    let mut grant = None;
    for (case, decision, detail, req, expect) in est_cases {
        let resp = audit.one(case, "http-mac", decision, detail, || servlet.handle(req));
        assert_eq!(resp.status, expect, "{case}: {}", String::from_utf8_lossy(&resp.body));
        grant = Some(resp.body);
    }
    let session =
        ClientMacSession::from_grant(&grant.unwrap(), &dh, Validity::until(NOW.plus(600))).unwrap();

    // MAC requests.
    let mac_get = |path: &str, mac: Option<&str>| {
        let mut req = HttpRequest::get(path);
        let hash = auth::request_hash(&req, HashAlg::Sha256);
        req.set_header(auth::MAC_ID_HEADER, &session.id_header());
        req.set_header(auth::MAC_HEADER, mac.unwrap_or(&session.authenticate(&hash)));
        req
    };
    let mut unknown = HttpRequest::get("/docs/a");
    unknown.set_header(auth::MAC_ID_HEADER, "AAAAAAAAAAAAAAAAAAAAAA");
    unknown.set_header(auth::MAC_HEADER, "AAAA");
    let mac_cases: [(&str, Decision, &str, HttpRequest, u16); 3] = [
        ("mac hit", Decision::Grant, "mac-session", mac_get("/docs/a", None), 200),
        ("garbled mac", Decision::Deny, "MAC rejected", mac_get("/docs/a", Some("AAAA")), 403),
        ("unknown session", Decision::Deny, "MAC rejected", unknown, 403),
    ];
    for (case, decision, detail, req, expect) in mac_cases {
        let got = audit.one(case, "http-mac", decision, detail, || status(&req));
        assert_eq!(got, expect, "{case}");
    }

    // A session from a store shared with another issuer's service.
    let other = docs_servlet(&Principal::message(b"other-owner"), &macs, "other-servlet");
    let other_audit = watch(other.surface());
    let got = other_audit.one(
        "session for another issuer",
        "http-mac",
        Decision::Deny,
        "session speaks for a different issuer",
        || other.handle(&mac_get("/docs/a", None)).status,
    );
    assert_eq!(got, 403);
}

/// An open-access channel endpoint: a fixed peer key (or none) and no
/// channel binding, for driving `handle_frame` directly.
struct Peer(Option<PublicKey>);

impl AuthChannel for Peer {
    fn send(&mut self, _msg: &[u8]) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn channel_id(&self) -> ChannelId {
        ChannelId {
            kind: "test".into(),
            id: HashVal::of(b"one-record-peer"),
        }
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        self.0.as_ref()
    }
    fn peer_binding(&self) -> Option<Delegation> {
        None
    }
}

/// Answers `pong` to anything, under `issuer`'s control.
struct Echo(Principal);

impl RemoteObject for Echo {
    fn issuer(&self) -> Principal {
        self.0.clone()
    }
    fn invoke(&self, _invocation: &Invocation, _caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        Ok(Sexp::from("pong"))
    }
}

fn frame(object: &str, method: &str, args: Vec<Sexp>) -> Vec<u8> {
    Invocation {
        object: object.into(),
        method: method.into(),
        args,
        quoting: None,
    }
    .to_sexp()
    .canonical()
}

/// RMI decides on `rmi`: the frame, the object, the proof it is given,
/// and the cached proof an invocation rests on.
#[test]
fn rmi_records_one_decision_per_frame() {
    let owner = kp("one-record-rmi-owner");
    let caller = kp("one-record-rmi-caller");
    let issuer = Principal::key(&owner.public);
    let server = RmiServer::with_clock(clock);
    let audit = watch(server.surface());
    server.register("echo", Arc::new(Echo(issuer.clone())));

    let mut rng = DetRng::new(b"one-record-rmi-cert");
    let cert = Certificate::issue(
        &owner,
        Delegation {
            subject: Principal::key(&caller.public),
            issuer: issuer.clone(),
            tag: Tag::Star,
            validity: Validity::always(),
            delegable: false,
        },
        &mut |b| rng.fill(b),
    );
    let forged = unassumed(Delegation {
        subject: Principal::key(&caller.public),
        issuer: issuer.clone(),
        tag: Tag::Star,
        validity: Validity::always(),
        delegable: false,
    });
    let authed = Peer(Some(caller.public.clone()));
    let anonymous = Peer(None);
    let prove = |proof: Sexp| frame(PROOF_RECIPIENT, "prove", vec![proof]);

    let cases: [(&str, Decision, &str, Vec<u8>, &Peer, bool); 10] = [
        ("unparseable frame", Decision::Deny, "parse", b"(((".to_vec(), &authed, false),
        ("undecodable invocation", Decision::Deny, "decode", b"(hello)".to_vec(), &authed, false),
        ("unknown object", Decision::Deny, "no such object", frame("nope", "ping", vec![]), &authed, false),
        ("unauthenticated channel", Decision::Deny, "unauthenticated channel", frame("echo", "ping", vec![]), &anonymous, false),
        ("no covering proof", Decision::Deny, "no covering proof", frame("echo", "ping", vec![]), &authed, false),
        ("missing proof argument", Decision::Deny, "missing proof argument", frame(PROOF_RECIPIENT, "prove", vec![]), &authed, false),
        ("undecodable proof", Decision::Deny, "bad proof", prove(Sexp::from("junk")), &authed, false),
        ("rejected proof", Decision::Deny, "proof rejected", prove(forged.to_sexp()), &authed, false),
        ("proof digested", Decision::Grant, "proof verified", prove(Proof::signed_cert(cert).to_sexp()), &authed, true),
        ("warm hit", Decision::Grant, "proof-cache", frame("echo", "ping", vec![]), &authed, true),
    ];
    for (case, decision, detail, bytes, peer, returns) in cases {
        let reply = audit.one(case, "rmi", decision, detail, || server.handle_frame(&bytes, peer));
        assert_eq!(matches!(reply, RmiReply::Return(_)), returns, "{case}: {reply:?}");
    }
}

const OBJECT_NS: &str = "conference.example.org";
const SUBJECT_NS: &str = "iam.example.org";

fn account(name: &str) -> Principal {
    subject_principal(SUBJECT_NS, &["accounts".to_string(), name.to_string()])
}

fn conference_table() -> ActionTable {
    let mut t = ActionTable::new();
    t.allow(&["rooms", "*", "rtcs", "*"], &["read", "update", "delete"])
        .allow(&["rooms", "*", "events"], &["subscribe"]);
    t
}

/// A prover holding the conference issuer's key, with Alice granted
/// `actions` on objects matching `pattern`.
fn conference_prover(seed: &str, pattern: &[&str], actions: &[&str]) -> (Arc<Prover>, Principal, Proof) {
    let issuer_kp = kp(&format!("{seed}-issuer"));
    let issuer = Principal::key(&issuer_kp.public);
    let prover = Arc::new(Prover::with_rng(det(&format!("{seed}-prover"))));
    prover.add_key(issuer_kp);
    let grant = grant_tag(OBJECT_NS, &PathPattern::parse(pattern), actions);
    let proof = prover
        .delegate(&account("alice"), &issuer, grant, Validity::always(), false)
        .unwrap();
    (prover, issuer, proof)
}

fn authz_body(subject: &str, namespace: &str, object_path: &[&str], action: &str) -> Vec<u8> {
    let path = object_path
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"subject\":{{\"namespace\":\"{SUBJECT_NS}\",\"value\":[\"accounts\",\"{subject}\"]}},\
          \"object\":{{\"namespace\":\"{namespace}\",\"value\":[{path}]}},\
          \"action\":\"{action}\"}}"
    )
    .into_bytes()
}

/// `/authz` decides every question on `authz`; a grant is stamped with
/// the epoch its chain was verified against.
#[test]
fn authz_records_one_decision_per_question() {
    let (prover, issuer, _) =
        conference_prover("one-record-authz", &["rooms", "*", "rtcs", "*"], &["read"]);
    let endpoint = AuthzEndpoint::with_clock(prover, clock);
    endpoint.add_namespace(
        OBJECT_NS,
        NamespaceAuthority {
            issuer,
            table: conference_table(),
        },
    );
    let audit = watch(endpoint.surface());
    let rtc = ["rooms", "r1", "rtcs", "x9"];
    let ask = |body: Vec<u8>| HttpRequest::post("/authz", body);

    let cases: [(&str, Decision, &str, HttpRequest, u16); 7] = [
        ("grant", Decision::Grant, "delegation chain verified", ask(authz_body("alice", OBJECT_NS, &rtc, "read")), 200),
        ("no chain", Decision::Deny, "no delegation chain", ask(authz_body("alice", OBJECT_NS, &rtc, "delete")), 200),
        ("another subject", Decision::Deny, "no delegation chain", ask(authz_body("mallory", OBJECT_NS, &rtc, "read")), 200),
        ("no such action", Decision::Deny, "no such action", ask(authz_body("alice", OBJECT_NS, &["rooms"], "read")), 200),
        ("unknown namespace", Decision::Deny, "unknown object namespace", ask(authz_body("alice", "elsewhere", &rtc, "read")), 200),
        ("malformed body", Decision::Deny, "rejected unparseable body", ask(b"not json".to_vec()), 400),
        ("wrong method", Decision::Deny, "method not allowed", HttpRequest::get("/authz"), 405),
    ];
    for (case, decision, detail, req, expect) in cases {
        let got = audit.one(case, "authz", decision, detail, || endpoint.handle(&req).status);
        assert_eq!(got, expect, "{case}");
    }
}

/// An in-process subscriber that never goes away.
struct Parked;

impl SubscriberSink for Parked {
    fn deliver(&self, _frame: &[u8]) -> bool {
        true
    }
    fn is_open(&self) -> bool {
        true
    }
    fn close(&self) {}
}

/// Broker subscribes decide on `broker-sub`, in process and on the wire.
#[test]
fn broker_subscribe_records_one_decision_per_subscribe() {
    let (prover, issuer, proof) =
        conference_prover("one-record-broker", &["rooms", "*", "events"], &["subscribe"]);
    let runtime = ServerRuntime::new(PoolConfig::new("one-record-broker", 2, 8));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        prover,
        OBJECT_NS,
        issuer,
        conference_table(),
        clock,
    );
    let audit = watch(broker.surface());
    let alice = account("alice");
    let events = ["rooms", "r1", "events"];
    let sink = || Arc::new(Parked) as Arc<dyn SubscriberSink>;

    let in_process: [(&str, Decision, &str, Box<dyn Fn() -> bool>); 5] = [
        ("grant with proof", Decision::Grant, "subscription established", Box::new(|| {
            broker.subscribe_with_proof(alice.clone(), &events, &proof, sink()).is_ok()
        })),
        ("no such topic", Decision::Deny, "", Box::new(|| {
            broker.subscribe_with_proof(alice.clone(), &["rooms"], &proof, sink()).is_ok()
        })),
        ("proof for another subject", Decision::Deny, "", Box::new(|| {
            broker.subscribe_with_proof(account("mallory"), &events, &proof, sink()).is_ok()
        })),
        ("prover finds a chain", Decision::Grant, "subscription established", Box::new(|| {
            broker.subscribe_local(alice.clone(), &events, sink()).is_ok()
        })),
        ("prover finds none", Decision::Deny, "no delegation chain", Box::new(|| {
            broker.subscribe_local(account("mallory"), &events, sink()).is_ok()
        })),
    ];
    for (case, decision, detail, drive) in in_process {
        let granted = audit.one(case, "broker-sub", decision, detail, drive);
        assert_eq!(granted, decision == Decision::Grant, "{case}");
    }

    // On the wire: the record is emitted before the reply is written.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _handle = broker.attach_subscribe_listener(listener).unwrap();
    let stream = audit.one("wire grant", "broker-sub", Decision::Grant, "subscription established", || {
        subscribe_stream(addr, &events, &alice, &proof).unwrap().unwrap()
    });
    drop(stream);
    let refused = audit.one("wire refusal", "broker-sub", Decision::Deny, "", || {
        subscribe_stream(addr, &events, &account("mallory"), &proof).unwrap()
    });
    assert!(refused.is_err());
    let garbled = audit.one("malformed frame", "broker-sub", Decision::Deny, "unparseable subscribe frame", || {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        raw.write_all(&length_prefixed(b"(((")).unwrap();
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply).unwrap();
        reply
    });
    assert!(String::from_utf8_lossy(&garbled).contains("sub-deny"));
    runtime.shutdown();
}

/// `/metrics` decides each scrape on `metrics`.
#[test]
fn metrics_records_one_decision_per_scrape() {
    let endpoint = MetricsEndpoint::with_clock(clock);
    let audit = watch(endpoint.surface());
    let cases: [(&str, Decision, &str, HttpRequest, u16); 2] = [
        ("scrape", Decision::Grant, "scrape served", HttpRequest::get(METRICS_PATH), 200),
        ("wrong method", Decision::Deny, "method not allowed", HttpRequest::post(METRICS_PATH, vec![]), 405),
    ];
    for (case, decision, detail, req, expect) in cases {
        let got = audit.one(case, "metrics", decision, detail, || endpoint.handle(&req).status);
        assert_eq!(got, expect, "{case}");
    }
}

/// The email database decides each row-scoped operation on `emaildb`.
#[test]
fn emaildb_records_one_decision_per_operation() {
    let db = EmailDb::with_clock(Principal::message(b"one-record-db"), clock);
    let audit = watch(db.surface());
    let caller = CallerInfo {
        speaker: Principal::message(b"one-record-caller"),
        channel: ChannelId {
            kind: "test".into(),
            id: HashVal::of(b"one-record-channel"),
        },
    };
    let call = |method: &str, args: &[&str]| Invocation {
        object: EMAIL_DB_OBJECT.into(),
        method: method.into(),
        args: args.iter().map(|a| Sexp::from(*a)).collect(),
        quoting: None,
    };
    let cases: [(&str, Decision, &str, Invocation); 4] = [
        ("insert", Decision::Grant, "row-scoped", call("insert", &["alice", "bob", "hi", "body", "inbox"])),
        ("select", Decision::Grant, "row-scoped", call("select", &["alice", "inbox"])),
        ("no such method", Decision::Deny, "NoSuchMethod", call("drop_table", &["alice"])),
        ("missing owner", Decision::Deny, "", call("select", &[])),
    ];
    for (case, decision, detail, invocation) in cases {
        let ok = audit.one(case, "emaildb", decision, detail, || db.invoke(&invocation, &caller).is_ok());
        assert_eq!(ok, decision == Decision::Grant, "{case}");
    }
}

/// Counts the requests that reach the gateway.
struct Counted(QuotingGateway, AtomicUsize);

impl Handler for Counted {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self.1.fetch_add(1, Ordering::SeqCst);
        self.0.handle(req)
    }
}

/// The quoting gateway decides each request on `gateway`: its own checks,
/// the challenge its database probe yields, and the forwarded grant.
#[test]
fn gateway_records_one_decision_per_request() {
    let db_key = kp("one-record-db-server");
    let alice = kp("one-record-alice");
    let db_issuer = Principal::key(&db_key.public);
    let db_server = RmiServer::with_clock(clock);
    db_server.register(
        EMAIL_DB_OBJECT,
        Arc::new(EmailDb::with_clock(db_issuer.clone(), clock)),
    );
    let (ct, st) = PipeTransport::pair();
    // Serves until the gateway's channel drops at the end of the test.
    let _db_thread = {
        let server = Arc::clone(&db_server);
        let db_key = db_key.clone();
        std::thread::spawn(move || {
            let mut rng = DetRng::new(b"one-record-db-chan");
            let mut channel =
                SecureChannel::server(Box::new(st), &db_key, None, &mut |b| rng.fill(b)).unwrap();
            let _ = server.serve_connection(&mut channel);
        })
    };
    let session = kp("one-record-gateway-session");
    let rmi = {
        let mut rng = DetRng::new(b"one-record-gw-chan");
        let channel =
            SecureChannel::client(Box::new(ct), Some(&session), None, &mut |b| rng.fill(b)).unwrap();
        let prover = Arc::new(Prover::with_rng(det("one-record-gw-prover")));
        RmiClient::with_clock(Box::new(channel), session.clone(), prover, clock)
    };
    let gateway = Arc::new(Counted(QuotingGateway::new(rmi, clock), AtomicUsize::new(0)));
    let audit = watch(gateway.0.surface());

    // The gateway's own refusals, and the challenge a probe yields.
    let mut delete = HttpRequest::get("/mail/alice/inbox");
    delete.method = "DELETE".into();
    let mut forged = HttpRequest::get("/mail/alice/inbox?forged");
    let stmt = Delegation {
        subject: auth::request_principal(&forged, HashAlg::Sha256),
        issuer: Principal::key(&alice.public),
        tag: Tag::Star,
        validity: Validity::always(),
        delegable: false,
    };
    auth::attach_client_proof(&mut forged, &unassumed(stmt));
    let cases: [(&str, &str, HttpRequest, u16); 4] = [
        ("no such path", "no such mailbox path", HttpRequest::get("/elsewhere"), 404),
        ("wrong method", "method not allowed", delete, 405),
        ("challenge", "challenge", HttpRequest::get("/mail/alice/inbox"), 401),
        ("unverifiable client proof", "client request proof rejected", forged, 403),
    ];
    for (case, detail, req, expect) in cases {
        let got = audit.one(case, "gateway", Decision::Deny, detail, || gateway.handle(&req).status);
        assert_eq!(got, expect, "{case}");
    }

    // The full flow through the client's proxy: challenge, then the
    // forwarded grant; then a warm repeat.  Every request that reached
    // the gateway left one record.
    let mut rng = DetRng::new(b"one-record-grant");
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
    let alice_prover = Arc::new(Prover::with_rng(det("one-record-alice-prover")));
    alice_prover.add_proof(Proof::signed_cert(grant_cert));
    alice_prover.add_key(alice.clone());
    let proxy = SnowflakeProxy::with_clock(alice_prover, clock, det("one-record-proxy"));
    proxy.set_identity(Principal::key(&alice.public));
    let http = HttpServer::new();
    http.route("/mail", Arc::clone(&gateway) as Arc<dyn Handler>);
    let (client_stream, mut server_stream) = duplex();
    let http_thread = {
        let http = Arc::clone(&http);
        std::thread::spawn(move || {
            let _ = http.serve_stream(&mut server_stream);
        })
    };
    let mut client = HttpClient::new(Box::new(client_stream));
    for round in ["first", "warm"] {
        audit.0.lock().unwrap().clear();
        let before = gateway.1.load(Ordering::SeqCst);
        let resp = proxy
            .execute(&mut client, HttpRequest::get("/mail/alice/inbox"))
            .unwrap();
        assert_eq!(resp.status, 200, "{round}: {}", String::from_utf8_lossy(&resp.body));
        let events = std::mem::take(&mut *audit.0.lock().unwrap());
        assert_eq!(events.len(), gateway.1.load(Ordering::SeqCst) - before, "{round}: {events:#?}");
        let last = events.last().unwrap();
        assert_eq!((last.surface.as_str(), last.decision), ("gateway", Decision::Grant), "{round}");
        assert!(events.iter().all(|e| e.time == NOW && e.revocation_epoch == EPOCH), "{round}: {events:#?}");
    }
    drop(client);
    http_thread.join().unwrap();
}
