//! Revoke-mid-session, end to end: a delegation honored by the protected
//! web server (VFS-backed), by a live MAC session, and by the email
//! database over RMI is revoked at the validator; the push lands; and the
//! very next request is denied at each boundary — with no process restart
//! and no full-cache flush (unrelated warm entries keep answering).

use snowflake_apps::emaildb::{EmailDb, EMAIL_DB_OBJECT};
use snowflake_apps::vfs::Vfs;
use snowflake_apps::webserver::ProtectedWebService;
use snowflake_channel::LocalBroker;
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{
    Certificate, Delegation, Principal, Proof, RevocationPolicy, Time, Validity,
};
use snowflake_crypto::{DetRng, Group, HashVal, KeyPair};
use snowflake_http::mac::ClientMacSession;
use snowflake_http::{auth, Handler, HttpRequest, ProtectedServlet, MAC_SESSION_PATH};
use snowflake_prover::Prover;
use snowflake_revocation::{AgentSink, FreshnessAgent, InProcessValidator, ValidatorService};
use snowflake_rmi::{RmiClient, RmiError};
use snowflake_sexpr::Sexp;
use std::sync::Arc;

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn det(seed: &str) -> Box<dyn FnMut(&mut [u8]) + Send> {
    let mut r = DetRng::new(seed.as_bytes());
    Box::new(move |b: &mut [u8]| r.fill(b))
}

fn fixed_clock() -> Time {
    Time(1_000_000)
}

/// A validator with injected clock/entropy plus a freshness agent
/// subscribed to it (jitter 0 so tests are exact).
fn validator_and_agent(seed: &str) -> (Arc<ValidatorService>, Arc<FreshnessAgent>) {
    let validator = ValidatorService::with_clock(kp(seed), fixed_clock, det("validator-rng"));
    let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
    agent.register_validator(
        validator.validator_hash(),
        Arc::new(InProcessValidator(Arc::clone(&validator))),
    );
    validator.subscribe(Box::new(AgentSink::new(&agent)));
    (validator, agent)
}

/// Issues `subject ⇒ issuer_key` with a CRL revocation policy naming the
/// validator, delegable, and returns (cert hash, prover holding the chain).
fn revocable_grant(
    issuer_key: &KeyPair,
    subject: &KeyPair,
    tag: snowflake_core::Tag,
    validity: Validity,
    validator: &ValidatorService,
    seed: &str,
) -> (HashVal, Arc<Prover>) {
    let mut rng = DetRng::new(seed.as_bytes());
    let cert = Certificate::issue_with_revocation(
        issuer_key,
        Delegation {
            subject: Principal::key(&subject.public),
            issuer: Principal::key(&issuer_key.public),
            tag,
            validity,
            delegable: true,
        },
        Some(RevocationPolicy::Crl {
            validator: validator.validator_hash(),
        }),
        &mut |b| rng.fill(b),
    );
    let hash = cert.hash();
    let prover = Arc::new(Prover::with_rng(det(&format!("{seed}-prover"))));
    prover.add_proof(Proof::signed_cert(cert));
    prover.add_key(subject.clone());
    (hash, prover)
}

/// Builds a signed GET whose proof chain runs request ⇒ user ⇒ owner.
/// `user` is folded into a header so distinct users' requests hash apart
/// (the request hash excludes only the Authorization/MAC headers).
fn signed_get(
    path: &str,
    user: &str,
    prover: &Prover,
    issuer: &Principal,
    min_tag: &snowflake_core::Tag,
) -> HttpRequest {
    let mut req = HttpRequest::get(path);
    req.set_header("X-User", user);
    let subject = auth::request_principal(&req, snowflake_core::HashAlg::Sha256);
    let now = fixed_clock();
    let proof = prover
        .complete_proof(&subject, issuer, min_tag, Validity::until(now.plus(300)), now)
        .expect("prover must build the request proof");
    auth::attach_proof(&mut req, &proof);
    req
}

// ======================================================================
// Boundary 1: the protected web server (VFS-backed), signed requests
// ======================================================================

#[test]
fn webserver_denies_next_request_after_push() {
    let owner = kp("web-owner");
    let issuer = Principal::key(&owner.public);
    let (validator, agent) = validator_and_agent("web-validator");

    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
    let service = ProtectedWebService::new(issuer.clone(), "files", vfs);
    let subtree = service.subtree_tag("/docs/");
    let servlet = ProtectedServlet::with_clock(service, fixed_clock, det("web-servlet"));

    // Wire the subsystem: the agent feeds verification and invalidates the
    // servlet's warm caches on push.
    servlet.surface().set_revocation_source(agent.clone());
    agent.add_bus(servlet.clone());

    // Alice and Bob each hold a revocable delegation from the owner.
    let (alice_cert, alice_prover) = revocable_grant(
        &owner,
        &kp("alice"),
        subtree.clone(),
        Validity::always(),
        &validator,
        "web-alice",
    );
    let (_bob_cert, bob_prover) = revocable_grant(
        &owner,
        &kp("bob"),
        subtree.clone(),
        Validity::always(),
        &validator,
        "web-bob",
    );
    agent.add_bus(alice_prover.clone());

    let min_tag = auth::web_tag("GET", "files", "/docs/a.html");
    let alice_req = signed_get("/docs/a.html", "alice", &alice_prover, &issuer, &min_tag);
    let bob_req = signed_get("/docs/a.html", "bob", &bob_prover, &issuer, &min_tag);

    // Both verified and served; identical retransmissions warm the cache.
    assert_eq!(servlet.handle(&alice_req).status, 200);
    assert_eq!(servlet.handle(&bob_req).status, 200);
    assert_eq!(servlet.handle(&alice_req).status, 200);
    let warm = servlet.stats();
    assert_eq!(warm.proof_verifications, 2);
    assert_eq!(warm.ident_hits, 1, "alice's retransmit hit the cache");

    // Revoke Alice's delegation at the validator; the push lands
    // synchronously through the subscription.
    validator.revoke(alice_cert.clone());

    // The *same bytes* that were warm a moment ago are now denied: the
    // verified-request entry was evicted by provenance, and the fresh
    // verification fails against the pushed CRL.
    let denied = servlet.handle(&alice_req);
    assert_eq!(denied.status, 403, "{}", String::from_utf8_lossy(&denied.body));
    assert!(String::from_utf8_lossy(&denied.body).contains("CRL"));

    // Alice's own prover was also invalidated: she cannot even build a
    // fresh proof for a new request.
    let mut fresh = HttpRequest::get("/docs/a.html");
    fresh.set_header("X-Fresh", "1");
    let subject = auth::request_principal(&fresh, snowflake_core::HashAlg::Sha256);
    assert!(alice_prover
        .complete_proof(&subject, &issuer, &min_tag, Validity::until(Time(1_000_300)), fixed_clock())
        .is_none());

    // No blanket flush: Bob's identical warm request still answers from
    // the cache, and his chain still verifies.
    let before = servlet.stats().ident_hits;
    assert_eq!(servlet.handle(&bob_req).status, 200);
    assert_eq!(servlet.stats().ident_hits, before + 1, "bob stayed warm");
}

/// An agent-fed surface audits each decision with the serial of the list
/// it was reached against: after a push of serial N, a grant carries
/// epoch N, and the denial after the next push carries N + 1.
#[test]
fn decisions_after_a_push_are_audited_with_its_serial() {
    #[derive(Default)]
    struct Capture(std::sync::Mutex<Vec<DecisionEvent>>);
    impl AuditEmitter for Capture {
        fn emit(&self, event: DecisionEvent) {
            self.0.lock().unwrap().push(event);
        }
    }
    impl Capture {
        fn last(&self) -> (Decision, u64) {
            let events = self.0.lock().unwrap();
            let e = events.last().expect("the decision was audited");
            (e.decision, e.revocation_epoch)
        }
    }

    let owner = kp("epoch-owner");
    let issuer = Principal::key(&owner.public);
    let (validator, agent) = validator_and_agent("epoch-validator");
    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
    let service = ProtectedWebService::new(issuer.clone(), "files", vfs);
    let subtree = service.subtree_tag("/docs/");
    let servlet = ProtectedServlet::with_clock(service, fixed_clock, det("epoch-servlet"));
    servlet.surface().set_revocation_source(agent.clone());
    agent.add_bus(servlet.clone());
    let audit = Arc::new(Capture::default());
    servlet.surface().set_audit_emitter(audit.clone());

    let (alice_cert, alice_prover) = revocable_grant(
        &owner,
        &kp("alice"),
        subtree,
        Validity::always(),
        &validator,
        "epoch-alice",
    );
    let min_tag = auth::web_tag("GET", "files", "/docs/a.html");

    // A push that spares alice: her next request is granted against it.
    let pushed = validator.revoke(HashVal::of(b"someone else")).crl.serial;
    assert!(pushed > 0);
    let req = signed_get("/docs/a.html", "alice", &alice_prover, &issuer, &min_tag);
    assert_eq!(servlet.handle(&req).status, 200);
    assert_eq!(audit.last(), (Decision::Grant, pushed));

    // A push that revokes her: the denial names the newer list.
    let revoking = validator.revoke(alice_cert).crl.serial;
    assert_eq!(revoking, pushed + 1);
    assert_eq!(servlet.handle(&req).status, 403);
    assert_eq!(audit.last(), (Decision::Deny, revoking));
}

// ======================================================================
// Boundary 2: an established MAC session
// ======================================================================

#[test]
fn mac_session_stops_authorizing_after_push() {
    let owner = kp("mac-owner");
    let issuer = Principal::key(&owner.public);
    let (validator, agent) = validator_and_agent("mac-validator");

    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
    let service = ProtectedWebService::new(issuer.clone(), "files", vfs);
    let subtree = service.subtree_tag("/docs/");
    let servlet = ProtectedServlet::with_clock(service, fixed_clock, det("mac-servlet"));
    servlet.surface().set_revocation_source(agent.clone());
    agent.add_bus(servlet.clone());

    let establish = |seed: &str, prover: &Prover| -> ClientMacSession {
        let mut crng = DetRng::new(seed.as_bytes());
        let (body, dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
        let mut req = HttpRequest::post(MAC_SESSION_PATH, body);
        let subject = auth::request_principal(&req, snowflake_core::HashAlg::Sha256);
        let now = fixed_clock();
        let proof = prover
            .complete_proof(&subject, &issuer, &subtree, Validity::until(now.plus(300)), now)
            .expect("establishment proof");
        auth::attach_proof(&mut req, &proof);
        let resp = servlet.handle(&req);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        ClientMacSession::from_grant(&resp.body, &dh, Validity::until(now.plus(300))).unwrap()
    };
    let mac_get = |session: &ClientMacSession, path: &str| {
        let mut req = HttpRequest::get(path);
        let hash = auth::request_hash(&req, snowflake_core::HashAlg::Sha256);
        req.set_header(auth::MAC_ID_HEADER, &session.id_header());
        req.set_header(auth::MAC_HEADER, &session.authenticate(&hash));
        req
    };

    let (alice_cert, alice_prover) = revocable_grant(
        &owner,
        &kp("mac-alice"),
        subtree.clone(),
        Validity::until(fixed_clock().plus(3_000)),
        &validator,
        "mac-alice",
    );
    let (_bob_cert, bob_prover) = revocable_grant(
        &owner,
        &kp("mac-bob"),
        subtree.clone(),
        Validity::until(fixed_clock().plus(3_000)),
        &validator,
        "mac-bob",
    );

    // Two sessions established through two revocable chains.
    let alice_session = establish("mac-est-alice", &alice_prover);
    let bob_session = establish("mac-est-bob", &bob_prover);
    assert_eq!(servlet.mac_store().len(), 2);
    assert_eq!(servlet.handle(&mac_get(&alice_session, "/docs/a.html")).status, 200);
    assert_eq!(servlet.handle(&mac_get(&bob_session, "/docs/a.html")).status, 200);
    assert_eq!(servlet.stats().mac_hits, 2);

    // Revoke Alice's establishment chain: her session — which never
    // re-verifies a proof — is evicted by the push.
    validator.revoke(alice_cert);
    assert_eq!(servlet.mac_store().len(), 1, "exactly one session evicted");

    let denied = servlet.handle(&mac_get(&alice_session, "/docs/a.html"));
    assert_eq!(denied.status, 403, "{}", String::from_utf8_lossy(&denied.body));
    assert!(String::from_utf8_lossy(&denied.body).contains("unknown MAC session"));

    // Bob's session keeps working: targeted eviction, not a flush.
    assert_eq!(servlet.handle(&mac_get(&bob_session, "/docs/a.html")).status, 200);
}

// ======================================================================
// Boundary 3: the email database over RMI
// ======================================================================

#[test]
fn emaildb_denies_next_call_after_push() {
    let db_key = kp("db-server");
    let db_issuer = Principal::key(&db_key.public);
    let (validator, agent) = validator_and_agent("db-validator");

    let db_server = snowflake_rmi::RmiServer::with_clock(fixed_clock);
    let email = EmailDb::new(db_issuer.clone());
    {
        use snowflake_rmi::{CallerInfo, Invocation, RemoteObject};
        let caller = CallerInfo {
            speaker: Principal::message(b"setup"),
            channel: snowflake_core::ChannelId {
                kind: "setup".into(),
                id: HashVal::of(b"setup"),
            },
        };
        for (owner, sender) in [("alice", "bob"), ("bob", "alice")] {
            email
                .invoke(
                    &Invocation {
                        object: EMAIL_DB_OBJECT.into(),
                        method: "insert".into(),
                        args: vec![
                            Sexp::from(owner),
                            Sexp::from(sender),
                            Sexp::from("subject"),
                            Sexp::from("body"),
                            Sexp::from("inbox"),
                        ],
                        quoting: None,
                    },
                    &caller,
                )
                .unwrap();
        }
    }
    db_server.register(EMAIL_DB_OBJECT, Arc::new(email));
    db_server.surface().set_revocation_source(agent.clone());
    agent.add_bus(db_server.clone());

    // Broker-vouched local channels for both users.
    let broker = LocalBroker::new("shared-host");
    let mut brng = DetRng::new(b"db-broker");
    let alice_session = broker.create_identity("alice", &mut |b| brng.fill(b));
    let bob_session = broker.create_identity("bob", &mut |b| brng.fill(b));
    broker.create_identity("database", &mut |b| brng.fill(b));

    // Grants go to the *session* keys directly (colocated clients are
    // their own identities, as in the §5.2 local-channel flow).
    let (alice_cert, alice_prover) = revocable_grant(
        &db_key,
        &alice_session,
        EmailDb::owner_tag("alice"),
        Validity::always(),
        &validator,
        "db-alice",
    );
    let (_bob_cert, bob_prover) = revocable_grant(
        &db_key,
        &bob_session,
        EmailDb::owner_tag("bob"),
        Validity::always(),
        &validator,
        "db-bob",
    );
    agent.add_bus(alice_prover.clone());

    let connect = |name: &str, session: &KeyPair, prover: &Arc<Prover>| {
        let (client_end, mut server_end) = broker.connect(name, "database").unwrap();
        let server = Arc::clone(&db_server);
        let handle = std::thread::spawn(move || {
            let _ = server.serve_connection(&mut server_end);
        });
        (
            RmiClient::with_clock(
                Box::new(client_end),
                session.clone(),
                Arc::clone(prover),
                fixed_clock,
            ),
            handle,
        )
    };
    let (mut alice, ah) = connect("alice", &alice_session, &alice_prover);
    let (mut bob, bh) = connect("bob", &bob_session, &bob_prover);

    // Both read their own mail; the db caches both verified chains.
    assert!(alice
        .invoke(EMAIL_DB_OBJECT, "select", vec![Sexp::from("alice")])
        .is_ok());
    assert!(bob
        .invoke(EMAIL_DB_OBJECT, "select", vec![Sexp::from("bob")])
        .is_ok());
    assert_eq!(db_server.cache_stats().proofs, 2);

    // Revoke Alice's grant: the push evicts her cached proof at the db
    // *and* her prover's warm edges.
    validator.revoke(alice_cert);
    assert_eq!(db_server.cache_stats().proofs, 1, "only alice's proof evicted");

    // Her next call faults NeedAuthorization; her prover — invalidated by
    // the same push — cannot rebuild the chain.
    match alice.invoke(EMAIL_DB_OBJECT, "select", vec![Sexp::from("alice")]) {
        Err(RmiError::NoProof { .. }) => {}
        other => panic!("expected NoProof after revocation, got {other:?}"),
    }
    assert!(alice_prover.stats().invalidated_edges > 0);

    // Bob's warm proof keeps answering — no restart, no flush.
    assert!(bob
        .invoke(EMAIL_DB_OBJECT, "select", vec![Sexp::from("bob")])
        .is_ok());

    drop(alice);
    drop(bob);
    ah.join().unwrap();
    bh.join().unwrap();
}

// ======================================================================
// Boundary 4: the quoting gateway (HTTP → RMI, paper §6.3)
// ======================================================================

#[test]
fn gateway_denies_next_request_after_push() {
    use snowflake_apps::QuotingGateway;
    use snowflake_http::{duplex, HttpClient, HttpServer, SnowflakeProxy};

    let db_key = kp("gw-db");
    let db_issuer = Principal::key(&db_key.public);
    let (validator, agent) = validator_and_agent("gw-validator");

    // Database server with Alice's mail.
    let db_server = snowflake_rmi::RmiServer::with_clock(fixed_clock);
    let email = EmailDb::new(db_issuer.clone());
    {
        use snowflake_rmi::{CallerInfo, Invocation, RemoteObject};
        let caller = CallerInfo {
            speaker: Principal::message(b"setup"),
            channel: snowflake_core::ChannelId {
                kind: "setup".into(),
                id: HashVal::of(b"setup"),
            },
        };
        email
            .invoke(
                &Invocation {
                    object: EMAIL_DB_OBJECT.into(),
                    method: "insert".into(),
                    args: vec![
                        Sexp::from("alice"),
                        Sexp::from("bob"),
                        Sexp::from("lunch"),
                        Sexp::from("noon?"),
                        Sexp::from("inbox"),
                    ],
                    quoting: None,
                },
                &caller,
            )
            .unwrap();
    }
    db_server.register(EMAIL_DB_OBJECT, Arc::new(email));
    db_server.surface().set_revocation_source(agent.clone());
    agent.add_bus(db_server.clone());

    // Gateway connected to the database over broker-vouched local channels.
    let broker = LocalBroker::new("gw-host");
    let mut brng = DetRng::new(b"gw-broker");
    let gw_kp = broker.create_identity("gateway", &mut |b| brng.fill(b));
    broker.create_identity("database", &mut |b| brng.fill(b));
    let (gw_end, mut db_end) = broker.connect("gateway", "database").unwrap();
    let db2 = Arc::clone(&db_server);
    // Not joined: the gateway keeps its channel end alive for the whole
    // test (matching the four_boundaries rig).
    let _db_thread = std::thread::spawn(move || {
        let _ = db2.serve_connection(&mut db_end);
    });
    let gateway_prover = Arc::new(Prover::with_rng(det("gw-prover")));
    agent.add_bus(gateway_prover.clone());
    let gateway_rmi = RmiClient::with_clock(
        Box::new(gw_end),
        gw_kp,
        Arc::clone(&gateway_prover),
        fixed_clock,
    );
    let http_server = HttpServer::new();
    http_server.route("/mail", Arc::new(QuotingGateway::new(gateway_rmi, fixed_clock)));

    // Alice's side: a revocable owner grant and her proxy.
    let alice = kp("gw-alice");
    let mut grng = DetRng::new(b"gw-grant");
    let grant = Certificate::issue_with_revocation(
        &db_key,
        Delegation {
            subject: Principal::key(&alice.public),
            issuer: db_issuer,
            tag: EmailDb::owner_tag("alice"),
            validity: Validity::always(),
            delegable: true,
        },
        Some(RevocationPolicy::Crl {
            validator: validator.validator_hash(),
        }),
        &mut |b| grng.fill(b),
    );
    let grant_hash = grant.hash();
    let alice_prover = Arc::new(Prover::with_rng(det("gw-alice-prover")));
    alice_prover.add_proof(Proof::signed_cert(grant));
    alice_prover.add_key(alice.clone());
    agent.add_bus(alice_prover.clone());
    let proxy = SnowflakeProxy::with_clock(alice_prover, fixed_clock, det("gw-proxy"));
    proxy.set_identity(Principal::key(&alice.public));

    let (client_stream, mut server_stream) = duplex();
    let hs = Arc::clone(&http_server);
    let http_thread = std::thread::spawn(move || {
        let _ = hs.serve_stream(&mut server_stream);
    });
    let mut client = HttpClient::new(Box::new(client_stream));

    // The full four-boundary flow works while the grant is live.
    let resp = proxy
        .execute(&mut client, HttpRequest::get("/mail/alice/inbox"))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert!(String::from_utf8_lossy(&resp.body).contains("noon?"));
    assert_eq!(db_server.cache_stats().proofs, 1);

    // Revoke mid-session: the push evicts the database's cached G|C ⇒ S
    // proof and invalidates both the gateway's and Alice's prover graphs.
    validator.revoke(grant_hash);
    assert_eq!(db_server.cache_stats().proofs, 0);

    // The next browser request cannot be authorized anywhere in the chain.
    let result = proxy.execute(&mut client, HttpRequest::get("/mail/alice/inbox"));
    assert!(
        !matches!(&result, Ok(resp) if resp.status == 200),
        "revoked delegation must not reach the database, got {result:?}"
    );

    drop(client);
    http_thread.join().unwrap();
}

// ======================================================================
// A re-issued certificate works again after its predecessor was revoked
// ======================================================================

#[test]
fn reissued_certificate_restores_access() {
    let owner = kp("reissue-owner");
    let issuer = Principal::key(&owner.public);
    let (validator, agent) = validator_and_agent("reissue-validator");

    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
    let service = ProtectedWebService::new(issuer.clone(), "files", vfs);
    let subtree = service.subtree_tag("/docs/");
    let servlet = ProtectedServlet::with_clock(service, fixed_clock, det("reissue-servlet"));
    servlet.surface().set_revocation_source(agent.clone());
    agent.add_bus(servlet.clone());

    let carol = kp("carol");
    let (cert_hash, prover) = revocable_grant(
        &owner,
        &carol,
        subtree.clone(),
        Validity::always(),
        &validator,
        "reissue-carol",
    );
    agent.add_bus(prover.clone());

    let min_tag = auth::web_tag("GET", "files", "/docs/a.html");
    let req = signed_get("/docs/a.html", "carol", &prover, &issuer, &min_tag);
    assert_eq!(servlet.handle(&req).status, 200);

    validator.revoke(cert_hash);
    assert_eq!(servlet.handle(&req).status, 403);

    // The owner re-issues a (distinct) delegation; learning it makes the
    // prover answer again and the new proof verifies against the same CRL.
    let mut rng = DetRng::new(b"reissue-2");
    let cert2 = Certificate::issue_with_revocation(
        &owner,
        Delegation {
            subject: Principal::key(&carol.public),
            issuer: issuer.clone(),
            tag: subtree,
            validity: Validity::until(fixed_clock().plus(9_999)),
            delegable: true,
        },
        Some(RevocationPolicy::Crl {
            validator: validator.validator_hash(),
        }),
        &mut |b| rng.fill(b),
    );
    prover.add_proof(Proof::signed_cert(cert2));
    let req2 = signed_get("/docs/a.html", "carol-2", &prover, &issuer, &min_tag);
    let resp = servlet.handle(&req2);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
}
