//! Workspace-level integration tests: scenarios that cross many crates at
//! once and exercise the paper's less-travelled paths (revocation over
//! HTTP, thresholds in live proofs, MD5 interop, the 1024-bit group).

use snowflake_core::{
    Certificate, Crl, Delegation, HashAlg, Principal, Proof, RevocationPolicy, RevocationTable,
    Tag, Time, Validity, VerifyCtx,
};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_http::{
    duplex, HttpClient, HttpRequest, HttpResponse, HttpServer, ProtectedServlet, SnowflakeProxy,
    SnowflakeService,
};
use snowflake_prover::Prover;
use snowflake_sexpr::Sexp;
use std::sync::Arc;

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn det(seed: &str) -> impl FnMut(&mut [u8]) {
    let mut r = DetRng::new(seed.as_bytes());
    move |b: &mut [u8]| r.fill(b)
}

fn fixed_clock() -> Time {
    Time(1_000_000)
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
    fn serve(&self, req: &HttpRequest, speaker: &Principal) -> HttpResponse {
        HttpResponse::ok(
            "text/plain",
            format!("{} for {}", req.path, speaker.describe()).into_bytes(),
        )
    }
}

/// Revocation travels end-to-end: a CRL installed at the HTTP servlet kills
/// a previously working delegation chain.
#[test]
fn crl_revocation_over_http() {
    let owner = kp("rev-owner");
    let alice = kp("rev-alice");
    let validator = kp("rev-validator");
    let issuer = Principal::key(&owner.public);
    let mut rng = det("rev");

    // The grant opts into CRL checking.
    let cert = Certificate::issue_with_revocation(
        &owner,
        Delegation {
            subject: Principal::key(&alice.public),
            issuer: issuer.clone(),
            tag: tag("(tag (web))"),
            validity: Validity::always(),
            delegable: true,
        },
        Some(RevocationPolicy::Crl {
            validator: validator.public.hash(),
        }),
        &mut rng,
    );
    let cert_hash = cert.hash();

    let prover = Arc::new(Prover::with_rng(Box::new(det("rev-prover"))));
    prover.add_proof(Proof::signed_cert(cert));
    prover.add_key(alice);

    let servlet =
        ProtectedServlet::with_clock(Echo { issuer }, fixed_clock, Box::new(det("rev-servlet")));
    // A clean, current CRL: requests work.
    let mut table = RevocationTable::default();
    table.install_crl(Crl::issue(
        &validator,
        vec![],
        Validity::until(Time(2_000_000)),
        &mut rng,
    ));
    servlet.surface().set_revocation_source(Arc::new(table));
    let server = HttpServer::new();
    server.route(
        "/",
        Arc::clone(&servlet) as Arc<dyn snowflake_http::Handler>,
    );

    let proxy = SnowflakeProxy::with_clock(prover, fixed_clock, Box::new(det("rev-proxy")));

    let connect = |server: &Arc<HttpServer>| {
        let (cs, mut ss) = duplex();
        let s2 = Arc::clone(server);
        let t = std::thread::spawn(move || {
            let _ = s2.serve_stream(&mut ss);
        });
        (HttpClient::new(Box::new(cs)), t)
    };

    let (mut client, t1) = connect(&server);
    let ok = proxy.execute(&mut client, HttpRequest::get("/a")).unwrap();
    assert_eq!(ok.status, 200);
    drop(client);
    t1.join().unwrap();

    // The validator revokes the certificate; the servlet attaches a table
    // with the new CRL; the same chain now fails.
    let mut table = RevocationTable::default();
    table.install_crl(Crl::issue(
        &validator,
        vec![cert_hash],
        Validity::until(Time(2_000_000)),
        &mut rng,
    ));
    servlet.surface().set_revocation_source(Arc::new(table));
    servlet.forget_verified();

    let (mut client, t2) = connect(&server);
    let denied = proxy.execute(&mut client, HttpRequest::get("/b"));
    assert!(denied.is_err(), "revoked chain must fail: {denied:?}");
    drop(client);
    t2.join().unwrap();
}

/// A 2-of-3 threshold principal controls a resource; two trustees suffice,
/// one does not.
#[test]
fn threshold_controls_resource() {
    let (t1, t2, t3) = (kp("tr-1"), kp("tr-2"), kp("tr-3"));
    let client = kp("tr-client");
    let mut rng = det("threshold");
    let threshold = Principal::Threshold {
        k: 2,
        subjects: vec![
            Principal::key(&t1.public),
            Principal::key(&t2.public),
            Principal::key(&t3.public),
        ],
    };

    let grant = |trustee: &KeyPair| {
        Proof::signed_cert(Certificate::issue(
            trustee,
            Delegation {
                subject: Principal::key(&client.public),
                issuer: Principal::key(&trustee.public),
                tag: tag("(vault (op open))"),
                validity: Validity::always(),
                delegable: true,
            },
            &mut det("threshold-issue"),
        ))
    };
    let _ = &mut rng;

    let two = Proof::ThresholdIntro {
        threshold: threshold.clone(),
        proofs: vec![(0, grant(&t1)), (2, grant(&t3))],
    };
    let ctx = VerifyCtx::at(Time(0));
    two.verify(&ctx).unwrap();
    assert_eq!(two.conclusion().issuer, threshold);
    assert_eq!(two.conclusion().subject, Principal::key(&client.public));

    let one = Proof::ThresholdIntro {
        threshold,
        proofs: vec![(1, grant(&t2))],
    };
    assert!(
        one.verify(&ctx).is_err(),
        "one trustee is below the threshold"
    );
}

/// Figure 5 interop: a client hashing requests with MD5 is accepted — the
/// server follows the proof subject's algorithm.
#[test]
fn md5_request_hash_interop() {
    let owner = kp("md5-owner");
    let issuer = Principal::key(&owner.public);
    let servlet = ProtectedServlet::with_clock(
        Echo {
            issuer: issuer.clone(),
        },
        fixed_clock,
        Box::new(det("md5-servlet")),
    );
    let server = HttpServer::new();
    server.route("/", servlet);

    // Hand-roll an MD5-flavored signed request (the proxy defaults to
    // SHA-256, so we build the proof manually).
    let mut req = HttpRequest::get("/md5-doc");
    req.set_header("Connection", "keep-alive");
    let subject = snowflake_http::request_principal(&req, HashAlg::Md5);
    let mut rng = det("md5-sign");
    let cert = Certificate::issue(
        &owner,
        Delegation {
            subject,
            issuer,
            tag: tag("(tag (web))"),
            validity: Validity::until(Time(2_000_000)),
            delegable: false,
        },
        &mut rng,
    );
    snowflake_http::auth::attach_proof(&mut req, &Proof::signed_cert(cert));

    let (cs, mut ss) = duplex();
    let t = std::thread::spawn(move || {
        let _ = server.serve_stream(&mut ss);
    });
    let mut client = HttpClient::new(Box::new(cs));
    let resp = client.send(&req).unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    drop(client);
    t.join().unwrap();
}

/// The full-size 1024-bit group works end to end (slower, so just one
/// round trip).
#[test]
fn group1024_end_to_end() {
    let mut rng = det("1024");
    let alice = KeyPair::generate(Group::group1024(), &mut rng);
    let bob = KeyPair::generate(Group::group1024(), &mut rng);
    let cert = Certificate::issue(
        &alice,
        Delegation {
            subject: Principal::key(&bob.public),
            issuer: Principal::key(&alice.public),
            tag: tag("(web)"),
            validity: Validity::always(),
            delegable: false,
        },
        &mut rng,
    );
    let proof = Proof::signed_cert(cert);
    proof.verify(&VerifyCtx::at(Time(0))).unwrap();
    // And the wire round trip preserves it.
    let back = Proof::from_sexp(&proof.to_sexp()).unwrap();
    back.verify(&VerifyCtx::at(Time(0))).unwrap();
}

/// Mixed-group chains: a test512 identity may delegate to a group1024 key
/// and vice versa — principals are just keys.
#[test]
fn mixed_group_chain() {
    let mut rng = det("mixed");
    let big = KeyPair::generate(Group::group1024(), &mut rng);
    let small = KeyPair::generate(Group::test512(), &mut rng);
    let carol = KeyPair::generate(Group::test512(), &mut rng);

    let c1 = Certificate::issue(
        &big,
        Delegation {
            subject: Principal::key(&small.public),
            issuer: Principal::key(&big.public),
            tag: tag("(web)"),
            validity: Validity::always(),
            delegable: true,
        },
        &mut rng,
    );
    let c2 = Certificate::issue(
        &small,
        Delegation {
            subject: Principal::key(&carol.public),
            issuer: Principal::key(&small.public),
            tag: tag("(web (method GET))"),
            validity: Validity::always(),
            delegable: false,
        },
        &mut rng,
    );
    let chain = Proof::signed_cert(c2).then(Proof::signed_cert(c1));
    chain.verify(&VerifyCtx::at(Time(0))).unwrap();
    let c = chain.conclusion();
    assert_eq!(c.subject, Principal::key(&carol.public));
    assert_eq!(c.issuer, Principal::key(&big.public));
}

/// The facade crate re-exports enough to write programs against.
#[test]
fn facade_compiles_and_links() {
    // Reaching the types through each crate root proves the workspace
    // wiring; this test exists so a missing re-export fails loudly.
    let _p: snowflake_core::Principal = Principal::message(b"x");
    let _t: snowflake_tags::Tag = Tag::Star;
    let _h: snowflake_crypto::HashVal = snowflake_crypto::HashVal::of(b"y");
    let _s: snowflake_sexpr::Sexp = Sexp::from("z");
}
