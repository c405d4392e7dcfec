//! A public key outside the order-q subgroup authorizes nothing, on any
//! surface, whether or not the key cache already tracks valid keys.
//!
//! The forged signer is `−y` for an honest key `y`: it has order 2q, and
//! a signature by `y` whose challenge is even satisfies the verification
//! equation under `−y` too.  So the subgroup check is the only thing
//! standing between the forgery and a grant — on the wire it is decode
//! that refuses the key, and for a chain assembled in memory (the
//! prover's graph, a direct `authorize`) it is verification.

use snowflake_broker::topic::subscribe_stream;
use snowflake_broker::{
    subject_principal, AuthzEndpoint, AuthzRequest, NamespaceAuthority, SubscriberSink, TopicBroker,
};
use snowflake_core::{Certificate, Delegation, Principal, Proof, Tag, Time, Validity};
use snowflake_crypto::{DetRng, Group, KeyPair, PublicKey};
use snowflake_http::{Handler, HttpRequest, HttpResponse, ProtectedServlet, SnowflakeService};
use snowflake_prover::Prover;
use snowflake_runtime::{PoolConfig, ServerRuntime};
use snowflake_tags::path_vector::{grant_tag, request_tag, ActionTable, PathPattern};
use std::net::TcpListener;
use std::sync::Arc;

const OBJECT_NS: &str = "conference.example.org";
const SUBJECT_NS: &str = "iam.example.org";
const TOPIC: [&str; 3] = ["rooms", "r1", "events"];

fn fixed_clock() -> Time {
    Time(1_000_000)
}

fn det(seed: &str) -> Box<dyn FnMut(&mut [u8]) + Send> {
    let mut r = DetRng::new(seed.as_bytes());
    Box::new(move |b: &mut [u8]| r.fill(b))
}

/// `subject =tag⇒ Key(−y)`, signed under `−y` with `owner`'s secret:
/// the challenge is drawn until even, so the signature equation holds.
fn forged(owner: &KeyPair, subject: Principal, tag: Tag) -> (Proof, Principal) {
    let group = owner.public.group;
    let off = PublicKey {
        group,
        y: group.p.sub(&owner.public.y),
    };
    let issuer = Principal::key(&off);
    let mut rng = det("off-subgroup-signing");
    let mut cert = Certificate {
        delegation: Delegation {
            subject,
            issuer: issuer.clone(),
            tag,
            validity: Validity::always(),
            delegable: false,
        },
        signer: off,
        revocation: None,
        signature: owner.sign(b"placeholder", &mut rng),
    };
    let bytes = cert.signed_bytes();
    cert.signature = loop {
        let sig = owner.sign(&bytes, &mut rng);
        if sig.e.is_even() {
            break sig;
        }
    };
    (Proof::signed_cert(cert), issuer)
}

struct Doc {
    issuer: Principal,
}

impl SnowflakeService for Doc {
    fn issuer(&self, _req: &HttpRequest) -> Principal {
        self.issuer.clone()
    }
    fn min_tag(&self, req: &HttpRequest) -> Tag {
        snowflake_http::auth::web_tag(&req.method, "doc", &req.path)
    }
    fn serve(&self, _req: &HttpRequest, _speaker: &Principal) -> HttpResponse {
        HttpResponse::ok("text/plain", b"secret".to_vec())
    }
}

/// A GET for `/doc` carrying the proof `sign` makes for its request
/// principal and tag.
fn signed_get(sign: impl FnOnce(Principal, Tag) -> Proof) -> (HttpRequest, Proof) {
    let mut req = HttpRequest::get("/doc");
    let subject = snowflake_http::request_principal(&req, snowflake_core::HashAlg::Sha256);
    let proof = sign(subject, snowflake_http::auth::web_tag("GET", "doc", "/doc"));
    snowflake_http::auth::attach_proof(&mut req, &proof);
    (req, proof)
}

struct NullSink;

impl SubscriberSink for NullSink {
    fn deliver(&self, _frame: &[u8]) -> bool {
        true
    }
    fn is_open(&self) -> bool {
        true
    }
    fn close(&self) {}
}

#[test]
fn off_subgroup_signer_is_refused_on_every_surface() {
    let mut rng = det("off-subgroup-owner");
    let owner = KeyPair::generate(Group::test512(), &mut *rng);
    let honest = Principal::key(&owner.public);

    // Warm the key cache with the honest key: a valid signed request is
    // decoded, verified and served.
    let servlet = ProtectedServlet::with_clock(
        Doc {
            issuer: honest.clone(),
        },
        fixed_clock,
        det("off-subgroup-servlet"),
    );
    let (req, _) = signed_get(|subject, tag| {
        let stmt = Delegation {
            subject,
            issuer: honest.clone(),
            tag,
            validity: Validity::always(),
            delegable: false,
        };
        Proof::signed_cert(Certificate::issue(&owner, stmt, &mut *det("honest-sign")))
    });
    assert_eq!(servlet.handle(&req).status, 200, "the honest key works");

    // Servlet: on the wire, decode refuses the forged key, so the request
    // carries no usable proof and is challenged; assembled in memory, the
    // chain fails verification.
    let (req, forged_proof) = signed_get(|subject, tag| forged(&owner, subject, tag).0);
    let forged_issuer = forged_proof.conclusion().issuer;
    let servlet = ProtectedServlet::with_clock(
        Doc {
            issuer: forged_issuer.clone(),
        },
        fixed_clock,
        det("off-subgroup-servlet-2"),
    );
    assert_eq!(
        servlet.handle(&req).status,
        401,
        "undecodable proof is no proof"
    );
    let speaker = snowflake_http::request_principal(&req, snowflake_core::HashAlg::Sha256);
    let tag = snowflake_http::auth::web_tag("GET", "doc", "/doc");
    let verdict = servlet.surface().verify_ctx(fixed_clock()).authorize(
        &forged_proof,
        &speaker,
        &forged_issuer,
        &tag,
    );
    assert!(verdict.is_err(), "servlet verification must refuse −y");

    // /authz: the forged chain sits in the prover's graph (no decode on
    // this path), so verification alone must refuse it.
    let mallory = subject_principal(SUBJECT_NS, &["accounts".into(), "mallory".into()]);
    let grant = grant_tag(
        OBJECT_NS,
        &PathPattern::parse(&["rooms", "*", "events"]),
        &["subscribe"],
    );
    let (chain, issuer) = forged(&owner, mallory.clone(), grant);
    let prover = Arc::new(Prover::with_rng(det("off-subgroup-prover")));
    prover.add_proof(chain.clone());
    let mut table = ActionTable::new();
    table.allow(&["rooms", "*", "events"], &["subscribe"]);
    let endpoint = AuthzEndpoint::with_clock(Arc::clone(&prover), fixed_clock);
    endpoint.add_namespace(
        OBJECT_NS,
        NamespaceAuthority {
            issuer: issuer.clone(),
            table: table.clone(),
        },
    );
    let body = format!(
        "{{\"subject\":{{\"namespace\":\"{SUBJECT_NS}\",\"value\":[\"accounts\",\"mallory\"]}},\
          \"object\":{{\"namespace\":\"{OBJECT_NS}\",\"value\":[\"rooms\",\"r1\",\"events\"]}},\
          \"action\":\"subscribe\"}}"
    );
    let verdict = endpoint.evaluate(&AuthzRequest::from_json(body.as_bytes()).unwrap());
    assert!(
        !verdict.allowed,
        "/authz must refuse −y: {}",
        verdict.detail
    );

    // Broker subscribe: refused over TCP (decode) and in process
    // (verification).
    let runtime = ServerRuntime::new(PoolConfig::new("off-subgroup", 2, 8));
    let broker = TopicBroker::with_clock(
        Arc::clone(&runtime),
        prover,
        OBJECT_NS,
        issuer.clone(),
        table,
        fixed_clock,
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    broker.attach_subscribe_listener(listener).unwrap();
    let over_tcp = subscribe_stream(addr, &TOPIC, &mallory, &chain).unwrap();
    assert!(over_tcp.is_err(), "the wire subscribe must be denied");
    let in_process =
        broker.subscribe_with_proof(mallory.clone(), &TOPIC, &chain, Arc::new(NullSink));
    assert!(in_process.is_err(), "subscribe verification must refuse −y");
    let direct = broker.surface().verify_ctx(fixed_clock()).authorize(
        &chain,
        &mallory,
        &issuer,
        &request_tag(OBJECT_NS, &TOPIC, "subscribe"),
    );
    assert!(direct.is_err());
    assert_eq!(broker.stats().subscribers, 0);
    runtime.shutdown();
}
