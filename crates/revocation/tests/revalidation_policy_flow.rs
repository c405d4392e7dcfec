//! The **revalidation** revocation policy, end to end across the
//! webserver boundary: a delegation whose certificate demands a fresh
//! one-time revalidation is honored over real HTTP (proxy → challenge →
//! signed request → servlet) only while the validator still revalidates
//! it.  Revoking mid-session makes the freshness agent drop the cached
//! revalidation and refuse to fetch a new one, so the very next request
//! is denied — with no restart and no effect on other users.
//!
//! This is the revalidate-flavored sibling of the CRL flows in
//! `revoke_mid_session.rs`; the webserver is served from the bounded
//! runtime pool, the production accept path.

use snowflake_apps::vfs::Vfs;
use snowflake_apps::webserver::ProtectedWebService;
use snowflake_core::{
    Certificate, Delegation, Principal, Proof, RevocationPolicy, Time, Validity,
};
use snowflake_crypto::{DetRng, Group, HashVal, KeyPair};
use snowflake_http::client::ProxyError;
use snowflake_http::{
    bounded_duplex, HttpClient, HttpRequest, HttpServer, MacSessionStore, SnowflakeProxy,
    DEFAULT_STREAM_CAPACITY,
};
use snowflake_prover::Prover;
use snowflake_revocation::{AgentSink, FreshnessAgent, InProcessValidator, ValidatorService};
use snowflake_runtime::{PoolConfig, ServerRuntime};
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

/// Issues `subject ⇒ issuer_key` under a **Revalidate** policy naming the
/// validator, and returns (cert hash, prover holding the chain).
fn revalidated_grant(
    issuer_key: &KeyPair,
    subject: &KeyPair,
    tag: snowflake_core::Tag,
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
            validity: Validity::always(),
            delegable: true,
        },
        Some(RevocationPolicy::Revalidate {
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

#[test]
fn revalidation_policy_revoke_mid_session_over_http() {
    let owner = kp("reval-owner");
    let issuer = Principal::key(&owner.public);
    let validator = ValidatorService::with_clock(kp("reval-validator"), fixed_clock, det("v-rng"));
    let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
    agent.register_validator(
        validator.validator_hash(),
        Arc::new(InProcessValidator(Arc::clone(&validator))),
    );
    validator.subscribe(Box::new(AgentSink::new(&agent)));

    // The protected web app, mounted and served from the runtime pool.
    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
    let service = ProtectedWebService::new(issuer.clone(), "files", vfs);
    let subtree = service.subtree_tag("/docs/");
    let http = HttpServer::new();
    let servlet = service.mount(
        &http,
        "/docs",
        Arc::new(MacSessionStore::new()),
        fixed_clock,
        det("reval-servlet"),
    );
    servlet.surface().set_revocation_source(agent.clone());
    agent.add_bus(servlet.clone());

    let runtime = ServerRuntime::new(PoolConfig::new("reval-web", 2, 4));
    let connect = |label: &str| {
        let (client_stream, mut server_stream) = bounded_duplex(DEFAULT_STREAM_CAPACITY);
        let h = Arc::clone(&http);
        runtime
            .pool()
            .submit(move || {
                let _ = h.serve_stream(&mut server_stream);
            })
            .unwrap_or_else(|e| panic!("pool admits connection {label}: {e}"));
        HttpClient::new(Box::new(client_stream))
    };

    // Alice and Bob each hold a revalidate-policy delegation.
    let (alice_cert, alice_prover) = revalidated_grant(
        &owner,
        &kp("reval-alice"),
        subtree.clone(),
        &validator,
        "reval-grant-alice",
    );
    let (bob_cert, bob_prover) = revalidated_grant(
        &owner,
        &kp("reval-bob"),
        subtree.clone(),
        &validator,
        "reval-grant-bob",
    );
    let alice_proxy = SnowflakeProxy::with_clock(alice_prover, fixed_clock, det("alice-proxy"));
    let bob_proxy = SnowflakeProxy::with_clock(bob_prover, fixed_clock, det("bob-proxy"));
    let mut alice = connect("alice");
    let mut bob = connect("bob");

    // Distinct users' requests must hash apart (the request hash excludes
    // only the Authorization header — same discipline as the CRL flows),
    // or one user's verified-request entry would answer for the other.
    let get = |user: &str| {
        let mut req = HttpRequest::get("/docs/a.html");
        req.set_header("X-User", user);
        req
    };

    // 1. Without a revalidation in the agent's cache the chain cannot
    //    verify: the policy demands a fresh artifact, not just "absent
    //    from a CRL".
    match alice_proxy.execute(&mut alice, get("alice")) {
        Err(ProxyError::Rejected(msg)) => {
            assert!(msg.contains("revalidation"), "unexpected rejection: {msg}")
        }
        other => panic!("expected rejection without a revalidation, got {other:?}"),
    }

    // 2. The agent prefetches revalidations (the blocking step lives off
    //    the request path); both users' requests then verify and serve.
    agent
        .fetch_revalidation(&validator.validator_hash(), &alice_cert)
        .unwrap();
    agent
        .fetch_revalidation(&validator.validator_hash(), &bob_cert)
        .unwrap();
    let resp = alice_proxy
        .execute(&mut alice, get("alice"))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let resp = bob_proxy
        .execute(&mut bob, get("bob"))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(servlet.stats().proof_verifications, 2);

    // 3. Revoke Alice mid-session.  The push drops her cached
    //    revalidation and evicts her warm verified-request entry; the
    //    validator refuses to mint a replacement.
    validator.revoke(alice_cert.clone());
    assert!(agent
        .fetch_revalidation(&validator.validator_hash(), &alice_cert)
        .is_err());

    // 4. Her very next request — same bytes, same session — is denied at
    //    the webserver boundary.
    match alice_proxy.execute(&mut alice, get("alice")) {
        Err(ProxyError::Rejected(msg)) => {
            assert!(msg.contains("revalidation"), "unexpected rejection: {msg}")
        }
        other => panic!("expected denial after revocation, got {other:?}"),
    }

    // 5. Bob is untouched: his revalidation still stands, his requests
    //    still serve.  Targeted revocation, not a flush.
    let resp = bob_proxy
        .execute(&mut bob, get("bob"))
        .unwrap();
    assert_eq!(resp.status, 200);

    // Hang up and drain the serving pool.
    drop((alice, bob));
    runtime.shutdown();
    assert_eq!(runtime.stats().completed, 2);
}

/// A revalidation expires on its own clock: even *without* a revocation
/// event, a certificate under the revalidate policy stops verifying once
/// the cached artifact's window closes, until the agent fetches a fresh
/// one — the fail-closed property CRLs only approximate.
#[test]
fn stale_revalidation_fails_closed() {
    let owner = kp("stale-owner");
    let issuer = Principal::key(&owner.public);
    // Revalidations live 30 s (the service default used here is injected
    // explicitly for clarity).
    let validator = ValidatorService::with_windows(
        kp("stale-validator"),
        fixed_clock,
        det("stale-v-rng"),
        300,
        30,
    );
    let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
    agent.register_validator(
        validator.validator_hash(),
        Arc::new(InProcessValidator(Arc::clone(&validator))),
    );

    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
    let service = ProtectedWebService::new(issuer.clone(), "files", vfs);
    let subtree = service.subtree_tag("/docs/");
    let (cert, prover) =
        revalidated_grant(&owner, &kp("stale-carol"), subtree.clone(), &validator, "stale-grant");
    agent.fetch_revalidation(&validator.validator_hash(), &cert).unwrap();

    // Within the window the chain verifies against the agent's cache…
    let subject = Principal::message(b"some request");
    let proof = prover
        .complete_proof(
            &subject,
            &issuer,
            &service.file_tag("/docs/a.html"),
            Validity::until(fixed_clock().plus(300)),
            fixed_clock(),
        )
        .expect("prover builds the chain");
    let live_ctx = snowflake_core::VerifyCtx::at(fixed_clock())
        .with_revocation_source(Arc::clone(&agent) as _);
    proof.verify(&live_ctx).expect("fresh revalidation verifies");

    // …but 31 s later the artifact is stale and verification fails
    // closed, with no revocation ever issued.
    let later = Time(fixed_clock().0 + 31);
    let stale_ctx =
        snowflake_core::VerifyCtx::at(later).with_revocation_source(Arc::clone(&agent) as _);
    let err = proof.verify(&stale_ctx).unwrap_err();
    assert!(
        format!("{err}").contains("revalidation"),
        "stale revalidation must fail closed, got: {err}"
    );
}
