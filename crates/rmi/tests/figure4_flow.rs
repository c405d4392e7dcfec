//! End-to-end tests of the Figure 4 RMI authorization flow over real
//! channels: secure (ssh-like), local (broker-vouched), and plain.

use snowflake_channel::{LocalBroker, PipeTransport, SecureChannel};
use snowflake_core::{Certificate, Delegation, Principal, Tag, Time, Validity};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_prover::Prover;
use snowflake_rmi::{FileObject, RmiClient, RmiError, RmiFault, RmiServer};
use snowflake_sexpr::Sexp;
use std::collections::HashMap;
use std::sync::Arc;

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn tag(src: &str) -> Tag {
    Tag::parse(&Sexp::parse(src.as_bytes()).unwrap()).unwrap()
}

fn fixed_clock() -> Time {
    Time(1_000_000)
}

/// Server setup: a file object controlled by `server_key`, with the server
/// owner having granted `client_identity` delegable access.
struct Rig {
    server: Arc<RmiServer>,
    server_key: KeyPair,
    prover: Arc<Prover>,
}

fn rig() -> Rig {
    let server_key = kp("server");
    let client_identity = kp("client-identity");
    let mut rng = DetRng::new(b"rig");

    let server = RmiServer::with_clock(fixed_clock);
    let mut files = HashMap::new();
    files.insert("X".to_string(), b"the contents of file X".to_vec());
    server.register(
        "files",
        Arc::new(FileObject::new(Principal::key(&server_key.public), files)),
    );

    // The resource owner grants the client's identity key access, delegable
    // so the client can extend it to session keys.
    let grant = Delegation {
        subject: Principal::key(&client_identity.public),
        issuer: Principal::key(&server_key.public),
        tag: tag("(rmi (object files))"),
        validity: Validity::always(),
        delegable: true,
    };
    let cert = Certificate::issue(&server_key, grant, &mut |b| rng.fill(b));

    let mut prng = DetRng::new(b"prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    prover.add_proof(snowflake_core::Proof::signed_cert(cert));
    prover.add_key(client_identity.clone());

    Rig {
        server,
        server_key,
        prover,
    }
}

/// Connects a client and server over the secure channel, serving RMI on a
/// background thread.
fn secure_pair(r: &Rig, session_key: &KeyPair) -> (RmiClient, std::thread::JoinHandle<()>) {
    let (ct, st) = PipeTransport::pair();
    let server = Arc::clone(&r.server);
    let server_key = r.server_key.clone();
    let handle = std::thread::spawn(move || {
        let mut rng = DetRng::new(b"srv-chan");
        let mut channel =
            SecureChannel::server(Box::new(st), &server_key, None, &mut |b| rng.fill(b)).unwrap();
        let _ = server.serve_connection(&mut channel);
    });
    let mut rng = DetRng::new(b"cli-chan");
    let channel =
        SecureChannel::client(Box::new(ct), Some(session_key), None, &mut |b| rng.fill(b)).unwrap();
    let client = RmiClient::with_clock(
        Box::new(channel),
        session_key.clone(),
        Arc::clone(&r.prover),
        fixed_clock,
    );
    (client, handle)
}

#[test]
fn full_figure4_retry_protocol() {
    let r = rig();
    let session_key = kp("session-k2");
    let (mut client, handle) = secure_pair(&r, &session_key);

    // First call: server faults NeedAuthorization; invoker builds the proof
    // K₂ ⇒ K_C ⇒ K_S, submits it, retries — all inside invoke().
    let result = client
        .invoke("files", "read", vec![Sexp::from("X")])
        .unwrap();
    assert_eq!(result.as_atom().unwrap(), b"the contents of file X");

    let stats = r.server.cache_stats();
    assert_eq!(stats.misses, 1, "exactly one need-authorization fault");
    assert_eq!(stats.hits, 1, "the retry hit the cache");
    assert_eq!(stats.proofs, 1);

    // Subsequent calls: no exception, straight through the cache.
    for _ in 0..5 {
        let result = client
            .invoke("files", "read", vec![Sexp::from("X")])
            .unwrap();
        assert_eq!(result.as_atom().unwrap(), b"the contents of file X");
    }
    let stats = r.server.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 6);

    drop(client);
    handle.join().unwrap();
}

#[test]
fn unauthorized_client_rejected() {
    let r = rig();
    // A stranger whose Prover holds a key with no chain to the server.
    let stranger = kp("stranger");
    let mut prng = DetRng::new(b"stranger-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    prover.add_key(stranger.clone());

    let (ct, st) = PipeTransport::pair();
    let server = Arc::clone(&r.server);
    let server_key = r.server_key.clone();
    let handle = std::thread::spawn(move || {
        let mut rng = DetRng::new(b"srv2");
        let mut channel =
            SecureChannel::server(Box::new(st), &server_key, None, &mut |b| rng.fill(b)).unwrap();
        let _ = server.serve_connection(&mut channel);
    });
    let mut rng = DetRng::new(b"cli2");
    let channel =
        SecureChannel::client(Box::new(ct), Some(&stranger), None, &mut |b| rng.fill(b)).unwrap();
    let mut client = RmiClient::with_clock(Box::new(channel), stranger, prover, fixed_clock);

    match client.invoke("files", "read", vec![Sexp::from("X")]) {
        Err(RmiError::NoProof { .. }) => {}
        other => panic!("expected NoProof, got {other:?}"),
    }
    drop(client);
    handle.join().unwrap();
}

#[test]
fn forged_proof_rejected_by_server() {
    // A client that delegates from a key with no authority: submission
    // succeeds in form but check_auth still faults, and the final retry
    // reports the failure.
    let r = rig();
    let session_key = kp("bad-session");
    let impostor_identity = kp("impostor");
    let mut prng = DetRng::new(b"imp-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    // The impostor pretends its own key chain reaches the server by
    // self-issuing a grant — the server will reject the signature chain.
    let mut rng = DetRng::new(b"imp");
    let fake_grant = Delegation {
        subject: Principal::key(&impostor_identity.public),
        issuer: Principal::key(&impostor_identity.public), // not the server!
        tag: tag("(rmi (object files))"),
        validity: Validity::always(),
        delegable: true,
    };
    prover.add_proof(snowflake_core::Proof::signed_cert(Certificate::issue(
        &impostor_identity,
        fake_grant,
        &mut |b| rng.fill(b),
    )));
    prover.add_key(impostor_identity);

    let (ct, st) = PipeTransport::pair();
    let server = Arc::clone(&r.server);
    let server_key = r.server_key.clone();
    let handle = std::thread::spawn(move || {
        let mut rng = DetRng::new(b"srv3");
        let mut channel =
            SecureChannel::server(Box::new(st), &server_key, None, &mut |b| rng.fill(b)).unwrap();
        let _ = server.serve_connection(&mut channel);
    });
    let mut crng = DetRng::new(b"cli3");
    let channel = SecureChannel::client(Box::new(ct), Some(&session_key), None, &mut |b| {
        crng.fill(b)
    })
    .unwrap();
    let mut client = RmiClient::with_clock(Box::new(channel), session_key, prover, fixed_clock);

    // The impostor's prover can't even build a chain to the real issuer.
    assert!(client
        .invoke("files", "read", vec![Sexp::from("X")])
        .is_err());
    drop(client);
    handle.join().unwrap();
}

#[test]
fn local_channel_skips_encryption_but_keeps_authorization() {
    // §5.2 + §6.3: colocated client and server use broker-vouched pipes;
    // the authorization protocol is identical.
    let server_key = kp("server");
    let broker = LocalBroker::new("host-jvm");
    let mut brng = DetRng::new(b"broker");
    let client_session = broker.create_identity("alice", &mut |b| brng.fill(b));
    // Register the server's channel identity too.
    broker.create_identity("file-server", &mut |b| brng.fill(b));

    let server = RmiServer::with_clock(fixed_clock);
    let mut files = HashMap::new();
    files.insert("X".to_string(), b"local file X".to_vec());
    server.register(
        "files",
        Arc::new(FileObject::new(Principal::key(&server_key.public), files)),
    );

    // Grant alice's *session* key directly (she is her own identity here).
    let mut rng = DetRng::new(b"grant");
    let grant = Delegation {
        subject: Principal::key(&client_session.public),
        issuer: Principal::key(&server_key.public),
        tag: tag("(rmi (object files))"),
        validity: Validity::always(),
        delegable: true,
    };
    let cert = Certificate::issue(&server_key, grant, &mut |b| rng.fill(b));
    let mut prng = DetRng::new(b"local-prover");
    let prover = Arc::new(Prover::with_rng(Box::new(move |b| prng.fill(b))));
    prover.add_proof(snowflake_core::Proof::signed_cert(cert));
    prover.add_key(client_session.clone());

    let (client_end, mut server_end) = broker.connect("alice", "file-server").unwrap();
    let server2 = Arc::clone(&server);
    let handle = std::thread::spawn(move || {
        let _ = server2.serve_connection(&mut server_end);
    });

    let mut client =
        RmiClient::with_clock(Box::new(client_end), client_session, prover, fixed_clock);
    let result = client
        .invoke("files", "read", vec![Sexp::from("X")])
        .unwrap();
    assert_eq!(result.as_atom().unwrap(), b"local file X");
    drop(client);
    handle.join().unwrap();
}

#[test]
fn faults_propagate() {
    let r = rig();
    let session_key = kp("session-k2");
    let (mut client, handle) = secure_pair(&r, &session_key);

    // Unknown object.
    match client.invoke("ghost", "read", vec![]) {
        Err(RmiError::Fault(RmiFault::NoSuchObject(_))) => {}
        other => panic!("expected NoSuchObject, got {other:?}"),
    }
    // Known object, unknown method (after authorization).
    match client.invoke("files", "frobnicate", vec![]) {
        Err(RmiError::Fault(RmiFault::NoSuchMethod(_))) => {}
        other => panic!("expected NoSuchMethod, got {other:?}"),
    }
    // Application-level error.
    match client.invoke("files", "read", vec![Sexp::from("missing")]) {
        Err(RmiError::Fault(RmiFault::Application(_))) => {}
        other => panic!("expected Application fault, got {other:?}"),
    }
    drop(client);
    handle.join().unwrap();
}

#[test]
fn proof_survives_reconnection() {
    // "Future calls encounter no exception as long as the proof at the
    // server remains valid" — even across connections, because the proof is
    // keyed by the session key, not the channel.
    let r = rig();
    let session_key = kp("stable-session");

    let (mut c1, h1) = secure_pair(&r, &session_key);
    c1.invoke("files", "read", vec![Sexp::from("X")]).unwrap();
    drop(c1);
    h1.join().unwrap();

    let (mut c2, h2) = secure_pair(&r, &session_key);
    c2.invoke("files", "read", vec![Sexp::from("X")]).unwrap();
    let stats = r.server.cache_stats();
    assert_eq!(stats.misses, 1, "second connection reused the cached proof");
    drop(c2);
    h2.join().unwrap();
}

/// A client that re-submits the proof it already delivered (every
/// reconnect does) replaces its cached entry instead of growing the
/// subject's list; a genuinely different proof for the same subject is
/// kept alongside, and an expired one is dropped by the next submission.
#[test]
fn resubmitted_proofs_do_not_accumulate() {
    use snowflake_channel::PlainChannel;
    use snowflake_core::Proof;
    use snowflake_rmi::{Invocation, RmiReply, PROOF_RECIPIENT};

    let r = rig();
    let holder = Principal::key(&kp("resubmitter").public);
    let mut rng = DetRng::new(b"resubmit");
    let mut grant = |object: &str, validity: Validity| {
        let delegation = Delegation {
            subject: holder.clone(),
            issuer: Principal::key(&r.server_key.public),
            tag: tag(&format!("(rmi (object {object}))")),
            validity,
            delegable: false,
        };
        Proof::signed_cert(Certificate::issue(&r.server_key, delegation, &mut |b| rng.fill(b)))
    };
    let (_peer, transport) = PipeTransport::pair();
    let channel = PlainChannel::new(transport, "resubmit");
    let submit = |proof: &Proof| {
        let frame = Invocation {
            object: PROOF_RECIPIENT.into(),
            method: "submit".into(),
            args: vec![proof.to_sexp()],
            quoting: None,
        }
        .to_sexp()
        .canonical();
        match r.server.handle_frame(&frame, &channel) {
            RmiReply::Return(_) => {}
            other => panic!("proof refused: {other:?}"),
        }
    };

    let files = grant("files", Validity::always());
    for _ in 0..20 {
        submit(&files);
    }
    assert_eq!(r.server.cache_stats().proofs, 1, "one proof, one entry");

    // Already past its window at the rig's clock: verifies (validity is
    // checked per request, against the conclusion) but never accumulates.
    let lapsed = grant("lapsed", Validity::until(Time(10)));
    submit(&lapsed);
    let other = grant("other", Validity::always());
    submit(&other);
    assert_eq!(r.server.cache_stats().proofs, 2, "files + other; lapsed dropped");
}
