//! Failure injection into the secure-channel handshake: a hostile or broken
//! peer must produce clean errors, never panics or silent acceptance.

use snowflake_channel::{
    AuthChannel, PipeTransport, SecureChannel, ServerHandshake, Session, SessionCache, Transport,
};
use snowflake_core::ChannelId;
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_sexpr::Sexp;
use std::io;
use std::sync::{Arc, Mutex};

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

#[test]
fn garbage_client_hello_rejected() {
    for garbage in [
        &b"not an s-expression"[..],
        &b"(hello)"[..],
        &b"(hello (role server) (dh #00#) (nonce #00#))"[..], // wrong role
        &b"(resume)"[..],                                     // resume without ticket
        &b""[..],
    ] {
        let (mut ct, st) = PipeTransport::pair();
        let server_key = kp("garbage-server");
        let handle = std::thread::spawn(move || {
            let mut rng = DetRng::new(b"srv");
            SecureChannel::server(Box::new(st), &server_key, None, &mut |b| rng.fill(b))
                .err()
                .map(|e| e.to_string())
        });
        ct.send(garbage).unwrap();
        let err = handle.join().unwrap();
        assert!(
            err.is_some(),
            "server must reject {:?}",
            String::from_utf8_lossy(garbage)
        );
    }
}

#[test]
fn invalid_dh_share_rejected() {
    // A hello whose DH share is the identity element (small-subgroup
    // confinement attempt).
    let (mut ct, st) = PipeTransport::pair();
    let server_key = kp("dh-server");
    let handle = std::thread::spawn(move || {
        let mut rng = DetRng::new(b"srv");
        SecureChannel::server(Box::new(st), &server_key, None, &mut |b| rng.fill(b))
            .err()
            .map(|e| e.to_string())
    });
    let evil_hello = Sexp::tagged(
        "hello",
        vec![
            Sexp::tagged("role", vec![Sexp::from("client")]),
            Sexp::tagged("dh", vec![Sexp::atom(vec![1u8])]), // g^x = 1
            Sexp::tagged("nonce", vec![Sexp::atom(vec![0u8; 16])]),
        ],
    );
    ct.send(&evil_hello.canonical()).unwrap();
    // The server may fail at agreement or while awaiting auth; either way
    // it must error out, not complete.
    let _ = ct.send(b"(anonymous)");
    let err = handle.join().unwrap();
    assert!(err.is_some(), "identity DH share must not yield a channel");
}

#[test]
fn client_rejects_server_with_wrong_auth_signature() {
    // A MITM replays the real server hello but cannot sign the transcript.
    let (ct, mut st) = PipeTransport::pair();
    let real_server = kp("mitm-real");
    let handle = std::thread::spawn(move || {
        // Fake server: produce a plausible hello with its own key but sign
        // the transcript with a *different* key.
        let mut rng = DetRng::new(b"fake");
        let fake_signer = {
            let mut r = DetRng::new(b"fake-signer");
            KeyPair::generate(Group::test512(), &mut |b| r.fill(b))
        };
        let _client_hello = st.recv().unwrap();
        let dh = snowflake_crypto::DhSecret::generate(Group::test512(), &mut |b| rng.fill(b));
        let hello = Sexp::tagged(
            "hello",
            vec![
                Sexp::tagged("role", vec![Sexp::from("server")]),
                Sexp::tagged("dh", vec![Sexp::atom(dh.public.to_bytes_be())]),
                Sexp::tagged("nonce", vec![Sexp::atom(vec![7u8; 16])]),
                Sexp::tagged("key", vec![real_server.public.to_sexp()]),
            ],
        );
        st.send(&hello.canonical()).unwrap();
        // Sign garbage with the wrong key.
        let bogus_sig = fake_signer.sign(b"not the transcript", &mut |b| rng.fill(b));
        st.send(&bogus_sig.to_sexp().canonical()).unwrap();
    });

    let mut rng = DetRng::new(b"cli");
    let result = SecureChannel::client(Box::new(ct), None, None, &mut |b| rng.fill(b));
    assert!(
        result.is_err(),
        "client must reject a server that cannot sign the transcript"
    );
    handle.join().unwrap();
}

#[test]
fn truncated_handshake_is_clean_error() {
    let (ct, st) = PipeTransport::pair();
    let server_key = kp("trunc-server");
    let handle = std::thread::spawn(move || {
        let mut rng = DetRng::new(b"srv");
        SecureChannel::server(Box::new(st), &server_key, None, &mut |b| rng.fill(b))
            .err()
            .map(|e| e.to_string())
    });
    // Client connects and immediately disappears.
    drop(ct);
    let err = handle.join().unwrap();
    assert!(err.is_some());
}

/// A client transport that records every frame the client sends.
struct Tap(PipeTransport, Arc<Mutex<Vec<Vec<u8>>>>);

impl Transport for Tap {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.1.lock().unwrap().push(frame.to_vec());
        self.0.send(frame)
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.0.recv()
    }
}

/// Runs a keyed client (resuming when `client_cache` holds a ticket)
/// against the blocking server, and returns the client's frames and the
/// channel id the server reached.
fn record(client_cache: &SessionCache, server_cache: &SessionCache) -> (Vec<Vec<u8>>, ChannelId) {
    let (ct, st) = PipeTransport::pair();
    let server_cache = server_cache.clone();
    let server = std::thread::spawn(move || {
        let mut rng = DetRng::new(b"replay-srv");
        let key = kp("replay-server");
        SecureChannel::server(Box::new(st), &key, Some(&server_cache), &mut |b| {
            rng.fill(b)
        })
        .unwrap()
        .channel_id()
    });
    let sent = Arc::new(Mutex::new(Vec::new()));
    let mut rng = DetRng::new(b"replay-cli");
    let tap = Tap(ct, Arc::clone(&sent));
    let client_key = kp("replay-client");
    SecureChannel::client(
        Box::new(tap),
        Some(&client_key),
        Some((client_cache, "server")),
        &mut |b| rng.fill(b),
    )
    .unwrap();
    let id = server.join().unwrap();
    let frames = sent.lock().unwrap().clone();
    (frames, id)
}

/// Feeds `frames` to a sans-IO server handshake seeded like the blocking
/// server in [`record`]: the session it ends with, if any.
fn replay(frames: &[Vec<u8>], cache: &SessionCache) -> io::Result<Option<Session>> {
    let mut handshake = ServerHandshake::new(kp("replay-server"), Some(cache.clone()));
    let mut rng = DetRng::new(b"replay-srv");
    let mut session = None;
    for frame in frames {
        session = handshake.step(frame, &mut |b| rng.fill(b))?.1;
    }
    Ok(session)
}

/// A seeded xorshift generator: mutations without a dependency.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// The sans-IO server handshake under recorded client transcripts: the
/// unmutated full and resumed transcripts reach the blocking server's
/// channel ids, and bit flips, truncations, swapped or repeated frames
/// and an unknown ticket each end in an error or a session — never a
/// panic, never a stall.
#[test]
fn sans_io_handshake_survives_mutated_transcripts() {
    let (client_cache, server_cache) = (SessionCache::new(), SessionCache::new());
    let (full, full_id) = record(&client_cache, &server_cache);
    let (resume, resume_id) = record(&client_cache, &server_cache);
    assert_eq!(
        (full.len(), resume.len()),
        (2, 1),
        "hello + auth, then resume"
    );
    let established = |frames: &[Vec<u8>]| replay(frames, &server_cache).unwrap().unwrap();
    assert_eq!(established(&full).channel_id(), full_id);
    assert_eq!(established(&resume).channel_id(), resume_id);

    let unknown_ticket = Sexp::tagged(
        "resume",
        vec![
            Sexp::tagged("ticket", vec![Sexp::atom(vec![0xAB; 32])]),
            Sexp::tagged("nonce", vec![Sexp::atom(vec![0; 16])]),
        ],
    );
    let refused = replay(&[unknown_ticket.canonical()], &server_cache).err();
    assert!(refused
        .unwrap()
        .to_string()
        .contains("unknown session ticket"));
    for frames in [
        vec![full[1].clone(), full[0].clone()],
        vec![full[0].clone(), full[0].clone()],
        vec![resume[0].clone(), full[1].clone()],
        vec![full[0].clone(), full[1].clone(), full[1].clone()],
    ] {
        assert!(replay(&frames, &server_cache).is_err(), "{frames:?}");
    }

    let mut rng = XorShift(0x5EED_CAFE);
    let (mut errors, mut sessions) = (0, 0);
    for _ in 0..256 {
        let mut frames = if rng.below(3) == 0 {
            resume.clone()
        } else {
            full.clone()
        };
        let which = rng.below(frames.len());
        let frame = &mut frames[which];
        if rng.below(2) == 0 {
            let bit = rng.below(frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
        } else {
            frame.truncate(rng.below(frame.len()));
        }
        match replay(&frames, &server_cache) {
            Err(_) => errors += 1,
            Ok(Some(_)) => sessions += 1,
            Ok(None) => panic!("a whole transcript neither failed nor finished: {frames:?}"),
        }
    }
    assert!(
        errors > 0,
        "mutations must be refused ({sessions} sessions)"
    );
}
