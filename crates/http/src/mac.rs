//! The signed-request MAC optimization (paper §5.3.1).
//!
//! "The signed request protocol … is rather slow, since it incurs a
//! public-key signature for every request.  We implemented a more efficient
//! protocol that amortizes the public-key operation by having the server
//! send an encrypted, secret message authentication code (MAC) to the
//! client.  The client then authorizes messages by sending a hash of
//! ⟨message, MAC⟩.  The protocol is represented in the end-to-end
//! authorization chain by representing the MAC as a principal."
//!
//! Establishment: the client POSTs a Diffie–Hellman share to
//! [`MAC_SESSION_PATH`] under ordinary Snowflake (signed-request)
//! authorization.  The server mints a 32-byte secret, wraps it under the
//! DH-derived key, and records the session grant
//! `Mac(H(secret)) =T⇒ issuer` — where `T` and the validity come from the
//! *verified establishment proof*, so the MAC principal holds exactly the
//! authority the client demonstrated, no more.

use snowflake_bigint::Ubig;
use snowflake_core::{
    Delegation, Epoch, HashVal, Principal, Proof, ProvenanceMap, Tag, Time, Validity,
};
use snowflake_crypto::chacha20::ChaCha20;
use snowflake_crypto::hmac::{ct_eq, derive_key, hmac_sha256};
use snowflake_crypto::{DhSecret, Group};
use snowflake_sexpr::{b64_decode, b64_encode, Sexp};
use std::sync::Arc;

/// The well-known path MAC sessions are established at.
pub const MAC_SESSION_PATH: &str = "/.sf/mac-session";

/// One live MAC session on the server.
struct MacSession {
    secret: [u8; 32],
    /// The authority this MAC principal carries (from the establishment
    /// proof's verified conclusion).  Behind an `Arc` so `verify` can take
    /// a reference out of the shard with a refcount bump and do every
    /// check outside the lock.
    grant: Arc<Delegation>,
    /// The establishment proof, retained for end-to-end audit trails.
    establishment: Proof,
}

/// Server-side store of MAC sessions, keyed by MAC id (`H(secret)`).
///
/// Sessions live in a [`ProvenanceMap`]: each slot's provenance is the
/// certificate hashes the establishment chain depended on, so a
/// revocation push evicts exactly the dependent sessions, and a session
/// past its grant's validity end is dropped.  `verify` copies the 32-byte
/// secret out of the shard and computes the HMAC *outside* any lock, so
/// one slow verify cannot stall establishment or verifies of other
/// sessions.
pub struct MacSessionStore {
    sessions: ProvenanceMap<HashVal, MacSession>,
}

impl Default for MacSessionStore {
    fn default() -> MacSessionStore {
        MacSessionStore {
            sessions: ProvenanceMap::unbounded(),
        }
    }
}

impl MacSessionStore {
    /// Creates an empty store.
    pub fn new() -> MacSessionStore {
        MacSessionStore::default()
    }

    /// The token [`establish`](Self::establish) needs.  Callers read it
    /// *before* verifying the establishment proof, so a revocation landing
    /// between verification and insertion refuses the session instead of
    /// resurrecting it.
    pub fn epoch(&self) -> Epoch {
        self.sessions.epoch()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Removes every session whose validity window has closed before
    /// `now`, returning how many were reclaimed.  Long-running servers
    /// otherwise accumulate one dead entry per establishment forever.
    pub fn evict_expired(&self, now: Time) -> usize {
        self.sessions.evict_expired(now)
    }

    /// Removes every session whose establishment proof chain depended on
    /// the certificate with this hash, returning how many were evicted.
    ///
    /// This is the MAC store's arm of revocation push: a session minted
    /// from a since-revoked delegation must stop authorizing immediately,
    /// without flushing unrelated sessions or restarting the server.
    pub fn evict_by_cert(&self, cert_hash: &HashVal) -> usize {
        self.sessions.evict_cert(cert_hash).len()
    }

    /// Handles an establishment request body, returning the grant body.
    ///
    /// `establishment` must already be verified by the caller, under a
    /// `token` read from [`epoch`](Self::epoch) before that verification;
    /// `proven` is its conclusion (the authority the MAC inherits).  When
    /// a revocation push has landed since, the proof was checked against
    /// superseded state and the session is refused.  Establishment also
    /// sweeps expired sessions from the shard the new session lands in,
    /// so steady establishment traffic keeps the store from leaking.
    pub fn establish(
        &self,
        token: Epoch,
        body: &[u8],
        proven: Delegation,
        establishment: Proof,
        now: Time,
        rand_bytes: &mut dyn FnMut(&mut [u8]),
    ) -> Result<Vec<u8>, String> {
        let req = Sexp::parse(body).map_err(|e| format!("bad mac-request: {e}"))?;
        if req.tag_name() != Some("mac-request") {
            return Err("expected (mac-request …)".into());
        }
        let client_share = req
            .find_value("dh")
            .and_then(Sexp::as_atom)
            .ok_or("mac-request missing dh share")?;

        let group = Group::test512();
        let dh = DhSecret::generate(group, rand_bytes);
        let shared = dh
            .agree(&Ubig::from_bytes_be(client_share))
            .ok_or("invalid client DH share")?;

        let mut secret = [0u8; 32];
        rand_bytes(&mut secret);
        let mac_id = HashVal::of(&secret);

        // Wrap the secret under the DH-derived key.
        let wrap_key = derive_key(&shared, b"sf-mac-wrap");
        let mut enc = secret.to_vec();
        ChaCha20::new(&wrap_key, &[0u8; 12]).apply(&mut enc);

        // Record the session: the MAC principal carries the authority the
        // establishment proof demonstrated.
        let grant = Arc::new(Delegation {
            subject: Principal::Mac(mac_id.clone()),
            issuer: proven.issuer.clone(),
            tag: proven.tag.clone(),
            validity: proven.validity,
            delegable: false,
        });
        let certs = establishment.cert_hashes().into();
        let session = MacSession {
            secret,
            grant,
            establishment,
        };
        if !self.sessions.insert(
            token,
            mac_id.clone(),
            session,
            certs,
            proven.validity.not_after,
            now,
        ) {
            return Err("a revocation landed since the establishment proof \
                        was verified; re-verify and retry"
                .into());
        }

        let reply = Sexp::tagged(
            "mac-grant",
            vec![
                Sexp::tagged("dh", vec![Sexp::atom(dh.public.to_bytes_be())]),
                Sexp::tagged("enc", vec![Sexp::atom(enc)]),
                Sexp::tagged("mac-id", vec![mac_id.to_sexp()]),
            ],
        );
        Ok(reply.canonical())
    }

    /// Verifies the MAC headers of a request.
    ///
    /// Returns the speaker principal (`Mac(id)`) and the session grant when
    /// `request_hash` is correctly authenticated, the grant covers
    /// `request_tag`, and the session is still valid at `now`.
    ///
    /// The shard lock is held only long enough to copy the 32-byte secret
    /// and bump the grant's refcount; the HMAC and the tag/validity checks
    /// run lock-free, so verifies on disjoint sessions proceed fully in
    /// parallel and never stall establishment.
    pub fn verify(
        &self,
        mac_id: &HashVal,
        presented_mac: &[u8],
        request_hash: &HashVal,
        request_tag: &Tag,
        now: Time,
    ) -> Result<(Principal, Delegation), String> {
        let (secret, grant) = self
            .sessions
            .get(mac_id, now, |s, _| (s.secret, Arc::clone(&s.grant)))
            .ok_or("unknown MAC session")?;
        let expect = hmac_sha256(&secret, &request_hash.bytes);
        if !ct_eq(&expect, presented_mac) {
            return Err("MAC verification failed".into());
        }
        if !grant.tag.permits(request_tag) {
            return Err("MAC session does not cover this request".into());
        }
        if !grant.validity.contains(now) {
            return Err("MAC session expired".into());
        }
        Ok((Principal::Mac(mac_id.clone()), (*grant).clone()))
    }

    /// The audit trail for a session live at `now`: the establishment
    /// proof.
    pub fn audit(&self, mac_id: &HashVal, now: Time) -> Option<String> {
        self.sessions
            .get(mac_id, now, |s, _| s.establishment.audit_trail())
    }
}

/// Client-side state of one MAC session.
#[derive(Clone)]
pub struct ClientMacSession {
    /// The session id (`H(secret)`).
    pub mac_id: HashVal,
    secret: [u8; 32],
    /// The window the session covers.
    pub validity: Validity,
}

impl ClientMacSession {
    /// Builds the establishment request body and the DH secret to keep.
    pub fn request_body(rand_bytes: &mut dyn FnMut(&mut [u8])) -> (Vec<u8>, DhSecret) {
        let dh = DhSecret::generate(Group::test512(), rand_bytes);
        let body = Sexp::tagged(
            "mac-request",
            vec![Sexp::tagged(
                "dh",
                vec![Sexp::atom(dh.public.to_bytes_be())],
            )],
        )
        .canonical();
        (body, dh)
    }

    /// Completes establishment from the server's grant body.
    pub fn from_grant(
        grant_body: &[u8],
        dh: &DhSecret,
        validity: Validity,
    ) -> Result<ClientMacSession, String> {
        let grant = Sexp::parse(grant_body).map_err(|e| format!("bad mac-grant: {e}"))?;
        if grant.tag_name() != Some("mac-grant") {
            return Err("expected (mac-grant …)".into());
        }
        let server_share = grant
            .find_value("dh")
            .and_then(Sexp::as_atom)
            .ok_or("mac-grant missing dh")?;
        let enc = grant
            .find_value("enc")
            .and_then(Sexp::as_atom)
            .ok_or("mac-grant missing enc")?;
        let mac_id = HashVal::from_sexp(
            grant
                .find_value("mac-id")
                .ok_or("mac-grant missing mac-id")?,
        )
        .map_err(|e| format!("bad mac-id: {e}"))?;

        let shared = dh
            .agree(&Ubig::from_bytes_be(server_share))
            .ok_or("invalid server DH share")?;
        let wrap_key = derive_key(&shared, b"sf-mac-wrap");
        let mut secret_bytes = enc.to_vec();
        ChaCha20::new(&wrap_key, &[0u8; 12]).apply(&mut secret_bytes);
        let secret: [u8; 32] = secret_bytes
            .try_into()
            .map_err(|_| "wrapped secret has wrong length")?;
        // Integrity check: the id must be the hash of the secret.
        if HashVal::of(&secret) != mac_id {
            return Err("mac-id does not match unwrapped secret".into());
        }
        Ok(ClientMacSession {
            mac_id,
            secret,
            validity,
        })
    }

    /// Computes the `Sf-Mac` header value for a request hash.
    pub fn authenticate(&self, request_hash: &HashVal) -> String {
        b64_encode(&hmac_sha256(&self.secret, &request_hash.bytes))
    }

    /// The `Sf-Mac-Id` header value.
    pub fn id_header(&self) -> String {
        self.mac_id.to_sexp().transport()
    }
}

/// Decodes an `Sf-Mac` header back to MAC bytes.
pub fn decode_mac_header(value: &str) -> Option<Vec<u8>> {
    b64_decode(value.as_bytes())
}

/// Decodes an `Sf-Mac-Id` header back to a hash.
pub fn decode_mac_id_header(value: &str) -> Option<HashVal> {
    let sexp = Sexp::parse(value.as_bytes()).ok()?;
    HashVal::from_sexp(&sexp).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_crypto::DetRng;

    fn det(seed: &str) -> impl FnMut(&mut [u8]) {
        let mut r = DetRng::new(seed.as_bytes());
        move |b: &mut [u8]| r.fill(b)
    }

    fn proven() -> (Delegation, Proof) {
        let d = Delegation {
            subject: Principal::message(b"establishment request"),
            issuer: Principal::message(b"service issuer"),
            tag: Tag::named("web", vec![Tag::named("method", vec![Tag::atom("GET")])]),
            validity: Validity::until(Time(1_000)),
            delegable: false,
        };
        (
            d.clone(),
            Proof::Assumption {
                stmt: d,
                authority: "test".into(),
            },
        )
    }

    #[test]
    fn establish_and_verify() {
        let store = MacSessionStore::new();
        let mut crng = det("client");
        let mut srng = det("server");
        let (body, dh) = ClientMacSession::request_body(&mut crng);
        let (grant, proof) = proven();
        let reply = store.establish(store.epoch(), &body, grant, proof, Time(0), &mut srng).unwrap();
        let session =
            ClientMacSession::from_grant(&reply, &dh, Validity::until(Time(1_000))).unwrap();
        assert_eq!(store.len(), 1);

        let req_hash = HashVal::of(b"GET /inbox");
        let mac = session.authenticate(&req_hash);
        let mac_bytes = decode_mac_header(&mac).unwrap();
        let (speaker, grant) = store
            .verify(
                &session.mac_id,
                &mac_bytes,
                &req_hash,
                &Tag::named("web", vec![Tag::named("method", vec![Tag::atom("GET")])]),
                Time(500),
            )
            .unwrap();
        assert_eq!(speaker, Principal::Mac(session.mac_id.clone()));
        assert_eq!(grant.subject, speaker);
        // The audit trail is available.
        assert!(store.audit(&session.mac_id, Time(500)).is_some());
    }

    #[test]
    fn wrong_mac_rejected() {
        let store = MacSessionStore::new();
        let mut crng = det("c2");
        let mut srng = det("s2");
        let (body, dh) = ClientMacSession::request_body(&mut crng);
        let (grant, proof) = proven();
        let reply = store.establish(store.epoch(), &body, grant, proof, Time(0), &mut srng).unwrap();
        let session = ClientMacSession::from_grant(&reply, &dh, Validity::always()).unwrap();

        let h1 = HashVal::of(b"request one");
        let h2 = HashVal::of(b"request two");
        let mac_for_h1 = decode_mac_header(&session.authenticate(&h1)).unwrap();
        // MAC for h1 presented with h2: rejected.
        assert!(store
            .verify(&session.mac_id, &mac_for_h1, &h2, &Tag::Star, Time(0))
            .is_err());
        // Unknown session id.
        assert!(store
            .verify(
                &HashVal::of(b"ghost"),
                &mac_for_h1,
                &h1,
                &Tag::Star,
                Time(0)
            )
            .is_err());
    }

    #[test]
    fn mac_session_respects_tag_and_expiry() {
        let store = MacSessionStore::new();
        let mut crng = det("c3");
        let mut srng = det("s3");
        let (body, dh) = ClientMacSession::request_body(&mut crng);
        let (grant, proof) = proven(); // grants only (web (method GET)), until t=1000
        let reply = store.establish(store.epoch(), &body, grant, proof, Time(0), &mut srng).unwrap();
        let session =
            ClientMacSession::from_grant(&reply, &dh, Validity::until(Time(1_000))).unwrap();

        let h = HashVal::of(b"r");
        let mac = decode_mac_header(&session.authenticate(&h)).unwrap();
        // Outside the granted tag.
        let post = Tag::named("web", vec![Tag::named("method", vec![Tag::atom("POST")])]);
        assert!(store
            .verify(&session.mac_id, &mac, &h, &post, Time(500))
            .is_err());
        // In-window, in-tag.
        let get = Tag::named("web", vec![Tag::named("method", vec![Tag::atom("GET")])]);
        assert!(store
            .verify(&session.mac_id, &mac, &h, &get, Time(500))
            .is_ok());
        // Expired (checked last: a read past the window drops the session).
        assert!(store
            .verify(&session.mac_id, &mac, &h, &get, Time(2_000))
            .is_err());
        assert!(store.is_empty());
    }

    fn proven_until(t: Time) -> (Delegation, Proof) {
        let d = Delegation {
            subject: Principal::message(b"establishment request"),
            issuer: Principal::message(b"service issuer"),
            tag: Tag::Star,
            validity: Validity::until(t),
            delegable: false,
        };
        (
            d.clone(),
            Proof::Assumption {
                stmt: d,
                authority: "test".into(),
            },
        )
    }

    /// Expired sessions are reclaimed by the explicit sweep — a
    /// long-running server must not leak one entry per establishment.
    #[test]
    fn evict_expired_reclaims_dead_sessions() {
        let store = MacSessionStore::new();
        let mut srng = det("evict-server");
        for i in 0..8 {
            let mut crng = det(&format!("evict-client-{i}"));
            let (body, _dh) = ClientMacSession::request_body(&mut crng);
            // Half the sessions die at t=100, half live until t=10_000.
            let (grant, proof) = proven_until(Time(if i % 2 == 0 { 100 } else { 10_000 }));
            store
                .establish(store.epoch(), &body, grant, proof, Time(0), &mut srng)
                .unwrap();
        }
        assert_eq!(store.len(), 8);
        // Nothing has expired yet.
        assert_eq!(store.evict_expired(Time(50)), 0);
        assert_eq!(store.len(), 8);
        // The short-lived half is reclaimed.
        assert_eq!(store.evict_expired(Time(500)), 4);
        assert_eq!(store.len(), 4);
        // Eventually everything is.
        assert_eq!(store.evict_expired(Time(20_000)), 4);
        assert!(store.is_empty());
    }

    /// Establishment itself sweeps the shard it lands in, so steady
    /// traffic bounds the store without anyone calling `evict_expired`.
    #[test]
    fn establish_sweeps_expired_sessions() {
        let store = MacSessionStore::new();
        let mut srng = det("sweep-server");
        let mut crng = det("sweep-client-a");
        let (body, _dh) = ClientMacSession::request_body(&mut crng);
        let (grant, proof) = proven_until(Time(100));
        store
            .establish(store.epoch(), &body, grant, proof, Time(0), &mut srng)
            .unwrap();
        assert_eq!(store.len(), 1);

        // Later establishments (past the first session's expiry) replace
        // rather than accumulate: the dead session goes as soon as one of
        // them lands in its shard.
        let mut later = 0;
        while store.len() > later {
            assert!(later < 2_000, "the expired session was never swept");
            let mut crng = det(&format!("sweep-client-b{later}"));
            let (body, _dh) = ClientMacSession::request_body(&mut crng);
            let (grant, proof) = proven_until(Time(10_000));
            store
                .establish(store.epoch(), &body, grant, proof, Time(500), &mut srng)
                .unwrap();
            later += 1;
        }
    }

    /// Verifies on disjoint sessions run concurrently from many threads.
    #[test]
    fn concurrent_verify_across_shards() {
        let store = std::sync::Arc::new(MacSessionStore::new());
        let mut srng = det("shard-server");
        let mut sessions = Vec::new();
        for i in 0..32 {
            let mut crng = det(&format!("shard-client-{i}"));
            let (body, dh) = ClientMacSession::request_body(&mut crng);
            let (grant, proof) = proven_until(Time(1_000_000));
            let reply = store
                .establish(store.epoch(), &body, grant, proof, Time(0), &mut srng)
                .unwrap();
            sessions
                .push(ClientMacSession::from_grant(&reply, &dh, Validity::always()).unwrap());
        }
        let threads: Vec<_> = sessions
            .chunks(8)
            .map(|chunk| {
                let store = std::sync::Arc::clone(&store);
                let chunk: Vec<ClientMacSession> = chunk.to_vec();
                std::thread::spawn(move || {
                    for s in &chunk {
                        for r in 0..16u32 {
                            let h = HashVal::of(&r.to_be_bytes());
                            let mac = decode_mac_header(&s.authenticate(&h)).unwrap();
                            store
                                .verify(&s.mac_id, &mac, &h, &Tag::Star, Time(500))
                                .expect("verify under contention");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// An establishment whose proof was verified before a revocation push
    /// landed must be refused: the epoch handshake closes the
    /// verify-then-insert window that eviction alone cannot see.
    #[test]
    fn establishment_refused_when_revocation_raced_verification() {
        let store = MacSessionStore::new();
        let mut srng = det("race-server");

        // Caller reads the epoch, verifies the proof… and a push lands.
        let epoch = store.epoch();
        store.evict_by_cert(&HashVal::of(b"some revoked cert"));

        let mut crng = det("race-client");
        let (body, _dh) = ClientMacSession::request_body(&mut crng);
        let (grant, proof) = proven();
        let refused = store.establish(epoch, &body, grant, proof, Time(0), &mut srng);
        assert!(refused.is_err(), "stale-epoch establishment must refuse");
        assert!(store.is_empty());

        // Re-verifying (reading the fresh epoch) succeeds.
        let epoch = store.epoch();
        let mut crng = det("race-client-2");
        let (body, _dh) = ClientMacSession::request_body(&mut crng);
        let (grant, proof) = proven();
        store
            .establish(epoch, &body, grant, proof, Time(0), &mut srng)
            .unwrap();
        assert_eq!(store.len(), 1);
    }

    /// Sessions record the certificates their establishment chain used,
    /// and revoking one evicts exactly the dependent sessions.
    #[test]
    fn evict_by_cert_targets_dependent_sessions() {
        use snowflake_crypto::{Group, KeyPair};

        let store = MacSessionStore::new();
        let mut srng = det("cert-evict-server");
        let mut krng = det("cert-evict-key");
        let owner = KeyPair::generate(Group::test512(), &mut krng);

        // Session A: established through a signed-certificate chain.
        let delegation = Delegation {
            subject: Principal::message(b"establishment A"),
            issuer: Principal::key(&owner.public),
            tag: Tag::Star,
            validity: Validity::until(Time(10_000)),
            delegable: false,
        };
        let cert = snowflake_core::Certificate::issue(&owner, delegation.clone(), &mut krng);
        let cert_hash = cert.hash();
        let mut crng = det("cert-evict-client-a");
        let (body, _dh) = ClientMacSession::request_body(&mut crng);
        store
            .establish(store.epoch(), &body,
                delegation,
                Proof::signed_cert(cert),
                Time(0),
                &mut srng,
            )
            .unwrap();

        // Session B: established through an assumption (no certificates).
        let (grant, proof) = proven();
        let mut crng = det("cert-evict-client-b");
        let (body, dh_b) = ClientMacSession::request_body(&mut crng);
        let reply = store.establish(store.epoch(), &body, grant, proof, Time(0), &mut srng).unwrap();
        let session_b = ClientMacSession::from_grant(&reply, &dh_b, Validity::always()).unwrap();

        assert_eq!(store.len(), 2);
        // Revoking an unrelated certificate evicts nothing.
        assert_eq!(store.evict_by_cert(&HashVal::of(b"unrelated")), 0);
        // Revoking the establishment certificate evicts only session A.
        assert_eq!(store.evict_by_cert(&cert_hash), 1);
        assert_eq!(store.len(), 1);
        let h = HashVal::of(b"r");
        let mac = decode_mac_header(&session_b.authenticate(&h)).unwrap();
        assert!(store
            .verify(
                &session_b.mac_id,
                &mac,
                &h,
                &Tag::named("web", vec![Tag::named("method", vec![Tag::atom("GET")])]),
                Time(500)
            )
            .is_ok());
    }

    #[test]
    fn tampered_grant_rejected_by_client() {
        let store = MacSessionStore::new();
        let mut crng = det("c4");
        let mut srng = det("s4");
        let (body, dh) = ClientMacSession::request_body(&mut crng);
        let (grant, proof) = proven();
        let reply = store.establish(store.epoch(), &body, grant, proof, Time(0), &mut srng).unwrap();
        // Flip a byte of the wrapped secret.
        let mut tampered = reply.clone();
        let pos = tampered.len() / 2;
        tampered[pos] ^= 0x40;
        let result = ClientMacSession::from_grant(&tampered, &dh, Validity::always());
        assert!(
            result.is_err(),
            "tampering must be detected via the mac-id hash"
        );
    }
}
