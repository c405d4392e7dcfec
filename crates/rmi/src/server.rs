//! The server side: skeleton dispatch, `check_auth`, and the proof cache.

use snowflake_core::sync::LockExt;
use crate::proto::{Invocation, RmiFault, RmiReply, PROOF_RECIPIENT};
use std::sync::Mutex;
use snowflake_channel::AuthChannel;
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{
    ChannelId, Delegation, HashVal, Principal, Proof, ProvenanceMap, Tag, Time, Validity,
};
use snowflake_crypto::PublicKey;
use snowflake_runtime::Surface;
use snowflake_sexpr::Sexp;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Information about the authenticated caller, passed to implementations.
#[derive(Debug, Clone)]
pub struct CallerInfo {
    /// The principal the request is attributed to (`K₂`, or
    /// `K₂ | quotee` for quoting callers).
    pub speaker: Principal,
    /// The channel the request arrived on.
    pub channel: ChannelId,
}

/// A remote object: issuer, method→restriction mapping, and implementation.
///
/// "The server programmer defines the object server key `K_S` and the
/// mapping from method invocation to restriction set (T) for a server
/// object, then prefixes each Remote method with calls to a generic
/// `checkAuth()`."  Here the framework itself calls `check_auth` before
/// `invoke`, which makes it impossible to leave a method unprotected — the
/// paper's motivation for automating the injection.
pub trait RemoteObject: Send + Sync {
    /// The principal that controls this object (the paper's `K_S`).
    fn issuer(&self) -> Principal;

    /// Maps an invocation to its minimum restriction set `T`.
    ///
    /// The default is the singleton request
    /// `(rmi (object o) (method m))`.
    fn restriction(&self, invocation: &Invocation) -> Tag {
        method_tag(&invocation.object, &invocation.method)
    }

    /// The implementation, called only after authorization succeeded.
    fn invoke(&self, invocation: &Invocation, caller: &CallerInfo) -> Result<Sexp, RmiFault>;
}

/// The standard restriction tag for an RMI method.
pub fn method_tag(object: &str, method: &str) -> Tag {
    Tag::named(
        "rmi",
        vec![
            Tag::named("object", vec![Tag::atom(object)]),
            Tag::named("method", vec![Tag::atom(method)]),
        ],
    )
}

/// Statistics about the server's proof cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofCacheStats {
    /// Cached (verified) proofs held.
    pub proofs: usize,
    /// `check_auth` calls answered from cache.
    pub hits: u64,
    /// `check_auth` calls that faulted for want of proof.
    pub misses: u64,
}

/// One verified proof in a subject's list.
#[derive(Clone)]
struct CachedProof {
    /// The proof's canonical hash: a re-submission replaces, not appends.
    hash: HashVal,
    conclusion: Delegation,
    /// Hashes of the certificates the proof depends on, recorded in grant
    /// audit events.  Shared (`Arc`) so the hot path hands it out without
    /// an allocation inside the cache lock.
    certs: Arc<[HashVal]>,
}

/// Subjects the proof cache remembers (oldest forgotten first), and
/// proofs kept per subject (a client can mint itself endless valid ones).
const PROOF_CACHE_SUBJECTS: usize = 4096;
const PROOFS_PER_SUBJECT: usize = 64;

/// The RMI server: object registry, proof cache, and per-connection loop.
pub struct RmiServer {
    objects: Mutex<HashMap<String, Arc<dyn RemoteObject>>>,
    /// Objects served without authorization (the "basic RMI" baseline of
    /// the paper's Figure 6 measurements).
    open_objects: Mutex<HashMap<String, Arc<dyn RemoteObject>>>,
    /// Verified proofs, one slot per subject principal holding an
    /// immutable list; the slot's provenance is the union over the list,
    /// so a revocation drops the subject's slot and the client re-submits
    /// (the survivors re-verify through the memo).
    cache: ProvenanceMap<Principal, Arc<[CachedProof]>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The `rmi` surface: invocation latency, the memoized verification
    /// context every proof receipt starts from (carries revocation data),
    /// and the emitter every `check_auth` verdict, proof receipt, and
    /// connection shed is recorded through.
    surface: Arc<Surface>,
}

impl RmiServer {
    /// Creates an empty server using wall-clock time.
    pub fn new() -> Arc<RmiServer> {
        Self::with_clock(Time::now)
    }

    /// Creates a server with an injected clock (tests and benches).
    pub fn with_clock(clock: fn() -> Time) -> Arc<RmiServer> {
        Arc::new(RmiServer {
            objects: Mutex::new(HashMap::new()),
            open_objects: Mutex::new(HashMap::new()),
            cache: ProvenanceMap::bounded(PROOF_CACHE_SUBJECTS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            surface: Arc::new(Surface::new("rmi").with_clock(clock)),
        })
    }

    /// The surface this server decides, audits, and measures on (e.g. to
    /// install CRLs or attach a revocation source).
    pub fn surface(&self) -> &Arc<Surface> {
        &self.surface
    }

    /// Attaches an audit emitter recording this server's decisions.
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.surface.set_audit_emitter(emitter);
    }

    /// Registers an object served *without* authorization.
    ///
    /// Exists only to reproduce the paper's "basic RMI" baseline; real
    /// services should use [`RmiServer::register`].
    pub fn register_open(&self, name: &str, object: Arc<dyn RemoteObject>) {
        assert_ne!(name, PROOF_RECIPIENT, "{PROOF_RECIPIENT} is reserved");
        self.open_objects.plock().insert(name.to_string(), object);
    }

    /// Registers a remote object under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` collides with the reserved proof-recipient object.
    pub fn register(&self, name: &str, object: Arc<dyn RemoteObject>) {
        assert_ne!(name, PROOF_RECIPIENT, "{PROOF_RECIPIENT} is reserved");
        self.objects.plock().insert(name.to_string(), object);
    }

    /// Proof-cache statistics.
    pub fn cache_stats(&self) -> ProofCacheStats {
        ProofCacheStats {
            proofs: self.cache.collect(|_, list| Some(list.len())).iter().sum(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Registers scrape-time callbacks exposing [`ProofCacheStats`]
    /// under `sf_rmi_*` (collector id `"rmi"`) plus the server's
    /// verified-chain memo under `sf_chain_memo_*{surface="rmi"}` — the
    /// same counters [`cache_stats`](Self::cache_stats) and the surface's
    /// memo read.
    pub fn register_metrics(self: &Arc<Self>, registry: &snowflake_metrics::Registry) {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_rmi_proof_cache_hits_total",
            "check_auth calls answered from the verified-proof cache",
        );
        let server = Arc::downgrade(self);
        registry.register_collector(
            "rmi",
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(server) = server.upgrade() else { return };
                let s = server.cache_stats();
                out.push(Sample::gauge("sf_rmi_proof_cache_entries", &[], s.proofs as f64));
                out.push(Sample::counter("sf_rmi_proof_cache_hits_total", &[], s.hits));
                out.push(Sample::counter("sf_rmi_proof_cache_misses_total", &[], s.misses));
            }),
        );
        self.surface.register_metrics(registry);
    }

    /// Drops all cached proofs (benchmarks use this to force re-submission).
    pub fn forget_proofs(&self) {
        self.cache.clear();
    }

    /// Drops every subject's cached proofs when one of them depended on
    /// the certificate with this hash, returning how many proofs were
    /// evicted.  After a revocation push the `check_auth` fast path faults
    /// again, forcing those clients to re-prove — which the verifier then
    /// rejects against the fresh CRL.  Unrelated subjects keep answering;
    /// no flush, no restart.
    pub fn invalidate_cert(&self, cert_hash: &HashVal) -> usize {
        let evicted: usize = self
            .cache
            .evict_cert(cert_hash)
            .iter()
            .map(|(_, list, _)| list.len())
            .sum();
        evicted + self.surface.chain_memo().evict_cert(cert_hash)
    }

    /// Serves one connection until the peer closes it.
    ///
    /// Each received frame is one invocation; each reply is one frame.
    pub fn serve_connection(self: &Arc<Self>, channel: &mut dyn AuthChannel) -> io::Result<()> {
        loop {
            let frame = match channel.recv() {
                Ok(f) => f,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                Err(e) => return Err(e),
            };
            let reply = self.handle_frame(&frame, channel);
            channel.send(&reply.to_sexp().canonical())?;
        }
    }

    /// Serves RMI over TCP through the connection reactor.
    ///
    /// The accept path is split to match where the cost is: the
    /// secure-channel handshake (public-key work, blocking reads) runs as
    /// one offloaded job on a pooled worker, and then the socket — with
    /// its established [`RecordCrypto`](snowflake_channel::RecordCrypto) — is adopted by the reactor,
    /// which parks it between invocations.  An idle authenticated peer
    /// costs a few kilobytes of reactor state instead of a worker, so the
    /// worker budget bounds *concurrent invocations*, not open sessions.
    ///
    /// Sheds stay on one ledger: a saturated pool at invocation time
    /// sends a sealed [`RmiFault::Busy`] (counted by the pool), while
    /// reactor-level refusals (parked cap, drain) are counted per-surface
    /// in the runtime's shed ledger, and the reactor audits every shed
    /// through the `rmi` surface.
    ///
    /// The returned handle [`waits`](snowflake_runtime::ListenerHandle::wait)
    /// until shutdown drains the listener.
    pub fn serve_reactor(
        self: &Arc<Self>,
        listener: std::net::TcpListener,
        runtime: &Arc<snowflake_runtime::ServerRuntime>,
        key: snowflake_crypto::KeyPair,
        session_cache: Option<snowflake_channel::SessionCache>,
    ) -> io::Result<snowflake_runtime::ListenerHandle> {
        use snowflake_channel::{SecureChannel, TcpTransport};
        use snowflake_runtime::Accepted;

        let server = Arc::clone(self);
        runtime.reactor().register_listener(
            listener,
            Arc::clone(&self.surface),
            Box::new(move || {
                let server = Arc::clone(&server);
                let key = key.clone();
                let cache = session_cache.clone();
                Accepted::Offload(Box::new(move |stream, reactor, surface| {
                    // The handshake needs blocking reads; run it over a
                    // dup'd fd so the original can be handed (nonblocking)
                    // to the reactor afterwards.  The read timeout bounds
                    // how long a stalled handshake pins this worker; it is
                    // moot once the socket goes nonblocking under epoll.
                    let handshaken = stream.try_clone().and_then(|dup| {
                        let transport = TcpTransport::new(dup);
                        let _ = transport
                            .set_read_timeout(Some(std::time::Duration::from_secs(10)));
                        SecureChannel::server(
                            Box::new(transport),
                            &key,
                            cache.as_ref(),
                            &mut snowflake_crypto::rand_bytes,
                        )
                    });
                    match handshaken {
                        Ok(channel) => {
                            let parts = channel.into_parts();
                            drop(parts.transport); // the dup; the reactor keeps `stream`
                            let driver = RmiConnDriver {
                                server,
                                crypto: parts.crypto,
                                identity: IdentityChannel {
                                    id: parts.channel_id,
                                    peer: parts.peer_key,
                                    binding: parts.peer_binding,
                                },
                            };
                            // A refusal here (drain, parked cap) is shed,
                            // audited, and counted by `adopt` itself.
                            let _ = reactor.adopt(stream, surface, Box::new(driver));
                        }
                        Err(_) => {
                            // Handshake failure is the peer's problem, not
                            // load: drop the connection without a shed.
                        }
                    }
                }))
            }),
        )
    }

    /// Handles a single raw frame (exposed for benchmarks that drive the
    /// server without threads).
    pub fn handle_frame(self: &Arc<Self>, frame: &[u8], channel: &dyn AuthChannel) -> RmiReply {
        let sexp = match Sexp::parse(frame) {
            Ok(s) => s,
            Err(e) => return RmiReply::Fault(RmiFault::Application(format!("parse: {e}"))),
        };
        let invocation = match Invocation::from_sexp(&sexp) {
            Ok(i) => i,
            Err(e) => return RmiReply::Fault(RmiFault::Application(format!("decode: {e}"))),
        };
        self.dispatch(&invocation, channel)
    }

    /// Dispatches a decoded invocation.
    pub fn dispatch(
        self: &Arc<Self>,
        invocation: &Invocation,
        channel: &dyn AuthChannel,
    ) -> RmiReply {
        let _timer = self.surface.latency().start_timer();
        if invocation.object == PROOF_RECIPIENT {
            return self.receive_proof(invocation, channel);
        }
        // Unprotected baseline objects bypass check_auth entirely.
        if let Some(object) = self.open_objects.plock().get(&invocation.object).cloned() {
            let caller = CallerInfo {
                speaker: Principal::Channel(channel.channel_id()),
                channel: channel.channel_id(),
            };
            return match object.invoke(invocation, &caller) {
                Ok(v) => RmiReply::Return(v),
                Err(f) => RmiReply::Fault(f),
            };
        }
        let Some(object) = self.objects.plock().get(&invocation.object).cloned() else {
            return RmiReply::Fault(RmiFault::NoSuchObject(invocation.object.clone()));
        };

        // The speaker: K₂ from the channel, wrapped in a Quoting principal
        // when the caller claims to quote someone (paper §4.2).
        let Some(peer) = channel.peer_key() else {
            self.surface.audit(|| {
                DecisionEvent::new(
                    self.surface.now(),
                    "rmi",
                    Decision::Deny,
                    &invocation.object,
                    &invocation.method,
                    "need-authorization: unauthenticated channel",
                )
                .with_epoch(self.surface.revocation_epoch())
            });
            return RmiReply::Fault(RmiFault::NeedAuthorization {
                issuer: object.issuer(),
                tag: object.restriction(invocation),
            });
        };
        let speaker = match &invocation.quoting {
            None => Principal::key(peer),
            Some(q) => Principal::quoting(Principal::key(peer), q.clone()),
        };

        // check_auth(): find a cached, already-verified proof for this
        // subject whose conclusion covers the request — the fast path
        // measured in Figure 6.
        let tag = object.restriction(invocation);
        let now = self.surface.now();
        let Some(certs) = self.check_auth(&speaker, &object.issuer(), &tag, now) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.surface.audit(|| {
                DecisionEvent::new(
                    now,
                    "rmi",
                    Decision::Deny,
                    &invocation.object,
                    &invocation.method,
                    "need-authorization: no covering proof",
                )
                .with_subject(speaker.clone())
                .with_epoch(self.surface.revocation_epoch())
            });
            return RmiReply::Fault(RmiFault::NeedAuthorization {
                issuer: object.issuer(),
                tag,
            });
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.surface.audit(|| {
            DecisionEvent::new(
                now,
                "rmi",
                Decision::Grant,
                &invocation.object,
                &invocation.method,
                "proof-cache",
            )
            .with_subject(speaker.clone())
            .with_certs(certs.to_vec())
            .with_epoch(self.surface.revocation_epoch())
        });

        let caller = CallerInfo {
            speaker,
            channel: channel.channel_id(),
        };
        match object.invoke(invocation, &caller) {
            Ok(v) => RmiReply::Return(v),
            Err(f) => RmiReply::Fault(f),
        }
    }

    /// Finds a cached, verified proof covering the request; the returned
    /// certificate hashes are the matched proof's provenance, recorded in
    /// the grant's audit event (an `Arc` clone, so the Figure 6 hot path
    /// allocates nothing under the cache lock).
    fn check_auth(
        &self,
        speaker: &Principal,
        issuer: &Principal,
        tag: &Tag,
        now: Time,
    ) -> Option<Arc<[HashVal]>> {
        self.cache
            .get(speaker, now, |list, _| {
                list.iter()
                    .find(|e| {
                        e.conclusion.issuer == *issuer
                            && e.conclusion.tag.permits(tag)
                            && e.conclusion.validity.contains(now)
                    })
                    .map(|e| Arc::clone(&e.certs))
            })
            .flatten()
    }

    /// The proof-recipient object: verifies a submitted proof against this
    /// connection's channel bindings and caches it by subject.
    fn receive_proof(
        self: &Arc<Self>,
        invocation: &Invocation,
        channel: &dyn AuthChannel,
    ) -> RmiReply {
        let Some(proof_sexp) = invocation.args.first() else {
            return RmiReply::Fault(RmiFault::Application("missing proof argument".into()));
        };
        let proof = match Proof::from_sexp(proof_sexp) {
            Ok(p) => p,
            Err(e) => return RmiReply::Fault(RmiFault::Application(format!("bad proof: {e}"))),
        };

        // Read before verifying: a revocation push landing mid-verification
        // then refuses the cache insert below.
        let token = self.cache.epoch();
        // Build this connection's verification context: base (revocation
        // data) + the channel binding this endpoint itself witnessed.
        let mut ctx = self.surface.verify_ctx(self.surface.now());
        if let Some(binding) = channel.peer_binding() {
            ctx.assume(&binding);
        }

        if let Err(e) = ctx.verify_cached(&proof) {
            self.surface.audit(|| {
                DecisionEvent::new(
                    ctx.now,
                    "rmi",
                    Decision::Deny,
                    PROOF_RECIPIENT,
                    "receive-proof",
                    &format!("proof rejected: {e}"),
                )
                .with_subject(proof.conclusion().subject)
                .with_certs(proof.cert_hashes())
                .with_epoch(ctx.revocation_epoch())
            });
            return RmiReply::Fault(RmiFault::NotAuthorized(format!("proof rejected: {e}")));
        }
        let conclusion = proof.conclusion();
        let certs = proof.cert_hashes();
        self.surface.audit(|| {
            DecisionEvent::new(
                ctx.now,
                "rmi",
                Decision::Grant,
                PROOF_RECIPIENT,
                "receive-proof",
                "proof verified and digested",
            )
            .with_subject(conclusion.subject.clone())
            .with_certs(certs.clone())
            .with_epoch(ctx.revocation_epoch())
        });
        // A refused insert (a push landed during verification: the verdict
        // used pre-revocation state) means the next `check_auth` faults and
        // the client must re-prove against the fresh CRL.
        let now = ctx.now;
        let fresh = CachedProof {
            hash: proof.hash(),
            conclusion,
            certs: certs.into(),
        };
        self.cache.upsert(token, fresh.conclusion.subject.clone(), now, |old| {
            // The subject's list without expired proofs and without an
            // earlier submission of this one; newest last, oldest dropped
            // past the per-subject bound.
            let mut list: Vec<CachedProof> = old
                .map_or(&[][..], |l| &l[..])
                .iter()
                .filter(|e| e.hash != fresh.hash)
                .filter(|e| e.conclusion.validity.not_after.is_none_or(|t| t >= now))
                .cloned()
                .collect();
            list.push(fresh);
            let excess = list.len().saturating_sub(PROOFS_PER_SUBJECT);
            list.drain(..excess);
            let mut union: Vec<HashVal> =
                list.iter().flat_map(|e| e.certs.iter().cloned()).collect();
            union.sort_unstable();
            union.dedup();
            // The slot dies with its longest-lived proof: never (`None`)
            // when any of them is open-ended.
            let not_after = list
                .iter()
                .map(|e| e.conclusion.validity.not_after)
                .try_fold(Time(0), |latest, t| t.map(|t| latest.max(t)));
            (list.into(), union.into(), not_after)
        });
        RmiReply::Return(Sexp::from("ok"))
    }
}

/// The identity facts of an established channel, detached from any
/// transport.
///
/// Under the reactor the socket bytes never pass through an
/// [`AuthChannel`]: the reactor owns I/O and the driver owns the record
/// crypto.  What [`RmiServer::dispatch`] still consumes from its channel
/// argument is only *who the peer is* — channel id, peer key, and the
/// `K_CH ⇒ K_peer` binding — which this adapter carries.  Its `send` and
/// `recv` are unreachable by construction and error out if called.
struct IdentityChannel {
    id: ChannelId,
    peer: Option<PublicKey>,
    binding: Option<Delegation>,
}

impl AuthChannel for IdentityChannel {
    fn send(&mut self, _msg: &[u8]) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "identity-only channel: the reactor owns the socket",
        ))
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "identity-only channel: the reactor owns the socket",
        ))
    }
    fn channel_id(&self) -> ChannelId {
        self.id.clone()
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        self.peer.as_ref()
    }
    fn peer_binding(&self) -> Option<Delegation> {
        self.binding.clone()
    }
}

/// Per-connection state the reactor keeps for an RMI session: the record
/// crypto from the handshake plus the peer's identity.  One frame is one
/// sealed invocation; one reply is one sealed record, and the connection
/// parks between them.
struct RmiConnDriver {
    server: Arc<RmiServer>,
    crypto: snowflake_channel::RecordCrypto,
    identity: IdentityChannel,
}

/// Wraps a sealed record in the `TcpTransport` wire format (4-byte
/// big-endian length prefix).
fn prefixed(record: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + record.len());
    out.extend_from_slice(&(record.len() as u32).to_be_bytes());
    out.extend_from_slice(record);
    out
}

impl snowflake_runtime::ConnDriver for RmiConnDriver {
    fn scan(&mut self, buf: &[u8]) -> snowflake_runtime::FrameScan {
        use snowflake_runtime::FrameScan;
        if buf.len() < 4 {
            return FrameScan::Partial;
        }
        let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len > snowflake_channel::transport::MAX_FRAME {
            return FrameScan::Invalid("frame exceeds MAX_FRAME");
        }
        if buf.len() < 4 + len {
            FrameScan::Partial
        } else {
            FrameScan::Complete(4 + len)
        }
    }

    fn handle(&mut self, frame: Vec<u8>) -> snowflake_runtime::ReadyOutcome {
        use snowflake_runtime::ReadyOutcome;
        // A record that fails to authenticate means the stream is corrupt
        // or hostile; there is no honest reply to give on it.
        let plaintext = match self.crypto.open(&frame[4..]) {
            Ok(p) => p,
            Err(_) => return ReadyOutcome::Close,
        };
        let reply = self.server.handle_frame(&plaintext, &self.identity);
        let sealed = self.crypto.seal(&reply.to_sexp().canonical());
        ReadyOutcome::Reply(prefixed(&sealed))
    }

    fn busy_reply(&mut self) -> Option<Vec<u8>> {
        let reply = RmiReply::Fault(RmiFault::Busy("worker pool saturated".into()));
        let sealed = self.crypto.seal(&reply.to_sexp().canonical());
        Some(prefixed(&sealed))
    }
}

/// A trivial remote object for tests and benchmarks: returns the contents
/// of named in-memory files (the paper's Figure 6 test operation is "a
/// Remote object that returns the contents of a file").
pub struct FileObject {
    issuer: Principal,
    files: HashMap<String, Vec<u8>>,
}

impl FileObject {
    /// Creates a file object controlled by `issuer` serving `files`.
    pub fn new(issuer: Principal, files: HashMap<String, Vec<u8>>) -> FileObject {
        FileObject { issuer, files }
    }
}

impl RemoteObject for FileObject {
    fn issuer(&self) -> Principal {
        self.issuer.clone()
    }

    fn invoke(&self, invocation: &Invocation, _caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        match invocation.method.as_str() {
            "read" => {
                let name = invocation
                    .args
                    .first()
                    .and_then(Sexp::as_str)
                    .ok_or_else(|| RmiFault::Application("read needs a file name".into()))?;
                match self.files.get(name) {
                    Some(data) => Ok(Sexp::atom(data.clone())),
                    None => Err(RmiFault::Application(format!("no such file {name}"))),
                }
            }
            other => Err(RmiFault::NoSuchMethod(other.into())),
        }
    }
}

/// Helper: the default validity window for channel delegations issued by
/// clients (kept short; it covers a session, not a lifetime).
pub fn session_validity(now: Time) -> Validity {
    Validity::until(now.plus(3600))
}

/// Re-exported convenience: the speaker principal the server will derive for
/// a connection (used by clients to phrase delegations).
pub fn speaker_for(peer: &PublicKey, quoting: Option<&Principal>) -> Principal {
    match quoting {
        None => Principal::key(peer),
        Some(q) => Principal::quoting(Principal::key(peer), q.clone()),
    }
}
