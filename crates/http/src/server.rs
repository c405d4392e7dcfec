//! HTTP server, the `ProtectedServlet`, and server document authentication.
//!
//! "We implement the server side of the signed-requests protocol as an
//! abstract Java Servlet `ProtectedServlet`.  Concrete implementations
//! extend `ProtectedServlet` with a method that maps a request to an issuer
//! that controls the requested resource and to the minimum restriction set
//! required to authorize the request" (§5.3.4).
//!
//! "Notice that the server identifies only a single principal that controls
//! the resource, not an ACL … the client is responsible to know and exploit
//! its group memberships as represented in delegations."

use snowflake_core::sync::LockExt;
use crate::auth;
use crate::mac::{MacSessionStore, MAC_SESSION_PATH};
use crate::message::{HttpRequest, HttpResponse};
use std::sync::Mutex;
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{
    Certificate, Delegation, HashAlg, HashVal, Principal, Proof, ProvenanceMap, Tag, Time,
    Validity, VerifyCtx,
};
use snowflake_crypto::KeyPair;
use snowflake_runtime::{Surface, CHAIN_MEMO_CAPACITY};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A route target.
pub trait Handler: Send + Sync {
    /// Produces a response for a request.
    fn handle(&self, req: &HttpRequest) -> HttpResponse;
}

impl<F> Handler for F
where
    F: Fn(&HttpRequest) -> HttpResponse + Send + Sync,
{
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self(req)
    }
}

/// A small routing HTTP server (the "framework" tier of the Figure 7
/// baselines; the minimal tier is in `snowflake-bench`).
pub struct HttpServer {
    routes: Mutex<Vec<(String, Arc<dyn Handler>)>>,
    /// The surface this server sheds, audits, and measures under
    /// (`"http"` for application servers; the `/metrics` exporter runs a
    /// dedicated server under `"metrics"`).  Servlet-level grant/deny
    /// decisions are made on the servlets' own surfaces.
    surface: Arc<Surface>,
}

impl HttpServer {
    /// Creates an empty server.
    pub fn new() -> Arc<HttpServer> {
        Self::with_clock(Time::now)
    }

    /// Creates an empty server with an injected clock for its audit
    /// events (tests and benches).
    pub fn with_clock(clock: fn() -> Time) -> Arc<HttpServer> {
        Self::with_surface("http", clock)
    }

    /// Creates an empty server shedding, auditing, and measuring under a
    /// dedicated surface name instead of `"http"` (the `/metrics`
    /// exporter rides the reactor under `"metrics"` this way).
    pub fn with_surface(name: &str, clock: fn() -> Time) -> Arc<HttpServer> {
        let surface = Surface::new(name).with_clock(clock).with_shed_reply(|detail| {
            let detail = if detail == "worker pool saturated" {
                "server busy"
            } else {
                detail
            };
            Self::response_bytes(&Self::overloaded_response(detail))
        });
        Arc::new(HttpServer {
            routes: Mutex::new(Vec::new()),
            surface: Arc::new(surface),
        })
    }

    /// The surface this server sheds, audits, and measures under.
    pub fn surface(&self) -> &Arc<Surface> {
        &self.surface
    }

    /// Attaches an audit emitter; reactor sheds are recorded through it
    /// (`surface: http`, `decision: shed`).
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.surface.set_audit_emitter(emitter);
    }

    /// Mounts a handler at a path prefix (longest prefix wins).
    pub fn route(&self, prefix: &str, handler: Arc<dyn Handler>) {
        let mut routes = self.routes.plock();
        routes.push((prefix.to_string(), handler));
        routes.sort_by(|a, b| b.0.len().cmp(&a.0.len()));
    }

    /// Is a handler already mounted at exactly this prefix?
    pub fn has_route(&self, prefix: &str) -> bool {
        self.routes.plock().iter().any(|(p, _)| p == prefix)
    }

    /// Produces the response for one request (no I/O).
    pub fn respond(&self, req: &HttpRequest) -> HttpResponse {
        let _timer = self.surface.latency().start_timer();
        // Resolve the handler and release the routes lock before dispatch:
        // handlers may be slow (gateway RMI round-trips) or panic, and
        // neither should stall or poison routing for other connections.
        let handler = {
            let routes = self.routes.plock();
            routes
                .iter()
                .find(|(prefix, _)| req.path.starts_with(prefix.as_str()))
                .map(|(_, h)| Arc::clone(h))
        };
        match handler {
            Some(h) => h.handle(req),
            None => HttpResponse::not_found(),
        }
    }

    /// Serves one connection (possibly multiple keep-alive requests).
    pub fn serve_stream<S: Read + Write>(&self, stream: &mut S) -> std::io::Result<()> {
        loop {
            let req = {
                let mut reader = BufReader::new(&mut *stream);
                match HttpRequest::read_from(&mut reader)? {
                    Some(r) => r,
                    None => return Ok(()),
                }
            };
            let keep = req.keep_alive();
            let mut resp = self.respond(&req);
            if keep {
                resp.set_header("Connection", "keep-alive");
            }
            resp.write_to(stream)?;
            if !keep {
                return Ok(());
            }
        }
    }

    /// Idle disconnect for reactor-parked TCP connections: a client that
    /// opens a connection and sends nothing (or parks a keep-alive
    /// session forever) is reaped by the reactor's timer wheel after
    /// this long without completing a request.
    pub const TCP_IDLE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

    /// The 503 a shed connection hears before the server hangs up.
    fn overloaded_response(detail: &str) -> HttpResponse {
        let mut resp = HttpResponse::status(503, "Service Unavailable", detail);
        resp.set_header("Retry-After", "1");
        resp.set_header("Connection", "close");
        resp
    }

    fn response_bytes(resp: &HttpResponse) -> Vec<u8> {
        let mut bytes = Vec::new();
        resp.write_to(&mut bytes).expect("serialize to Vec");
        bytes
    }

    /// Registers the listener on the runtime's connection reactor and
    /// returns without blocking.  The reactor owns the listener and
    /// every connection from here on:
    ///
    /// * keep-alive connections **park in the reactor** between
    ///   requests — they hold no worker, just their buffers;
    /// * a complete request frame is handed to the bounded pool via
    ///   `try_permit`; saturation sheds that one request with a `503`
    ///   (counted in the pool's drop counter and audited), the
    ///   connection closes after the reply;
    /// * reactor-level refusals (parked-connection cap, accepts during
    ///   drain) are answered with a `503`, audited, and counted in the
    ///   runtime's [shed ledger](snowflake_runtime::ShedLedger);
    /// * connections idle past the reactor's configured timeout are
    ///   reaped by its timer wheel;
    /// * shutdown drains: parked connections close, in-flight requests
    ///   complete and flush, then the listener closes.
    pub fn attach_to_reactor(
        self: &Arc<Self>,
        listener: TcpListener,
        runtime: &Arc<snowflake_runtime::ServerRuntime>,
    ) -> std::io::Result<snowflake_runtime::ListenerHandle> {
        let server = Arc::clone(self);
        runtime.reactor().register_listener(
            listener,
            Arc::clone(&self.surface),
            Box::new(move || {
                Box::new(HttpConnDriver {
                    server: Arc::clone(&server),
                })
            }),
        )
    }

    /// Serves HTTP on `listener` via the runtime's connection reactor,
    /// blocking until the runtime shuts down and the reactor closes the
    /// listener — the production accept path.  See
    /// [`attach_to_reactor`](Self::attach_to_reactor) for the admission
    /// and drain semantics.
    pub fn serve_tcp(
        self: &Arc<Self>,
        listener: TcpListener,
        runtime: &Arc<snowflake_runtime::ServerRuntime>,
    ) -> std::io::Result<()> {
        let handle = self.attach_to_reactor(listener, runtime)?;
        handle.wait();
        Ok(())
    }
}

/// Scans buffered bytes for one complete HTTP/1.0 request frame:
/// header section terminated by `\r\n\r\n`, plus `Content-Length` body
/// bytes.  Enforces the same size caps as the blocking parser so a
/// hostile client cannot balloon the reactor's buffers.
fn scan_http_frame(buf: &[u8]) -> snowflake_runtime::FrameScan {
    use snowflake_runtime::FrameScan;
    let header_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let Some(pos) = header_end else {
        return if buf.len() > crate::message::MAX_HEADER_BYTES {
            FrameScan::Invalid("header section too large")
        } else {
            FrameScan::Partial
        };
    };
    if pos > crate::message::MAX_HEADER_BYTES {
        return FrameScan::Invalid("header section too large");
    }
    let mut content_length: usize = 0;
    for line in buf[..pos].split(|&b| b == b'\n') {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        let name = &line[..colon];
        if name.eq_ignore_ascii_case(b"content-length") {
            let value = String::from_utf8_lossy(&line[colon + 1..]);
            match value.trim().parse() {
                Ok(n) => content_length = n,
                Err(_) => return FrameScan::Invalid("malformed Content-Length"),
            }
        }
    }
    if content_length > crate::message::MAX_BODY_BYTES {
        return FrameScan::Invalid("body too large");
    }
    let total = pos + 4 + content_length;
    if buf.len() >= total {
        FrameScan::Complete(total)
    } else {
        FrameScan::Partial
    }
}

/// The per-connection HTTP state machine the reactor parks: frames are
/// scanned on the reactor thread, parsed and answered on a pool worker.
struct HttpConnDriver {
    server: Arc<HttpServer>,
}

impl snowflake_runtime::ConnDriver for HttpConnDriver {
    fn scan(&mut self, buf: &[u8]) -> snowflake_runtime::FrameScan {
        scan_http_frame(buf)
    }

    fn handle(&mut self, frame: Vec<u8>) -> snowflake_runtime::ReadyOutcome {
        use snowflake_runtime::ReadyOutcome;
        let mut reader = &frame[..];
        let req = match HttpRequest::read_from(&mut reader) {
            Ok(Some(req)) => req,
            // The scanner only hands over complete frames, so a parse
            // failure is a malformed request, not a short read.
            Ok(None) | Err(_) => return ReadyOutcome::Close,
        };
        let keep = req.keep_alive();
        let mut resp = self.server.respond(&req);
        if keep {
            resp.set_header("Connection", "keep-alive");
            ReadyOutcome::Reply(HttpServer::response_bytes(&resp))
        } else {
            ReadyOutcome::ReplyClose(HttpServer::response_bytes(&resp))
        }
    }

    fn busy_reply(&mut self) -> Option<Vec<u8>> {
        Some(HttpServer::response_bytes(&HttpServer::overloaded_response(
            "server busy",
        )))
    }
}

/// A concrete Snowflake-protected service: issuer and restriction mapping
/// plus the implementation.
pub trait SnowflakeService: Send + Sync {
    /// The single principal that controls the requested resource.
    fn issuer(&self, req: &HttpRequest) -> Principal;

    /// The minimum restriction set required to authorize the request.
    fn min_tag(&self, req: &HttpRequest) -> Tag;

    /// The service implementation; `speaker` is the authorized principal
    /// (a `Message` hash for signed requests, a `Mac` for MAC sessions).
    fn serve(&self, req: &HttpRequest, speaker: &Principal) -> HttpResponse;
}

/// Upper bound (seconds) on a MAC session's lifetime at establishment.
const MAX_MAC_SESSION_LIFE: u64 = 3_600;

/// Counters exposed for the Table 1 cost breakdown.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServletStats {
    /// Requests answered via the identical-request cache.
    pub ident_hits: u64,
    /// Requests authorized by fresh proof verification.
    pub proof_verifications: u64,
    /// Requests authorized via MAC sessions.
    pub mac_hits: u64,
    /// Challenges issued.
    pub challenges: u64,
}

/// The live counters behind [`ServletStats`] (relaxed: pure statistics).
#[derive(Default)]
struct StatCounters {
    ident_hits: AtomicU64,
    proof_verifications: AtomicU64,
    mac_hits: AtomicU64,
    challenges: AtomicU64,
}

/// The abstract protected servlet: wraps a [`SnowflakeService`] with the
/// Snowflake Authorization protocol, MAC sessions, and the
/// identical-request cache.
pub struct ProtectedServlet<S: SnowflakeService> {
    service: S,
    hash_alg: HashAlg,
    /// Shared so several servlets (one per mounted app) can pool one
    /// sharded store: a MAC session established against any of them then
    /// authorizes requests wherever its grant's tag reaches.
    macs: Arc<MacSessionStore>,
    /// Verified identical requests, keyed by request hash.  A slot holds
    /// no value: the speaker is always `Message(request hash)`, derived
    /// from the key.  It carries the verified proof's certificate
    /// provenance (the `Arc` the chain memo's slot shares) and the
    /// instant its cached conclusion stops holding.  Bounded like the
    /// surface's chain memo: one bound, [`CHAIN_MEMO_CAPACITY`], for a
    /// surface's two caches of verified conclusions.
    verified: ProvenanceMap<HashVal, ()>,
    stats: StatCounters,
    rng: Mutex<Box<dyn FnMut(&mut [u8]) + Send>>,
    /// The `servlet` surface: latency across both the MAC fast path and
    /// the signed-request path, the memoized verification context, and
    /// the emitter every grant and deny goes through (audited under
    /// `http` and `http-mac`).
    surface: Arc<Surface>,
}

impl<S: SnowflakeService> ProtectedServlet<S> {
    /// Wraps a service with wall-clock time and OS entropy.
    pub fn new(service: S) -> Arc<ProtectedServlet<S>> {
        Self::with_clock(service, Time::now, Box::new(snowflake_crypto::rand_bytes))
    }

    /// Wraps a service with injected clock and entropy (tests/benches).
    pub fn with_clock(
        service: S,
        clock: fn() -> Time,
        rng: Box<dyn FnMut(&mut [u8]) + Send>,
    ) -> Arc<ProtectedServlet<S>> {
        Self::with_store(service, clock, rng, Arc::new(MacSessionStore::new()))
    }

    /// Wraps a service around an existing (possibly shared) MAC session
    /// store.
    pub fn with_store(
        service: S,
        clock: fn() -> Time,
        rng: Box<dyn FnMut(&mut [u8]) + Send>,
        macs: Arc<MacSessionStore>,
    ) -> Arc<ProtectedServlet<S>> {
        Arc::new(ProtectedServlet {
            service,
            hash_alg: HashAlg::Sha256,
            macs,
            verified: ProvenanceMap::bounded(CHAIN_MEMO_CAPACITY),
            stats: StatCounters::default(),
            rng: Mutex::new(rng),
            surface: Arc::new(Surface::new("servlet").with_clock(clock)),
        })
    }

    /// The surface this servlet decides, audits, and measures on (e.g.
    /// to install CRLs or attach a revocation source).
    pub fn surface(&self) -> &Arc<Surface> {
        &self.surface
    }

    /// Attaches an audit emitter recording this servlet's decisions.
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.surface.set_audit_emitter(emitter);
    }

    /// The servlet's MAC session store (shared with other servlets when
    /// constructed via [`ProtectedServlet::with_store`]).
    pub fn mac_store(&self) -> &Arc<MacSessionStore> {
        &self.macs
    }

    /// Evicts every warm-cache entry that depended on the certificate with
    /// this hash — verified identical-request entries *and* MAC sessions in
    /// this servlet's (possibly shared) store — returning how many were
    /// dropped.  This is the servlet's arm of revocation push: after a
    /// revocation lands, no cached state keeps honoring the dead
    /// delegation, and no full-cache flush is needed.
    pub fn invalidate_cert(&self, cert_hash: &HashVal) -> usize {
        self.verified.evict_cert(cert_hash).len()
            + self.surface.chain_memo().evict_cert(cert_hash)
            + self.macs.evict_by_cert(cert_hash)
    }

    /// Current statistics.
    pub fn stats(&self) -> ServletStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServletStats {
            ident_hits: load(&self.stats.ident_hits),
            proof_verifications: load(&self.stats.proof_verifications),
            mac_hits: load(&self.stats.mac_hits),
            challenges: load(&self.stats.challenges),
        }
    }

    /// Registers scrape-time callbacks exposing [`ServletStats`] under
    /// `sf_servlet_*` (collector id `"servlet"`) plus the servlet's
    /// verified-chain memo under
    /// `sf_chain_memo_*{surface="servlet"}` — the same counters
    /// [`stats`](Self::stats) and the surface's memo read.
    pub fn register_metrics(self: &Arc<Self>, registry: &snowflake_metrics::Registry)
    where
        S: 'static,
    {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_servlet_mac_hits_total",
            "Requests authorized via the cheap MAC fast path",
        );
        let servlet = Arc::downgrade(self);
        registry.register_collector(
            "servlet",
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(servlet) = servlet.upgrade() else { return };
                let s = servlet.stats();
                out.push(Sample::counter("sf_servlet_ident_hits_total", &[], s.ident_hits));
                out.push(Sample::counter(
                    "sf_servlet_proof_verifications_total",
                    &[],
                    s.proof_verifications,
                ));
                out.push(Sample::counter("sf_servlet_mac_hits_total", &[], s.mac_hits));
                out.push(Sample::counter("sf_servlet_challenges_total", &[], s.challenges));
            }),
        );
        self.surface.register_metrics(registry);
    }

    /// Clears the identical-request cache (benchmarks use this to force the
    /// full verification path).
    pub fn forget_verified(&self) {
        self.verified.clear();
    }

    /// The inner service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The identical-request fast path: an already-verified request hash
    /// authorizes by lookup alone (counted and audited here).
    fn ident_hit(&self, hash: &HashVal, req: &HttpRequest, now: Time) -> Option<Principal> {
        let certs = self.verified.get(hash, now, |(), certs| Arc::clone(certs))?;
        let speaker = Principal::Message(hash.clone());
        self.stats.ident_hits.fetch_add(1, Ordering::Relaxed);
        self.surface.audit(|| {
            DecisionEvent::new(
                now,
                "http",
                Decision::Grant,
                &req.path,
                &req.method,
                "identical-request-cache",
            )
            .with_subject(speaker.clone())
            .with_certs(certs.to_vec())
            .with_epoch(self.surface.revocation_epoch())
        });
        Some(speaker)
    }

    fn authorize_signed(&self, req: &HttpRequest) -> Result<Principal, HttpResponse> {
        let issuer = self.service.issuer(req);
        let request_tag = self.service.min_tag(req);
        let now = self.surface.now();

        // Identical-request fast path *before* any proof parsing (the
        // cheapest bar of Figure 8's client-authorization group).
        //
        // Note the protocol's inherent replay property, shared with the
        // paper's design: the proven subject is *the message itself*, so a
        // byte-identical retransmission (by anyone) elicits the same
        // response while the cached conclusion is valid.  Confidential or
        // non-idempotent services should fold a client nonce or channel
        // binding into the request so distinct transactions hash apart.
        let default_hash = auth::request_hash(req, self.hash_alg);
        if let Some(speaker) = self.ident_hit(&default_hash, req, now) {
            return Ok(speaker);
        }

        let Some(proof) = auth::extract_proof(req) else {
            self.stats.challenges.fetch_add(1, Ordering::Relaxed);
            self.surface.audit(|| {
                DecisionEvent::new(
                    now,
                    "http",
                    Decision::Deny,
                    &req.path,
                    &req.method,
                    "challenge: no proof presented",
                )
                .with_epoch(self.surface.revocation_epoch())
            });
            return Err(auth::challenge(&issuer, &request_tag));
        };

        // The proof's subject tells us which hash algorithm the client used
        // (Figure 5 shows md5-flavored deployments).
        let alg = match proof.conclusion().subject {
            Principal::Message(ref h) => h.alg,
            _ => self.hash_alg,
        };
        let speaker = auth::request_principal(req, alg);

        // Re-check the cache under the proof's algorithm when it differs.
        let hash = if alg == self.hash_alg {
            default_hash
        } else {
            let h = auth::request_hash(req, alg);
            if let Some(speaker) = self.ident_hit(&h, req, now) {
                return Ok(speaker);
            }
            h
        };

        // Read before verifying: a revocation push landing mid-verification
        // then refuses the cache insert below.  (This request is still
        // served — the same benign race exists for a request verified an
        // instant before the revocation.)
        let token = self.verified.epoch();
        let ctx = self.surface.verify_ctx(now);
        match ctx.authorize(&proof, &speaker, &issuer, &request_tag) {
            Ok(certs) => {
                self.stats.proof_verifications.fetch_add(1, Ordering::Relaxed);
                let expiry = match proof.conclusion().validity.not_after {
                    Some(t) => t.min(now.plus(300)),
                    None => now.plus(300),
                };
                self.verified
                    .insert(token, hash, (), Arc::clone(&certs), Some(expiry), now);
                self.surface.audit(|| {
                    DecisionEvent::new(
                        now,
                        "http",
                        Decision::Grant,
                        &req.path,
                        &req.method,
                        "proof-verified",
                    )
                    .with_subject(speaker.clone())
                    .with_certs(certs.to_vec())
                    .with_epoch(ctx.revocation_epoch())
                });
                Ok(speaker)
            }
            Err(e) => {
                self.surface.audit(|| {
                    DecisionEvent::new(
                        now,
                        "http",
                        Decision::Deny,
                        &req.path,
                        &req.method,
                        &format!("authorization failed: {e}"),
                    )
                    .with_subject(speaker.clone())
                    .with_certs(proof.cert_hashes())
                    .with_epoch(ctx.revocation_epoch())
                });
                Err(HttpResponse::forbidden(&format!(
                    "authorization failed: {e}"
                )))
            }
        }
    }

    fn try_mac(&self, req: &HttpRequest) -> Option<Result<Principal, HttpResponse>> {
        // Header-presence check before building the request tag: the vast
        // majority of non-MAC requests must pay nothing here.
        req.header(auth::MAC_ID_HEADER)?;
        let request_tag = self.service.min_tag(req);
        let result =
            auth::authorize_mac(&self.macs, req, &request_tag, self.hash_alg, self.surface.now())?;
        match result {
            Ok((speaker, grant)) => {
                // The grant names the issuer the establishment proof was
                // verified against; with a store shared across services it
                // must match *this* service's issuer, or a session from one
                // service would authorize requests another issuer controls.
                if grant.issuer != self.service.issuer(req) {
                    self.surface.audit(|| {
                        DecisionEvent::new(
                            self.surface.now(),
                            "http-mac",
                            Decision::Deny,
                            &req.path,
                            &req.method,
                            "session speaks for a different issuer",
                        )
                        .with_subject(speaker.clone())
                        .with_epoch(self.surface.revocation_epoch())
                    });
                    return Some(Err(HttpResponse::forbidden(
                        "MAC rejected: session speaks for a different issuer",
                    )));
                }
                self.stats.mac_hits.fetch_add(1, Ordering::Relaxed);
                self.surface.audit(|| {
                    DecisionEvent::new(
                        self.surface.now(),
                        "http-mac",
                        Decision::Grant,
                        &req.path,
                        &req.method,
                        "mac-session",
                    )
                    .with_subject(speaker.clone())
                    .with_epoch(self.surface.revocation_epoch())
                });
                Some(Ok(speaker))
            }
            Err(e) => {
                self.surface.audit(|| {
                    DecisionEvent::new(
                        self.surface.now(),
                        "http-mac",
                        Decision::Deny,
                        &req.path,
                        &req.method,
                        &format!("MAC rejected: {e}"),
                    )
                    .with_epoch(self.surface.revocation_epoch())
                });
                Some(Err(HttpResponse::forbidden(&format!("MAC rejected: {e}"))))
            }
        }
    }

    /// Handles a POST to the well-known MAC establishment path.
    ///
    /// The proof is verified against the issuer *it names*, not this
    /// service's: one servlet routes the path for a whole (possibly
    /// multi-issuer) site, the session inherits exactly the authority the
    /// chain demonstrates, and `try_mac`'s per-request issuer check keeps
    /// a session from reaching services its issuer does not control.
    fn authorize_and_establish(&self, req: &HttpRequest) -> HttpResponse {
        let Some(proof) = auth::extract_proof(req) else {
            self.stats.challenges.fetch_add(1, Ordering::Relaxed);
            self.surface.audit(|| {
                DecisionEvent::new(
                    self.surface.now(),
                    "http-mac",
                    Decision::Deny,
                    &req.path,
                    "ESTABLISH",
                    "challenge: no establishment proof",
                )
                .with_epoch(self.surface.revocation_epoch())
            });
            // Challenge with this service's issuer as a hint; the proof may
            // target any issuer the client can build a chain to.
            let resp = auth::challenge(&self.service.issuer(req), &self.service.min_tag(req));
            return resp;
        };
        let conclusion = proof.conclusion();
        // The proof's subject names the hash algorithm the client used.
        let alg = match conclusion.subject {
            Principal::Message(ref h) => h.alg,
            _ => self.hash_alg,
        };
        let speaker = auth::request_principal(req, alg);
        let now = self.surface.now();
        // Establishment is open to any provable chain, so sessions must be
        // bounded or strangers could grow the store with never-expiring
        // entries the sweeps cannot reclaim.  Real clients sign
        // establishment hops with short windows (the proxy uses 300 s).
        match conclusion.validity.not_after {
            Some(t) if t <= now.plus(MAX_MAC_SESSION_LIFE) => {}
            _ => {
                self.surface.audit(|| {
                    DecisionEvent::new(
                        now,
                        "http-mac",
                        Decision::Deny,
                        &req.path,
                        "ESTABLISH",
                        "unbounded establishment validity",
                    )
                    .with_subject(speaker.clone())
                    .with_epoch(self.surface.revocation_epoch())
                });
                return HttpResponse::forbidden(&format!(
                    "MAC establishment requires a validity bounded to {MAX_MAC_SESSION_LIFE} s"
                ));
            }
        }
        // Read before verifying: a revocation push racing this
        // establishment then refuses the session instead of minting one
        // from a superseded verdict.
        let token = self.macs.epoch();
        let ctx = self.surface.verify_ctx(now);
        match ctx.authorize(&proof, &speaker, &conclusion.issuer, &conclusion.tag) {
            Ok(certs) => {
                self.stats.proof_verifications.fetch_add(1, Ordering::Relaxed);
                let established = {
                    let mut rng = self.rng.plock();
                    self.macs
                        .establish(token, &req.body, conclusion, proof, now, &mut **rng)
                };
                match established {
                    Ok(reply) => {
                        self.surface.audit(|| {
                            DecisionEvent::new(
                                now,
                                "http-mac",
                                Decision::Grant,
                                &req.path,
                                "ESTABLISH",
                                "session established",
                            )
                            .with_subject(speaker.clone())
                            .with_certs(certs.to_vec())
                            .with_epoch(ctx.revocation_epoch())
                        });
                        HttpResponse::ok("application/sexp", reply)
                    }
                    Err(e) => {
                        self.surface.audit(|| {
                            DecisionEvent::new(
                                now,
                                "http-mac",
                                Decision::Deny,
                                &req.path,
                                "ESTABLISH",
                                &e,
                            )
                            .with_subject(speaker.clone())
                            .with_certs(certs.to_vec())
                            .with_epoch(ctx.revocation_epoch())
                        });
                        HttpResponse::forbidden(&e)
                    }
                }
            }
            Err(e) => {
                self.surface.audit(|| {
                    DecisionEvent::new(
                        now,
                        "http-mac",
                        Decision::Deny,
                        &req.path,
                        "ESTABLISH",
                        &format!("authorization failed: {e}"),
                    )
                    .with_subject(speaker.clone())
                    .with_epoch(ctx.revocation_epoch())
                });
                HttpResponse::forbidden(&format!("authorization failed: {e}"))
            }
        }
    }
}

impl<S: SnowflakeService> Handler for ProtectedServlet<S> {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let _timer = self.surface.latency().start_timer();
        // MAC-authenticated fast path.
        if let Some(result) = self.try_mac(req) {
            return match result {
                Ok(speaker) => self.service.serve(req, &speaker),
                Err(resp) => resp,
            };
        }
        // MAC establishment is issuer-agnostic (see
        // `authorize_and_establish`); everything else takes the
        // signed-request path (possibly challenging first).
        if req.path == MAC_SESSION_PATH {
            return self.authorize_and_establish(req);
        }
        match self.authorize_signed(req) {
            Ok(speaker) => self.service.serve(req, &speaker),
            Err(resp) => resp,
        }
    }
}

/// Server document authentication (paper §5.3.3).
///
/// "The server includes with document headers a proof that the hash of the
/// document speaks for the server.  The client completes the proof chain
/// and determines whether the authentication is satisfactory."
pub struct DocumentAuthenticator {
    key: KeyPair,
    cache: Mutex<HashMap<HashVal, String>>,
    rng: Mutex<Box<dyn FnMut(&mut [u8]) + Send>>,
}

/// The response header carrying the document proof.
pub const DOCUMENT_PROOF_HEADER: &str = "Sf-Document-Proof";

impl DocumentAuthenticator {
    /// Creates an authenticator signing with `key`.
    pub fn new(key: KeyPair, rng: Box<dyn FnMut(&mut [u8]) + Send>) -> DocumentAuthenticator {
        DocumentAuthenticator {
            key,
            cache: Mutex::new(HashMap::new()),
            rng: Mutex::new(rng),
        }
    }

    /// The issuer principal documents are proven to speak for.
    pub fn issuer(&self) -> Principal {
        Principal::key(&self.key.public)
    }

    /// Attaches `Sf-Document-Proof` to a response, signing fresh or reusing
    /// the per-document cache ("cache" vs "sign" in Figure 8).
    pub fn attach(&self, resp: &mut HttpResponse, use_cache: bool) {
        let doc_hash = HashVal::of(&resp.body);
        if use_cache {
            if let Some(header) = self.cache.plock().get(&doc_hash) {
                resp.set_header(DOCUMENT_PROOF_HEADER, header);
                return;
            }
        }
        let delegation = Delegation {
            subject: Principal::Message(doc_hash.clone()),
            issuer: self.issuer(),
            tag: Tag::Star,
            validity: Validity::always(),
            delegable: false,
        };
        let cert = {
            let mut rng = self.rng.plock();
            Certificate::issue(&self.key, delegation, &mut **rng)
        };
        let header = Proof::signed_cert(cert).to_sexp().transport();
        self.cache.plock().insert(doc_hash, header.clone());
        resp.set_header(DOCUMENT_PROOF_HEADER, &header);
    }

    /// Drops the per-document proof cache.
    pub fn clear_cache(&self) {
        self.cache.plock().clear();
    }
}

/// Client-side verification of a document proof: checks that the response
/// body's hash speaks for `expected_issuer`.
pub fn verify_document(
    resp: &HttpResponse,
    expected_issuer: &Principal,
    ctx: &VerifyCtx,
) -> Result<(), String> {
    let header = resp
        .header(DOCUMENT_PROOF_HEADER)
        .ok_or("response carries no document proof")?;
    let sexp = snowflake_sexpr::Sexp::parse(header.as_bytes())
        .map_err(|e| format!("bad document proof: {e}"))?;
    let proof = Proof::from_sexp(&sexp).map_err(|e| format!("bad document proof: {e}"))?;
    let doc_principal = Principal::Message(HashVal::of(&resp.body));
    ctx.authorize(&proof, &doc_principal, expected_issuer, &Tag::Star)
        .map(drop)
        .map_err(|e| format!("document proof rejected: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_crypto::{DetRng, Group};

    #[test]
    fn routing_longest_prefix() {
        let server = HttpServer::new();
        server.route(
            "/",
            Arc::new(|_req: &HttpRequest| HttpResponse::ok("t", b"root".to_vec())),
        );
        server.route(
            "/api",
            Arc::new(|_req: &HttpRequest| HttpResponse::ok("t", b"api".to_vec())),
        );
        assert_eq!(server.respond(&HttpRequest::get("/api/x")).body, b"api");
        assert_eq!(server.respond(&HttpRequest::get("/other")).body, b"root");
    }

    #[test]
    fn empty_server_404s() {
        let server = HttpServer::new();
        assert_eq!(server.respond(&HttpRequest::get("/x")).status, 404);
    }

    #[test]
    fn document_authentication_roundtrip() {
        let mut krng = DetRng::new(b"dockey");
        let key = KeyPair::generate(Group::test512(), &mut |b| krng.fill(b));
        let mut arng = DetRng::new(b"docsign");
        let auth = DocumentAuthenticator::new(key, Box::new(move |b| arng.fill(b)));
        let issuer = auth.issuer();

        let mut resp = HttpResponse::ok("text/html", b"<p>authentic</p>".to_vec());
        auth.attach(&mut resp, false);
        let ctx = VerifyCtx::at(Time(0));
        verify_document(&resp, &issuer, &ctx).unwrap();

        // Cached path produces the identical header.
        let header1 = resp.header(DOCUMENT_PROOF_HEADER).unwrap().to_string();
        let mut resp2 = HttpResponse::ok("text/html", b"<p>authentic</p>".to_vec());
        auth.attach(&mut resp2, true);
        assert_eq!(resp2.header(DOCUMENT_PROOF_HEADER), Some(header1.as_str()));

        // A tampered body fails verification.
        let mut tampered = resp.clone();
        tampered.body = b"<p>forged</p>".to_vec();
        assert!(verify_document(&tampered, &issuer, &ctx).is_err());

        // The wrong expected issuer fails.
        let other = Principal::message(b"other issuer");
        assert!(verify_document(&resp, &other, &ctx).is_err());
    }
}
