//! The protected web file server (paper §6.1).
//!
//! "One user establishes control over the file server by specifying the
//! hash of his public key when starting up the server; he may delegate to
//! others permission to read subtrees or individual files from the server."
//!
//! Subtree delegation falls out of the tag algebra: a delegation whose
//! `resourcePath` field is `(* prefix /docs/)` permits every concrete
//! request tag under that subtree.

use crate::vfs::Vfs;
use snowflake_core::{Principal, Tag, Time};
use snowflake_http::{
    HttpRequest, HttpResponse, HttpServer, MacSessionStore, ProtectedServlet, SnowflakeService,
};
use std::sync::Arc;

/// The Snowflake service mapping web requests to VFS reads.
pub struct ProtectedWebService {
    /// The principal controlling the server (typically a key hash, as in
    /// the paper).
    issuer: Principal,
    /// The service name embedded in restriction tags (Figure 5's
    /// `(service |…|)` field).
    service_name: String,
    vfs: Arc<Vfs>,
}

impl ProtectedWebService {
    /// Creates a service controlled by `issuer`, serving `vfs`.
    pub fn new(issuer: Principal, service_name: &str, vfs: Arc<Vfs>) -> ProtectedWebService {
        ProtectedWebService {
            issuer,
            service_name: service_name.to_string(),
            vfs,
        }
    }

    /// The tag granting read access to the subtree under `prefix` — what an
    /// owner delegates to share a directory.
    pub fn subtree_tag(&self, prefix: &str) -> Tag {
        Tag::named(
            "web",
            vec![
                Tag::named("method", vec![Tag::atom("GET")]),
                Tag::named("service", vec![Tag::atom(self.service_name.as_str())]),
                Tag::named(
                    "resourcePath",
                    vec![Tag::Prefix(prefix.as_bytes().to_vec())],
                ),
            ],
        )
    }

    /// The tag granting read access to exactly one file.
    pub fn file_tag(&self, path: &str) -> Tag {
        snowflake_http::auth::web_tag("GET", &self.service_name, path)
    }

    /// Wraps this service in a [`ProtectedServlet`] over a shared MAC
    /// session store and mounts it on `server` at `prefix`.
    ///
    /// App servers that host several protected services pass the same
    /// `macs` to each mount, pooling one sharded store: a MAC session
    /// established through any mount authorizes requests wherever its
    /// grant's tag reaches *and its grant's issuer controls the service*
    /// (cross-issuer use is rejected per request), and one
    /// `evict_expired` sweep reclaims dead sessions for the whole site.
    ///
    /// The servlet is also routed at the well-known
    /// [`snowflake_http::MAC_SESSION_PATH`] (unless an earlier mount
    /// already claimed it) — establishment POSTs go there, not under
    /// `prefix`, and a session's authority comes from its verified
    /// establishment proof, so any servlet sharing the store may handle
    /// them.  For that reason every mount on one server must receive the
    /// *same* `macs`: with distinct stores, establishment would land in
    /// whichever store claimed the path first, and the other services
    /// would reject the session as unknown (clients then silently fall
    /// back to per-request signed proofs, losing the MAC amortization).
    pub fn mount(
        self,
        server: &HttpServer,
        prefix: &str,
        macs: Arc<MacSessionStore>,
        clock: fn() -> Time,
        rng: Box<dyn FnMut(&mut [u8]) + Send>,
    ) -> Arc<ProtectedServlet<ProtectedWebService>> {
        let servlet = ProtectedServlet::with_store(self, clock, rng, macs);
        server.route(prefix, Arc::clone(&servlet) as Arc<dyn snowflake_http::Handler>);
        if !server.has_route(snowflake_http::MAC_SESSION_PATH) {
            server.route(
                snowflake_http::MAC_SESSION_PATH,
                Arc::clone(&servlet) as Arc<dyn snowflake_http::Handler>,
            );
        }
        servlet
    }
}

impl SnowflakeService for ProtectedWebService {
    fn issuer(&self, _req: &HttpRequest) -> Principal {
        self.issuer.clone()
    }

    fn min_tag(&self, req: &HttpRequest) -> Tag {
        snowflake_http::auth::web_tag(&req.method, &self.service_name, &req.path)
    }

    fn serve(&self, req: &HttpRequest, _speaker: &Principal) -> HttpResponse {
        if req.method != "GET" {
            return HttpResponse::status(405, "Method Not Allowed", "GET only");
        }
        match self.vfs.read(&req.path) {
            Some(data) => HttpResponse::ok(content_type_for(&req.path), data),
            None => HttpResponse::not_found(),
        }
    }
}

fn content_type_for(path: &str) -> &'static str {
    if path.ends_with(".html") {
        "text/html"
    } else if path.ends_with(".txt") {
        "text/plain"
    } else {
        "application/octet-stream"
    }
}

// `service_name` is used through &str coercion above.
impl ProtectedWebService {
    /// The service's name as it appears in restriction tags.
    pub fn service_name(&self) -> &str {
        &self.service_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> ProtectedWebService {
        let vfs = Arc::new(Vfs::new());
        vfs.write("/docs/a.html", b"<p>a</p>".to_vec());
        vfs.write("/docs/deep/b.txt", b"b".to_vec());
        vfs.write("/private/key", b"secret".to_vec());
        ProtectedWebService::new(Principal::message(b"owner"), "files", vfs)
    }

    #[test]
    fn serves_files_with_content_types() {
        let s = service();
        let speaker = Principal::message(b"x");
        let resp = s.serve(&HttpRequest::get("/docs/a.html"), &speaker);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Content-Type"), Some("text/html"));
        let resp = s.serve(&HttpRequest::get("/docs/deep/b.txt"), &speaker);
        assert_eq!(resp.header("Content-Type"), Some("text/plain"));
        assert_eq!(s.serve(&HttpRequest::get("/nope"), &speaker).status, 404);
        let mut post = HttpRequest::post("/docs/a.html", vec![]);
        post.set_header("X", "y");
        assert_eq!(s.serve(&post, &speaker).status, 405);
    }

    #[test]
    fn subtree_tag_covers_children_only() {
        let s = service();
        let subtree = s.subtree_tag("/docs/");
        let inside = s.min_tag(&HttpRequest::get("/docs/deep/b.txt"));
        let outside = s.min_tag(&HttpRequest::get("/private/key"));
        assert!(subtree.permits(&inside));
        assert!(!subtree.permits(&outside));
        // A single-file tag covers exactly that file.
        let one = s.file_tag("/docs/a.html");
        assert!(one.permits(&s.min_tag(&HttpRequest::get("/docs/a.html"))));
        assert!(!one.permits(&inside));
    }

    /// Two app services mounted on one server pool a single sharded MAC
    /// store: a session established through either is visible to both,
    /// and one sweep reclaims expired sessions site-wide.
    #[test]
    fn mounted_services_share_mac_store() {
        use snowflake_core::{Delegation, Proof, Validity};
        use snowflake_crypto::DetRng;
        use snowflake_http::mac::ClientMacSession;

        let server = HttpServer::new();
        let macs = Arc::new(MacSessionStore::new());
        let clock: fn() -> Time = || Time(0);
        let mut r1 = DetRng::new(b"mount-1");
        let mut r2 = DetRng::new(b"mount-2");
        let docs = ProtectedWebService::new(Principal::message(b"owner"), "docs", {
            let v = Arc::new(Vfs::new());
            v.write("/docs/a", b"a".to_vec());
            v
        })
        .mount(&server, "/docs", Arc::clone(&macs), clock, Box::new(move |b| r1.fill(b)));
        let wiki = ProtectedWebService::new(Principal::message(b"owner"), "wiki", {
            let v = Arc::new(Vfs::new());
            v.write("/wiki/b", b"b".to_vec());
            v
        })
        .mount(&server, "/wiki", Arc::clone(&macs), clock, Box::new(move |b| r2.fill(b)));

        assert!(Arc::ptr_eq(docs.mac_store(), wiki.mac_store()));

        // The well-known establishment path is reachable even though both
        // services mount under their own prefixes: an unauthorized POST is
        // challenged (401), not lost to routing (404).
        let probe = HttpRequest::post(snowflake_http::MAC_SESSION_PATH, vec![]);
        assert_eq!(server.respond(&probe).status, 401);

        // Establish one session through the docs servlet's store; the wiki
        // servlet sees it, and the shared sweep reclaims it once expired.
        let mut crng = DetRng::new(b"mount-client");
        let (body, _dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
        let grant = Delegation {
            subject: Principal::message(b"establishment"),
            issuer: Principal::message(b"owner"),
            tag: Tag::Star,
            validity: Validity::until(Time(100)),
            delegable: false,
        };
        let proof = Proof::Assumption {
            stmt: grant.clone(),
            authority: "test".into(),
        };
        let mut srng = DetRng::new(b"mount-server");
        let token = docs.mac_store().epoch();
        docs.mac_store()
            .establish(token, &body, grant, proof, Time(0), &mut |b| srng.fill(b))
            .unwrap();
        assert_eq!(wiki.mac_store().len(), 1);
        assert_eq!(wiki.mac_store().evict_expired(Time(500)), 1);
        assert!(docs.mac_store().is_empty());
    }

    /// A MAC session carries the issuer its establishment proof was
    /// verified against; on a shared store it must not authorize requests
    /// to a service controlled by a *different* issuer, however wide its
    /// tag.
    #[test]
    fn shared_store_session_rejected_across_issuers() {
        use snowflake_core::{Delegation, HashAlg, Proof, Validity};
        use snowflake_crypto::DetRng;
        use snowflake_http::mac::ClientMacSession;

        let server = HttpServer::new();
        let macs = Arc::new(MacSessionStore::new());
        let clock: fn() -> Time = || Time(0);
        let mut r1 = DetRng::new(b"xissuer-1");
        let mut r2 = DetRng::new(b"xissuer-2");
        let docs_vfs = Arc::new(Vfs::new());
        docs_vfs.write("/docs/a", b"a".to_vec());
        let wiki_vfs = Arc::new(Vfs::new());
        wiki_vfs.write("/wiki/b", b"b".to_vec());
        let docs = ProtectedWebService::new(Principal::message(b"issuer-A"), "docs", docs_vfs)
            .mount(&server, "/docs", Arc::clone(&macs), clock, Box::new(move |b| r1.fill(b)));
        ProtectedWebService::new(Principal::message(b"issuer-B"), "wiki", wiki_vfs).mount(
            &server,
            "/wiki",
            Arc::clone(&macs),
            clock,
            Box::new(move |b| r2.fill(b)),
        );

        // Establish one session per issuer, both POSTed over HTTP to the
        // single well-known path (routed to the *docs* servlet):
        // establishment verifies a proof against the issuer it names, so
        // wiki clients are not locked out by mount order.
        let establish = |seed: &str, issuer: &[u8]| {
            let mut crng = DetRng::new(seed.as_bytes());
            let (body, dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
            let mut est = HttpRequest::post(snowflake_http::MAC_SESSION_PATH, body);
            let stmt = Delegation {
                subject: snowflake_http::request_principal(&est, HashAlg::Sha256),
                issuer: Principal::message(issuer),
                tag: Tag::Star,
                // Establishment refuses unbounded windows (store DoS).
                validity: Validity::until(Time(3_000)),
                delegable: false,
            };
            // The handling servlet's verifier vouches the test assumption.
            docs.surface().assume(&stmt);
            snowflake_http::auth::attach_proof(
                &mut est,
                &Proof::Assumption {
                    stmt,
                    authority: "test".into(),
                },
            );
            let resp = server.respond(&est);
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            ClientMacSession::from_grant(&resp.body, &dh, Validity::always()).unwrap()
        };
        let session_a = establish("xissuer-client-a", b"issuer-A");
        let session_b = establish("xissuer-client-b", b"issuer-B");

        // An unbounded (never-expiring) establishment is refused: it could
        // never be reclaimed by the expiry sweeps.
        {
            let mut crng = DetRng::new(b"xissuer-unbounded");
            let (body, _dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
            let mut est = HttpRequest::post(snowflake_http::MAC_SESSION_PATH, body);
            let stmt = Delegation {
                subject: snowflake_http::request_principal(&est, HashAlg::Sha256),
                issuer: Principal::message(b"issuer-A"),
                tag: Tag::Star,
                validity: Validity::always(),
                delegable: false,
            };
            docs.surface().assume(&stmt);
            snowflake_http::auth::attach_proof(
                &mut est,
                &Proof::Assumption {
                    stmt,
                    authority: "test".into(),
                },
            );
            let resp = server.respond(&est);
            assert_eq!(resp.status, 403);
            assert!(String::from_utf8_lossy(&resp.body).contains("bounded"));
        }

        let mac_request = |session: &ClientMacSession, path: &str| {
            let mut req = HttpRequest::get(path);
            let hash = snowflake_http::request_hash(&req, HashAlg::Sha256);
            req.set_header(snowflake_http::auth::MAC_ID_HEADER, &session.id_header());
            req.set_header(snowflake_http::auth::MAC_HEADER, &session.authenticate(&hash));
            req
        };
        // Each session authorizes requests under its own issuer's service…
        assert_eq!(server.respond(&mac_request(&session_a, "/docs/a")).status, 200);
        assert_eq!(server.respond(&mac_request(&session_b, "/wiki/b")).status, 200);
        // …but not under the other's, despite the Star tags.
        for (session, path) in [(&session_a, "/wiki/b"), (&session_b, "/docs/a")] {
            let resp = server.respond(&mac_request(session, path));
            assert_eq!(resp.status, 403, "{}", String::from_utf8_lossy(&resp.body));
            assert!(String::from_utf8_lossy(&resp.body).contains("different issuer"));
        }
    }

    #[test]
    fn post_tags_differ_from_get() {
        let s = service();
        let mut post = HttpRequest::post("/docs/a.html", vec![]);
        post.set_header("X", "y");
        let get_tag = s.min_tag(&HttpRequest::get("/docs/a.html"));
        let post_tag = s.min_tag(&post);
        assert!(!get_tag.permits(&post_tag));
        // And the GET-only subtree grant does not permit POSTs.
        assert!(!s.subtree_tag("/docs/").permits(&post_tag));
    }
}
