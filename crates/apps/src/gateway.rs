//! The quoting protocol gateway (paper §6.3).
//!
//! An HTML-over-HTTP front-end to the email database.  "It is important
//! that the gateway not misuse its authority and accidentally allow Bob to
//! read Alice's email… A better approach is to use quoting.  The gateway's
//! authority to access Alice's email in the database depends on the gateway
//! intentionally quoting Alice in its requests.  Therefore, as long as the
//! gateway correctly quotes its clients in its requests on the database
//! server, the correct access-control decision is made by the server."
//!
//! The transaction, exactly as in the paper:
//!
//! 1. Client `C` sends an unauthorized request `R` to the gateway `G`.
//! 2. `G` attempts the RMI call; the database faults with the required
//!    issuer `S` and restriction `T`.
//! 3. `G` answers `401` indicating it needs a proof that `G|? =T⇒ S` — the
//!    `?` pseudo-principal saves a round trip.
//! 4. The client substitutes its identity, delegates to "gateway quoting
//!    client", and resubmits with the delegation and a signed copy of `R`
//!    (showing `R ⇒ C`).
//! 5. `G` digests the proof into its Prover, verifies `R ⇒ C`, and forwards
//!    the request quoting `C`; the automatic RMI protocol submits the
//!    `G|C ⇒ S` proof and the database fulfills the request.
//! 6. `G` renders HTML from the rows. Subsequent requests skip the fanfare.

use snowflake_core::sync::LockExt;
use std::sync::{Arc, Mutex};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{Principal, Tag, Time};
use snowflake_http::{auth, Handler, HttpRequest, HttpResponse};
use snowflake_reldb::{rows_from_sexp, Value};
use snowflake_rmi::{RmiClient, RmiError};
use snowflake_runtime::Surface;
use snowflake_sexpr::Sexp;

use crate::emaildb::EMAIL_DB_OBJECT;

/// The HTTP→RMI quoting gateway.
pub struct QuotingGateway {
    /// The RMI connection to the database server (secure or local channel —
    /// the gateway "operates identically" over either).
    rmi: Mutex<RmiClient>,
    /// The `gateway` surface: request latency, the emitter gateway-level
    /// decisions (client verification, forwarded grants, re-challenges,
    /// backend sheds) go through, and the memoized verification context
    /// ("subsequent requests skip the fanfare" — the client re-presents
    /// the same `R ⇒ C` proof).
    surface: Arc<Surface>,
}

impl QuotingGateway {
    /// Wraps an RMI client connected to the email database.
    pub fn new(rmi: RmiClient, clock: fn() -> Time) -> QuotingGateway {
        QuotingGateway {
            rmi: Mutex::new(rmi),
            surface: Arc::new(Surface::new("gateway").with_clock(clock)),
        }
    }

    /// The surface this gateway decides, audits, and measures on.
    pub fn surface(&self) -> &Arc<Surface> {
        &self.surface
    }

    /// Registers the gateway's chain memo with `registry` under
    /// `surface="gateway"`; request latency lands in the shared
    /// per-surface histogram family on first use.
    pub fn register_metrics(&self, registry: &snowflake_metrics::Registry) {
        self.surface.register_metrics(registry);
    }

    /// Attaches an audit emitter recording this gateway's decisions.
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.surface.set_audit_emitter(emitter);
    }

    /// Parses `/mail/<owner>/<folder>` paths.
    fn parse_path(path: &str) -> Option<(String, String)> {
        let rest = path.strip_prefix("/mail/")?;
        let (owner, folder) = rest.split_once('/')?;
        if owner.is_empty() || folder.is_empty() {
            return None;
        }
        Some((owner.to_string(), folder.to_string()))
    }

    /// Verifies the client's signed copy of the request (`R ⇒ C`) and
    /// returns the claimed client principal `C`.
    fn verify_client(&self, req: &HttpRequest) -> Result<Principal, String> {
        let proof = auth::extract_client_proof(req).ok_or("missing Sf-Client-Proof")?;
        let r_principal = auth::request_principal(req, snowflake_core::HashAlg::Sha256);
        let conclusion = proof.conclusion();
        let client = conclusion.issuer.clone();
        let ctx = self.surface.verify_ctx(self.surface.now());
        ctx.authorize(&proof, &r_principal, &client, &Tag::Star)
            .map_err(|e| format!("client request proof rejected: {e}"))?;
        Ok(client)
    }

    /// Renders database rows as the HTML view the browser sees.
    fn render(owner: &str, folder: &str, rows: &[Vec<Value>]) -> String {
        let mut html = format!("<html><body><h1>{folder} of {owner}</h1><ul>");
        for row in rows {
            // Schema: id, owner, sender, subject, body, folder, unread.
            let sender = &row[2];
            let subject = &row[3];
            let body = &row[4];
            let unread = matches!(row[6], Value::Bool(true));
            html.push_str(&format!(
                "<li{}>From {sender}: <b>{subject}</b> — {body}</li>",
                if unread { " class=\"unread\"" } else { "" }
            ));
        }
        html.push_str("</ul></body></html>");
        html
    }

    /// Attempts an RMI call quoting `quotee`; on a missing proof returns
    /// the issuer/tag the database demanded.  Backend errors arrive as a
    /// ready HTTP response: a shed (BUSY) call maps to `503` — the
    /// database did not process it, so the client should retry — while
    /// everything else is a `502`.
    fn try_invoke(
        &self,
        quotee: Principal,
        method: &str,
        args: Vec<Sexp>,
    ) -> Result<Result<Sexp, (Principal, Tag)>, HttpResponse> {
        let mut rmi = self.rmi.plock();
        rmi.set_quoting(Some(quotee));
        let result = rmi.invoke(EMAIL_DB_OBJECT, method, args);
        rmi.set_quoting(None);
        match result {
            Ok(value) => Ok(Ok(value)),
            Err(RmiError::NoProof { issuer, tag }) => Ok(Err((issuer, tag))),
            Err(e) if e.is_busy() => {
                // The backend shed the call: record the gateway's own
                // shed decision (the 503 it maps the BUSY fault to).
                self.surface.audit(|| {
                    DecisionEvent::new(
                        self.surface.now(),
                        "gateway",
                        Decision::Shed,
                        EMAIL_DB_OBJECT,
                        method,
                        &format!("database busy: {e}"),
                    )
                });
                let mut resp =
                    HttpResponse::status(503, "Service Unavailable", &format!("database busy: {e}"));
                resp.set_header("Retry-After", "1");
                Err(resp)
            }
            Err(e) => Err(HttpResponse::status(
                502,
                "Bad Gateway",
                &format!("database error: {e}"),
            )),
        }
    }

    /// Maps the HTTP request onto the database method and arguments.
    ///
    /// `GET /mail/<owner>/<folder>` selects; `POST /mail/<owner>/<folder>`
    /// inserts a message whose body is `subject\n\nbody` (what a compose
    /// form submits).
    fn db_call(
        req: &HttpRequest,
        owner: &str,
        folder: &str,
    ) -> Result<(String, Vec<Sexp>), HttpResponse> {
        match req.method.as_str() {
            "GET" => Ok(("select".into(), vec![Sexp::from(owner), Sexp::from(folder)])),
            "POST" => {
                let text = String::from_utf8_lossy(&req.body);
                let (subject, body) = text.split_once("\n\n").unwrap_or((text.as_ref(), ""));
                Ok((
                    "insert".into(),
                    vec![
                        Sexp::from(owner),
                        Sexp::from("web-compose"),
                        Sexp::from(subject.trim()),
                        Sexp::from(body.trim()),
                        Sexp::from(folder),
                    ],
                ))
            }
            _ => Err(HttpResponse::status(
                405,
                "Method Not Allowed",
                "GET or POST",
            )),
        }
    }
}

impl Handler for QuotingGateway {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let _timer = self.surface.latency().start_timer();
        let Some((owner, folder)) = Self::parse_path(&req.path) else {
            return HttpResponse::not_found();
        };
        let (method, args) = match Self::db_call(req, &owner, &folder) {
            Ok(call) => call,
            Err(resp) => return resp,
        };

        // Do we know who the client is?  Without a signed request we can
        // only discover the database's demands with the `?` placeholder.
        let client = match auth::extract_client_proof(req) {
            None => {
                // Probe the database to learn (S, T), then challenge with
                // the G|? form.
                let placeholder = Principal::message(b"?");
                match self.try_invoke(placeholder, &method, args.clone()) {
                    Ok(Ok(_)) => unreachable!("placeholder cannot hold authority"),
                    Ok(Err((issuer, tag))) => {
                        self.surface.audit(|| {
                            DecisionEvent::new(
                                self.surface.now(),
                                "gateway",
                                Decision::Deny,
                                &req.path,
                                &req.method,
                                "challenge: client must prove gateway-quoting-client chain",
                            )
                        });
                        let mut resp = auth::challenge(&issuer, &tag);
                        // `G` is the gateway's channel-facing key: that is
                        // the quoter the database will see.
                        let rmi = self.rmi.plock();
                        auth::add_quoter(&mut resp, &rmi.speaker());
                        return resp;
                    }
                    Err(resp) => return resp,
                }
            }
            Some(_) => match self.verify_client(req) {
                Ok(c) => c,
                Err(e) => {
                    self.surface.audit(|| {
                        DecisionEvent::new(
                            self.surface.now(),
                            "gateway",
                            Decision::Deny,
                            &req.path,
                            &req.method,
                            &e,
                        )
                    });
                    return HttpResponse::forbidden(&e);
                }
            },
        };

        // Digest the delegation proof (G|C ⇒ S) the client supplied.
        if let Some(proof) = auth::extract_proof(req) {
            self.rmi.plock().prover().add_proof(proof);
        }

        // Forward the request, quoting the client.
        match self.try_invoke(client.clone(), &method, args) {
            Ok(Ok(value)) => {
                // The database (seeing G|C end to end) said yes; record the
                // gateway's side of the granted transaction.
                self.surface.audit(|| {
                    let certs = auth::extract_proof(req)
                        .map(|p| p.cert_hashes())
                        .unwrap_or_default();
                    DecisionEvent::new(
                        self.surface.now(),
                        "gateway",
                        Decision::Grant,
                        &req.path,
                        &req.method,
                        "forwarded quoting client; database granted",
                    )
                    .with_subject(client.clone())
                    .with_certs(certs)
                });
                if method == "select" {
                    match rows_from_sexp(&value) {
                        Ok(rows) => HttpResponse::ok(
                            "text/html",
                            Self::render(&owner, &folder, &rows).into_bytes(),
                        ),
                        Err(e) => HttpResponse::status(502, "Bad Gateway", &e.to_string()),
                    }
                } else {
                    HttpResponse::status(201, "Created", &format!("message id {value}"))
                }
            }
            Ok(Err((issuer, tag))) => {
                // Still unauthorized: re-challenge (e.g. wrong owner).
                self.surface.audit(|| {
                    DecisionEvent::new(
                        self.surface.now(),
                        "gateway",
                        Decision::Deny,
                        &req.path,
                        &req.method,
                        "database still demands proof (re-challenge)",
                    )
                    .with_subject(client.clone())
                });
                let mut resp = auth::challenge(&issuer, &tag);
                let rmi = self.rmi.plock();
                auth::add_quoter(&mut resp, &rmi.speaker());
                resp
            }
            Err(resp) => resp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_parsing() {
        assert_eq!(
            QuotingGateway::parse_path("/mail/alice/inbox"),
            Some(("alice".into(), "inbox".into()))
        );
        assert_eq!(QuotingGateway::parse_path("/mail/alice"), None);
        assert_eq!(QuotingGateway::parse_path("/other"), None);
        assert_eq!(QuotingGateway::parse_path("/mail//inbox"), None);
    }

    #[test]
    fn render_marks_unread() {
        let rows = vec![
            vec![
                Value::Int(1),
                Value::text("alice"),
                Value::text("bob"),
                Value::text("hi"),
                Value::text("lunch?"),
                Value::text("inbox"),
                Value::Bool(true),
            ],
            vec![
                Value::Int(2),
                Value::text("alice"),
                Value::text("carol"),
                Value::text("yo"),
                Value::text("dinner?"),
                Value::text("inbox"),
                Value::Bool(false),
            ],
        ];
        let html = QuotingGateway::render("alice", "inbox", &rows);
        assert!(html.contains("unread"));
        assert!(html.contains("lunch?"));
        assert!(html.contains("dinner?"));
        assert_eq!(html.matches("<li").count(), 2);
    }
}
