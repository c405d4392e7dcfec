//! The authz endpoint: path-vector authorization questions over HTTP.
//!
//! Conferencing-style platforms put one question behind everything:
//! *may this subject perform this action on this object?* — where the
//! object is a path vector like `["rooms", ROOM_ID, "rtcs", RTC_ID]`.
//! This module answers that question over the de-facto JSON wire shape:
//!
//! ```json
//! {"subject": {"namespace": "iam.example.org",
//!              "value": ["accounts", "123e4567"]},
//!  "object":  {"namespace": "conference.example.org",
//!              "value": ["rooms", "123e4567", "rtcs", "321e7654"]},
//!  "action":  "read"}
//! ```
//!
//! Translation into the paper's model is mechanical: each object
//! namespace is controlled by one issuer principal (the paper's "single
//! principal that controls the resource, not an ACL"), the object/action
//! pair becomes a [`snowflake_tags::path_vector::request_tag`], and the
//! answer is whatever speaks-for proof the prover can build from the
//! delegations it holds.  Every answer — allow, deny, or a malformed
//! body refused fail-closed — emits a [`DecisionEvent`].

use crate::json::{self, Json};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{Principal, Time};
use snowflake_crypto::HashVal;
use snowflake_http::{Handler, HttpRequest, HttpResponse};
use snowflake_prover::Prover;
use snowflake_runtime::Surface;
use snowflake_sexpr::Sexp;
use snowflake_tags::path_vector::{self, ActionTable};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Longest accepted request body; authz questions are a few hundred
/// bytes, so anything bigger is garbage or an attack.
const MAX_BODY: usize = 64 * 1024;

/// Deepest accepted path vector (matches the exemplar matrix, which
/// tops out at four segments, with headroom).
const MAX_PATH_SEGMENTS: usize = 16;

/// One parsed authz question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthzRequest {
    /// The subject's home namespace (an identity authority).
    pub subject_ns: String,
    /// The subject's path within its namespace (e.g. `["accounts", ID]`).
    pub subject_path: Vec<String>,
    /// The object's namespace (the audience whose issuer controls it).
    pub object_ns: String,
    /// The object's path vector.
    pub object_path: Vec<String>,
    /// The requested action.
    pub action: String,
}

impl AuthzRequest {
    /// Parses the foxford-shape JSON body.  Everything unexpected is an
    /// error — on this endpoint a parse error is a denial, so the parser
    /// must be strict rather than forgiving.
    pub fn from_json(body: &[u8]) -> Result<AuthzRequest, String> {
        if body.len() > MAX_BODY {
            return Err("body too large".into());
        }
        let doc = json::parse(body).map_err(|e| e.to_string())?;
        let entity = |name: &str| -> Result<(String, Vec<String>), String> {
            let obj = doc
                .get(name)
                .ok_or_else(|| format!("missing \"{name}\""))?;
            let ns = obj
                .get("namespace")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("\"{name}.namespace\" must be a string"))?;
            if ns.is_empty() {
                return Err(format!("\"{name}.namespace\" is empty"));
            }
            // `value` is a path vector; a bare string is accepted as the
            // one-segment form (the shape some callers send for accounts).
            let path: Vec<String> = match obj.get("value") {
                Some(Json::Str(s)) => vec![s.clone()],
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("\"{name}.value\" has a non-string segment"))
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err(format!("\"{name}.value\" must be a string or array")),
            };
            if path.is_empty() {
                return Err(format!("\"{name}.value\" is empty"));
            }
            if path.len() > MAX_PATH_SEGMENTS {
                return Err(format!("\"{name}.value\" is too deep"));
            }
            if path.iter().any(String::is_empty) {
                return Err(format!("\"{name}.value\" has an empty segment"));
            }
            Ok((ns.to_string(), path))
        };
        let (subject_ns, subject_path) = entity("subject")?;
        let (object_ns, object_path) = entity("object")?;
        let action = doc
            .get("action")
            .and_then(Json::as_str)
            .ok_or("\"action\" must be a string")?;
        if action.is_empty() {
            return Err("\"action\" is empty".into());
        }
        Ok(AuthzRequest {
            subject_ns,
            subject_path,
            object_ns,
            object_path,
            action: action.to_string(),
        })
    }

    /// The subject as a principal: the hash of the canonical
    /// `(subject (ns N) (path s…))` form.  Pure and deterministic, so
    /// the delegation issuer and the endpoint agree on the name without
    /// coordination — exactly how message principals name documents.
    pub fn subject_principal(&self) -> Principal {
        subject_principal(&self.subject_ns, &self.subject_path)
    }

    /// The audit-log object string, `ns:/seg/seg/…`.
    pub fn object_string(&self) -> String {
        format!("{}:/{}", self.object_ns, self.object_path.join("/"))
    }
}

/// Names an external-namespace subject as a snowflake principal (see
/// [`AuthzRequest::subject_principal`]).  Grant issuers call this when
/// delegating to a subject they only know by namespace + path.
pub fn subject_principal(namespace: &str, path: &[String]) -> Principal {
    let body = vec![
        Sexp::tagged("ns", vec![Sexp::atom(namespace.as_bytes().to_vec())]),
        Sexp::tagged(
            "path",
            path.iter()
                .map(|s| Sexp::atom(s.as_bytes().to_vec()))
                .collect(),
        ),
    ];
    Principal::message(&Sexp::tagged("subject", body).canonical())
}

/// One object namespace the endpoint answers for: the principal that
/// controls it, and the table of object-shape/action pairs that exist
/// at all (requests outside the table are denied before any proof
/// search runs).
pub struct NamespaceAuthority {
    /// The principal that controls every object in the namespace.
    pub issuer: Principal,
    /// Which actions exist on which object shapes.
    pub table: ActionTable,
}

/// The outcome of one evaluated authz question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthzVerdict {
    /// Was the request authorized?
    pub allowed: bool,
    /// The deny reason, or the grant summary.
    pub detail: String,
    /// The proof's certificate provenance (empty on deny).
    pub cert_hashes: Vec<HashVal>,
}

/// The authz endpoint: an HTTP [`Handler`] mapping foxford-shape JSON
/// questions onto the prover.
pub struct AuthzEndpoint {
    prover: Arc<Prover>,
    namespaces: Mutex<HashMap<String, NamespaceAuthority>>,
    /// The `authz` surface: question-answering latency, the emitter every
    /// verdict goes through, and the memoized verification context (the
    /// same question typically resolves to the same proof; a revocation
    /// source attached here is consulted by every verification).
    surface: Arc<Surface>,
}

impl AuthzEndpoint {
    /// An endpoint answering from `prover`'s delegation graph, with no
    /// namespaces yet (every question denied until one is added).
    pub fn new(prover: Arc<Prover>) -> Arc<AuthzEndpoint> {
        Self::with_clock(prover, Time::now)
    }

    /// An endpoint with an injected clock (tests, benches).
    pub fn with_clock(prover: Arc<Prover>, clock: fn() -> Time) -> Arc<AuthzEndpoint> {
        Arc::new(AuthzEndpoint {
            prover,
            namespaces: Mutex::new(HashMap::new()),
            surface: Arc::new(Surface::new("authz").with_clock(clock)),
        })
    }

    /// The surface this endpoint decides, audits, and measures on (e.g.
    /// to attach a revocation source or wire it to revocation push).
    pub fn surface(&self) -> &Arc<Surface> {
        &self.surface
    }

    /// Registers this endpoint's verified-chain memo in a metrics
    /// registry under `sf_chain_memo_*{surface="authz"}`.
    pub fn register_metrics(&self, registry: &snowflake_metrics::Registry) {
        self.surface.register_metrics(registry);
    }

    /// Registers (or replaces) the authority for an object namespace.
    pub fn add_namespace(&self, namespace: &str, authority: NamespaceAuthority) {
        self.namespaces
            .lock()
            .expect("authz namespaces poisoned")
            .insert(namespace.to_string(), authority);
    }

    /// Attaches an audit emitter; every verdict is recorded through it.
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.surface.set_audit_emitter(emitter);
    }

    /// Answers one parsed question.  Denials never explain more than the
    /// caller needs; the full reason goes to the audit log.
    pub fn evaluate(&self, req: &AuthzRequest) -> AuthzVerdict {
        let deny = |detail: &str| AuthzVerdict {
            allowed: false,
            detail: detail.to_string(),
            cert_hashes: Vec::new(),
        };
        let namespaces = self.namespaces.lock().expect("authz namespaces poisoned");
        let Some(authority) = namespaces.get(&req.object_ns) else {
            return deny("unknown object namespace");
        };
        let path: Vec<&str> = req.object_path.iter().map(String::as_str).collect();
        // Fail closed on shape: an action that exists nowhere in the
        // table (or an object path with the wrong arity) is denied
        // before any cryptography runs.
        if !authority.table.permits(&path, &req.action) {
            return deny("no such action on this object shape");
        }
        let issuer = authority.issuer.clone();
        drop(namespaces);
        let subject = req.subject_principal();
        let tag = path_vector::request_tag(&req.object_ns, &path, &req.action);
        let now = self.surface.now();
        let Some(proof) = self.prover.find_proof(&subject, &issuer, &tag, now) else {
            return deny("no delegation chain from issuer to subject");
        };
        // The prover's graph may hold edges that have gone stale since
        // insertion (or rest on revoked certificates); the proof must
        // still verify end-to-end against the surface's revocation data.
        let ctx = self.surface.verify_ctx(now);
        match ctx.authorize(&proof, &subject, &issuer, &tag) {
            Ok(certs) => AuthzVerdict {
                allowed: true,
                detail: "delegation chain verified".to_string(),
                cert_hashes: certs.to_vec(),
            },
            Err(e) => deny(&format!("proof failed verification: {e}")),
        }
    }

    fn answer(&self, req: &HttpRequest) -> HttpResponse {
        if req.method != "POST" {
            return HttpResponse::status(405, "Method Not Allowed", "POST only");
        }
        let parsed = match AuthzRequest::from_json(&req.body) {
            Ok(p) => p,
            Err(reason) => {
                // Malformed body: fail closed, record the refusal.
                self.surface.audit(|| {
                    DecisionEvent::new(
                        self.surface.now(),
                        "authz",
                        Decision::Deny,
                        "malformed-request",
                        "authz",
                        &format!("rejected unparseable body: {reason}"),
                    )
                });
                return HttpResponse::status(
                    400,
                    "Bad Request",
                    &format!("{{\"error\":{}}}", Json::Str(reason)),
                );
            }
        };
        let verdict = self.evaluate(&parsed);
        self.surface.audit(|| {
            DecisionEvent::new(
                self.surface.now(),
                "authz",
                if verdict.allowed {
                    Decision::Grant
                } else {
                    Decision::Deny
                },
                &parsed.object_string(),
                &parsed.action,
                &verdict.detail,
            )
            .with_subject(parsed.subject_principal())
            .with_certs(verdict.cert_hashes.clone())
        });
        let body = if verdict.allowed {
            "{\"result\":\"allow\"}".to_string()
        } else {
            format!("{{\"result\":\"deny\",\"reason\":{}}}", Json::Str(verdict.detail.clone()))
        };
        HttpResponse::ok("application/json", body.into_bytes())
    }
}

impl Handler for AuthzEndpoint {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let _timer = self.surface.latency().start_timer();
        self.answer(req)
    }
}
