//! `mac_steady` and `signed_fresh`: keep-alive `GET`s of 1 KiB documents
//! from the protected web server, authorized by MAC session or by a fresh
//! signature per request.
//!
//! `mac_steady` is the cheapest request the system serves: reactor, HTTP
//! parse, request hash, HMAC, handler, audit emit.  No S-expression proof
//! is parsed, decoded or verified after set-up, so fixed per-request
//! overhead shows here and nowhere else.
//!
//! `signed_fresh` sends every pre-signed request exactly once (a nonce
//! header keeps the hashes apart), so the identical-request cache and the
//! verified-chain memo miss by construction: parse, decode and Schnorr
//! verification dominate, and the MAC path is bypassed.

use super::{Exchange, SetupNotes, World};
use crate::child::ServerChild;
use crate::drive::{Client, Outcome, CLIENT_THREADS};
use crate::inputs::{self, fixed_clock, WebClient};
use crate::trace::Tracer;
use crate::wire::{request_bytes, HttpConn};
use snowflake::core::{Certificate, Delegation, HashAlg, Principal, Proof, Validity};
use snowflake::crypto::DetRng;
use snowflake::http::auth::{self, web_tag};
use snowflake::http::mac::ClientMacSession;
use snowflake::http::{HttpRequest, MAC_SESSION_PATH};
use std::sync::Arc;
use std::time::Instant;

/// One prebuilt request and the document it must return.
pub struct Planned {
    pub bytes: Vec<u8>,
    pub doc: usize,
}

/// One client thread's operation sequence.
pub struct Plan {
    pub requests: Vec<Planned>,
    /// `mac_steady` cycles through its requests; `signed_fresh` sends each
    /// once and then stops.
    pub cyclic: bool,
}

fn get(doc: usize) -> HttpRequest {
    let mut req = HttpRequest::get(&inputs::doc_path(doc));
    req.set_header("Connection", "keep-alive");
    req
}

/// Signs `req` as `client`: a fresh certificate from the client's key to
/// the request's hash, chained to the owner's grant.
fn sign(req: &mut HttpRequest, client: &WebClient, r: &mut DetRng) -> Proof {
    let subject = auth::request_principal(req, HashAlg::Sha256);
    let tag = if req.path == MAC_SESSION_PATH {
        // A session inherits the authority its establishment proves.
        inputs::web_subtree_tag()
    } else {
        web_tag(&req.method, inputs::WEB_SERVICE, &req.path)
    };
    let cert = Certificate::issue(
        &client.key,
        Delegation {
            subject,
            issuer: Principal::key(&client.key.public),
            tag,
            validity: Validity::until(fixed_clock().plus(300)),
            delegable: false,
        },
        &mut |b| r.fill(b),
    );
    let proof = Proof::signed_cert(cert).then(client.grant.clone());
    auth::attach_proof(req, &proof);
    proof
}

fn establish(
    client: &WebClient,
    exchange: Exchange,
    r: &mut DetRng,
) -> Result<ClientMacSession, String> {
    let (body, dh) = ClientMacSession::request_body(&mut |b| r.fill(b));
    let mut req = HttpRequest::post(MAC_SESSION_PATH, body);
    req.set_header("Connection", "keep-alive");
    sign(&mut req, client, r);
    let resp = exchange(&req).map_err(|e| format!("establish MAC session: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "establish MAC session: {} {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    ClientMacSession::from_grant(&resp.body, &dh, Validity::until(fixed_clock().plus(300)))
}

fn mac_get(session: &ClientMacSession, doc: usize) -> HttpRequest {
    let mut req = get(doc);
    let hash = auth::request_hash(&req, HashAlg::Sha256);
    req.set_header(auth::MAC_ID_HEADER, &session.id_header());
    req.set_header(auth::MAC_HEADER, &session.authenticate(&hash));
    req
}

fn refused(exchange: Exchange, req: &HttpRequest) -> Result<bool, String> {
    let resp = exchange(req).map_err(|e| format!("deny control: {e}"))?;
    Ok(resp.status == 403)
}

/// Builds thread `thread`'s plan, establishing its sessions and running
/// its deny control through `exchange`.
pub fn plan(
    world: &World,
    thread: usize,
    exchange: Exchange,
) -> Result<(Plan, SetupNotes), String> {
    let mut notes = SetupNotes::default();
    let mut r = inputs::rng(world.seed, &format!("web-client-thread-{thread}"));
    let keys = inputs::WEB_CLIENT_KEYS / CLIENT_THREADS;
    let mine = &world.web_clients[thread * keys..(thread + 1) * keys];

    if world.workload == crate::spec::Kind::MacSteady {
        let per_thread = inputs::MAC_SESSIONS / CLIENT_THREADS;
        let mut sessions = Vec::with_capacity(per_thread);
        for s in 0..per_thread {
            let start = Instant::now();
            sessions.push(establish(&mine[s % keys], exchange, &mut r)?);
            notes.time("http.mac_establish_ms", start.elapsed().as_secs_f64() * 1e3);
        }
        // Control: a live session id with a wrong HMAC must be refused.
        let mut forged = mac_get(&sessions[0], 0);
        let other = auth::request_hash(&get(1), HashAlg::Sha256);
        forged.set_header(auth::MAC_HEADER, &sessions[0].authenticate(&other));
        notes.control(refused(exchange, &forged)?);

        let mut pairs: Vec<(usize, usize)> = (0..per_thread)
            .flat_map(|s| (0..inputs::DOCS).map(move |d| (s, d)))
            .collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, inputs::below(&mut r, i + 1));
        }
        let start = Instant::now();
        let requests: Vec<Planned> = pairs
            .iter()
            .map(|&(s, doc)| Planned {
                bytes: request_bytes(&mac_get(&sessions[s], doc)),
                doc,
            })
            .collect();
        notes.time(
            "client.build_us",
            start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64,
        );
        return Ok((
            Plan {
                requests,
                cyclic: true,
            },
            notes,
        ));
    }

    // signed_fresh: every request distinct, signed now, sent once.
    let start = Instant::now();
    let requests: Vec<Planned> = (0..world.signed_per_client)
        .map(|j| {
            let doc = inputs::below(&mut r, inputs::DOCS);
            let mut req = get(doc);
            req.set_header("X-Nonce", &format!("{thread}-{j}"));
            sign(&mut req, &mine[j % keys], &mut r);
            Planned {
                bytes: request_bytes(&req),
                doc,
            }
        })
        .collect();
    notes.time(
        "client.build_us",
        start.elapsed().as_secs_f64() * 1e6 / requests.len().max(1) as f64,
    );
    // Control: one flipped bit in the request signature must be refused.
    let mut forged = get(0);
    forged.set_header("X-Nonce", &format!("{thread}-forged"));
    let Proof::Transitivity(hop, grant) = sign(&mut forged, &mine[0], &mut r) else {
        unreachable!("sign builds hop.then(grant)");
    };
    let Proof::SignedCert(mut cert) = *hop else {
        unreachable!("the hop is one signed certificate");
    };
    let mut s = cert.signature.s.to_bytes_be();
    *s.last_mut().expect("a signature scalar is never empty") ^= 1;
    cert.signature.s = snowflake::bigint::Ubig::from_bytes_be(&s);
    auth::attach_proof(&mut forged, &Proof::SignedCert(cert).then(*grant));
    notes.control(refused(exchange, &forged)?);
    Ok((
        Plan {
            requests,
            cyclic: false,
        },
        notes,
    ))
}

/// A plan bound to a keep-alive connection to the child.
struct TcpClient {
    conn: HttpConn,
    plan: Plan,
    docs: Arc<Vec<Vec<u8>>>,
    cursor: usize,
}

impl Client for TcpClient {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> Option<Outcome> {
        let n = self.plan.requests.len();
        if self.cursor >= n && !self.plan.cyclic {
            return None;
        }
        let planned = &self.plan.requests[self.cursor % n];
        self.cursor += 1;
        Some(match self.conn.send_raw(&planned.bytes, tracer) {
            Ok((resp, bytes)) => Outcome {
                ok: resp.status == 200 && resp.body == self.docs[planned.doc],
                bytes,
            },
            Err(_) => Outcome {
                ok: false,
                bytes: planned.bytes.len() as u32,
            },
        })
    }
}

pub fn tcp_client(
    world: &World,
    child: &ServerChild,
    thread: usize,
) -> Result<(Box<dyn Client>, SetupNotes), String> {
    let mut conn = HttpConn::connect(child.addr(child.ports.http))
        .map_err(|e| format!("connect http: {e}"))?;
    let (plan, notes) = plan(world, thread, &mut |req| conn.send(req))?;
    let client = TcpClient {
        conn,
        plan,
        docs: Arc::clone(&world.docs),
        cursor: 0,
    };
    Ok((Box::new(client), notes))
}
