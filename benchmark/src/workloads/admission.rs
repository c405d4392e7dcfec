//! `broker_admission`: ask, then subscribe.  Each admission is one
//! `POST /authz` question on a keep-alive connection followed by a *new*
//! TCP connection carrying `(subscribe … (proof …))`, a wait for the
//! grant, and a close — 512 subjects under 8 delegable team certificates,
//! beside 256 standing subscribers.
//!
//! This is the signed mode with every cache warm and connections
//! churning: the proof is re-presented, so verification is a memo hit and
//! the prover answers from its shortcut edge, but the proof is still
//! parsed and decoded, and the reactor's accept/offload/adopt path runs
//! per admission instead of a parked keep-alive.  HMAC sessions, the WAL
//! and cold Schnorr verification are bypassed.

use super::{SetupNotes, World};
use crate::child::ServerChild;
use crate::drive::{Client, Outcome, CLIENT_THREADS};
use crate::inputs::{self, Member};
use crate::trace::Tracer;
use crate::wire::{request_bytes, HttpConn};
use snowflake::broker::topic::subscribe_frame;
use snowflake::channel::{TcpTransport, Transport};
use snowflake::http::HttpRequest;
use snowflake::sexpr::Sexp;
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

pub const ALLOW_BODY: &[u8] = b"{\"result\":\"allow\"}";

/// One admission, both halves prebuilt.
pub struct Admission {
    /// Index into `World::members`.
    pub member: usize,
    /// The serialized `POST /authz` request.
    pub authz: Vec<u8>,
    /// The `(subscribe …)` frame.
    pub subscribe: Vec<u8>,
}

/// The question "may `member` subscribe to `team`'s room?".
pub fn authz_request(member: &Member, team: usize) -> HttpRequest {
    let body = format!(
        "{{\"subject\":{{\"namespace\":\"{}\",\"value\":[\"accounts\",\"{}\"]}},\
          \"object\":{{\"namespace\":\"{}\",\"value\":[\"rooms\",\"{}\",\"events\"]}},\
          \"action\":\"subscribe\"}}",
        inputs::SUBJECT_NS,
        member.account,
        inputs::OBJECT_NS,
        inputs::room(team),
    );
    let mut req = HttpRequest::post("/authz", body.into_bytes());
    req.set_header("Connection", "keep-alive");
    req
}

pub fn subscribe_request(member: &Member, team: usize) -> Vec<u8> {
    let topic = inputs::topic(team);
    let path: Vec<&str> = topic.iter().map(String::as_str).collect();
    subscribe_frame(&path, &member.principal, &member.proof)
}

/// The members client thread `thread` admits, in order.
pub fn members_of(thread: usize) -> std::ops::Range<usize> {
    let per = inputs::SUBJECTS / CLIENT_THREADS;
    thread * per..(thread + 1) * per
}

pub fn plan(world: &World, thread: usize) -> Vec<Admission> {
    members_of(thread)
        .map(|m| {
            let member = &world.members[m];
            Admission {
                member: m,
                authz: request_bytes(&authz_request(member, member.team)),
                subscribe: subscribe_request(member, member.team),
            }
        })
        .collect()
}

/// Opens a connection, presents `frame`, and returns the reply's tag with
/// the transport and the bytes moved.
fn subscribe(addr: SocketAddr, frame: &[u8]) -> std::io::Result<(String, TcpTransport, u32)> {
    let mut transport = TcpTransport::new(TcpStream::connect(addr)?);
    transport.send(frame)?;
    let reply = transport.recv()?;
    let tag = Sexp::parse(&reply)
        .ok()
        .and_then(|e| e.tag_name().map(str::to_string))
        .unwrap_or_default();
    Ok((tag, transport, (frame.len() + reply.len() + 8) as u32))
}

struct TcpClient {
    conn: HttpConn,
    subscribe_addr: SocketAddr,
    admissions: Vec<Admission>,
    cursor: usize,
    /// Streams held open for the whole run.
    _standing: Vec<TcpTransport>,
}

impl Client for TcpClient {
    fn op(&mut self, mut tracer: Option<&mut Tracer>) -> Option<Outcome> {
        let a = &self.admissions[self.cursor % self.admissions.len()];
        self.cursor += 1;
        let t0 = Instant::now();
        let asked = self.conn.send_raw(&a.authz, tracer.as_deref_mut());
        let t1 = Instant::now();
        let (mut ok, mut bytes) = match asked {
            Ok((resp, n)) => (resp.status == 200 && resp.body == ALLOW_BODY, n),
            Err(_) => (false, a.authz.len() as u32),
        };
        match subscribe(self.subscribe_addr, &a.subscribe) {
            Ok((tag, stream, n)) => {
                ok &= tag == "sub-ok";
                bytes += n;
                drop(stream);
            }
            Err(_) => ok = false,
        }
        if let Some(t) = tracer {
            t.record("client.authz", None, t0, t1);
            t.record("client.subscribe", None, t1, Instant::now());
        }
        Some(Outcome { ok, bytes })
    }
}

pub fn tcp_client(
    world: &World,
    child: &ServerChild,
    thread: usize,
) -> Result<(Box<dyn Client>, SetupNotes), String> {
    let mut notes = SetupNotes::default();
    let subscribe_addr = child.addr(child.ports.subscribe);
    let mut conn = HttpConn::connect(child.addr(child.ports.http))
        .map_err(|e| format!("connect http: {e}"))?;
    let admissions = plan(world, thread);

    // Standing subscribers: the broker's table is never empty in service.
    let mut standing = Vec::new();
    for a in admissions
        .iter()
        .take(inputs::STANDING_SUBSCRIBERS / CLIENT_THREADS)
    {
        let (tag, stream, _) = subscribe(subscribe_addr, &a.subscribe)
            .map_err(|e| format!("standing subscriber: {e}"))?;
        if tag != "sub-ok" {
            return Err(format!("standing subscriber refused: {tag}"));
        }
        standing.push(stream);
    }

    // Control: a room the subject's team was never granted must be denied
    // at the front door and must not yield a stream.
    let member = &world.members[members_of(thread).start];
    let foreign = (member.team + 1) % inputs::TEAMS;
    let resp = conn
        .send(&authz_request(member, foreign))
        .map_err(|e| format!("deny control: {e}"))?;
    notes.control(resp.status == 200 && resp.body.starts_with(b"{\"result\":\"deny\""));
    let (tag, mut stream, _) = subscribe(subscribe_addr, &subscribe_request(member, foreign))
        .map_err(|e| format!("deny control: {e}"))?;
    notes.control(tag == "sub-deny" && stream.recv().is_err());

    Ok((
        Box::new(TcpClient {
            conn,
            subscribe_addr,
            admissions,
            cursor: 0,
            _standing: standing,
        }),
        notes,
    ))
}
