//! `rmi_mail`: RMI invocations on warm secure channels parked in the
//! reactor, against the durable mail database — six `select`s, an
//! `insert` and a `delete` cycling over 64 mailboxes, four to a channel,
//! so that each client thread keeps eight channels parked and one busy.
//!
//! The same runtime and audit layers as the HTTP workloads, used
//! differently: sealed records instead of HTTP frames, a WAL append and
//! fsync in one operation out of four.  The median sits in the reads, the
//! tail in the writes.  No proof is parsed or verified after set-up and
//! no HMAC session or JSON is involved.

use super::{SetupNotes, World};
use crate::child::ServerChild;
use crate::drive::{Client, Outcome, CLIENT_THREADS};
use crate::inputs::{self, fixed_clock};
use crate::trace::Tracer;
use crate::wire::{Probe, ProbeTransport};
use snowflake::apps::emaildb::{EmailDb, EMAIL_DB_OBJECT};
use snowflake::channel::{AuthChannel, SecureChannel};
use snowflake::core::{Certificate, Delegation, Principal, Proof, Validity};
use snowflake::prover::Prover;
use snowflake::reldb::{rows_from_sexp, Value};
use snowflake::rmi::RmiClient;
use snowflake::sexpr::Sexp;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The mailboxes client thread `thread` owns.
fn boxes_of(thread: usize) -> Vec<usize> {
    let per = inputs::MAILBOXES / CLIENT_THREADS;
    (thread * per..(thread + 1) * per).collect()
}

/// Selects at the head of each cycle; an insert and a delete of the same
/// message close it.  Mail is read far more than it is written, and with
/// one operation in four a write the median stays in the reads while the
/// tail is the WAL's fsync.
pub const SELECTS_PER_CYCLE: usize = 6;
const CYCLE: usize = SELECTS_PER_CYCLE + 2;

/// Channels per client thread.  The RMI server keeps the proofs a
/// channel has submitted in one list per speaker and scans it on every
/// call; the client stub submits one proof per (mailbox, method), so four
/// mailboxes to a channel keep that list at twelve entries.
pub const CHANNELS_PER_CLIENT: usize = 8;

/// The session key channel `channel` of client thread `thread`
/// authenticates with.
pub fn session_key(world: &World, thread: usize, channel: usize) -> snowflake::crypto::KeyPair {
    inputs::keypair(world.seed, &format!("mail-session-{thread}-{channel}"))
}

/// An established channel, with the probe on its transport if it has one.
pub struct Link {
    pub channel: Box<dyn AuthChannel>,
    pub probe: Option<Arc<Mutex<Probe>>>,
}

/// A prover holding the thread's identity key and the owner's grant to it
/// for each of its mailboxes.
fn client_prover(world: &World, thread: usize) -> Arc<Prover> {
    let identity = inputs::keypair(world.seed, &format!("mail-identity-{thread}"));
    let mut r = inputs::rng(world.seed, &format!("mail-grants-{thread}"));
    let prover = Arc::new(Prover::with_rng(inputs::boxed_rng(
        world.seed,
        &format!("mail-prover-{thread}"),
    )));
    for k in boxes_of(thread) {
        prover.add_proof(Proof::signed_cert(Certificate::issue(
            &world.owners.mail,
            Delegation {
                subject: Principal::key(&identity.public),
                issuer: Principal::key(&world.owners.mail.public),
                tag: EmailDb::owner_tag(&inputs::mailbox(k)),
                validity: Validity::always(),
                delegable: true,
            },
            &mut |b| r.fill(b),
        )));
    }
    prover.add_key(identity);
    prover
}

/// The three kinds of operation in the cycle.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Select,
    Insert,
    Delete,
}

impl Kind {
    pub fn span(self) -> &'static str {
        match self {
            Kind::Select => "client.select",
            Kind::Insert => "client.insert",
            Kind::Delete => "client.delete",
        }
    }
}

struct Session {
    rmi: RmiClient,
    probe: Option<Arc<Mutex<Probe>>>,
}

/// One client thread: an `RmiClient` per established channel, its
/// mailboxes and what each must contain.
pub struct MailClient {
    sessions: Vec<Session>,
    boxes: Vec<usize>,
    /// Per owned mailbox, the sorted `(sender, subject, body, folder)`
    /// rows a select must return.
    expected: Vec<Vec<[String; 4]>>,
    cursor: usize,
    inserted: Option<u64>,
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Text(s) => Some(s),
        _ => None,
    }
}

impl MailClient {
    /// Fills the thread's mailboxes over `links` — which pushes one proof
    /// per (mailbox, method) through the client stub's
    /// fault → prove → submit → retry path — and runs the deny control.
    pub fn setup(
        world: &World,
        thread: usize,
        links: Vec<Link>,
    ) -> Result<(MailClient, SetupNotes), String> {
        let mut notes = SetupNotes::default();
        let boxes = boxes_of(thread);
        let prover = client_prover(world, thread);
        let sessions = links
            .into_iter()
            .enumerate()
            .map(|(c, link)| Session {
                rmi: RmiClient::with_clock(
                    link.channel,
                    session_key(world, thread, c),
                    Arc::clone(&prover),
                    fixed_clock,
                ),
                probe: link.probe,
            })
            .collect();
        let mut client = MailClient {
            sessions,
            expected: Vec::new(),
            boxes,
            cursor: 0,
            inserted: None,
        };
        for slot in 0..client.boxes.len() {
            let k = client.boxes[slot];
            let mut rows = Vec::new();
            for j in 0..inputs::MAIL_PER_BOX {
                let message = inputs::mail_message(world.seed, k, j);
                let start = Instant::now();
                client.insert(slot, &message)?;
                if j == 0 {
                    notes.time("rmi.receive_proof_ms", start.elapsed().as_secs_f64() * 1e3);
                }
                rows.push(message);
            }
            rows.sort();
            client.expected.push(rows);
            // One full cycle, so that the select and delete proofs are
            // cached too and the measured phase only hits.
            client.cursor = CYCLE * slot;
            for _ in 0..CYCLE {
                let (_, ok) = client.step();
                if !ok {
                    return Err(format!(
                        "mailbox {} failed its warm-up cycle",
                        inputs::mailbox(k)
                    ));
                }
            }
        }
        client.cursor = 0;

        // Control: another owner's mailbox must fault, not answer.
        let foreign = inputs::mailbox(boxes_of((thread + 1) % CLIENT_THREADS)[0]);
        let answer = client.sessions[0].rmi.invoke(
            EMAIL_DB_OBJECT,
            "select",
            vec![Sexp::from(foreign.as_str())],
        );
        notes.control(answer.is_err());
        Ok((client, notes))
    }

    /// The session serving the mailbox in `slot`.
    fn session_of(&self, slot: usize) -> usize {
        slot * self.sessions.len() / self.boxes.len()
    }

    fn insert(&mut self, slot: usize, message: &[String; 4]) -> Result<u64, String> {
        let k = self.boxes[slot];
        let session = self.session_of(slot);
        let mut args = vec![Sexp::from(inputs::mailbox(k).as_str())];
        args.extend(message.iter().map(|s| Sexp::from(s.as_str())));
        self.sessions[session]
            .rmi
            .invoke(EMAIL_DB_OBJECT, "insert", args)
            .map_err(|e| format!("insert into {}: {e}", inputs::mailbox(k)))?
            .as_u64()
            .ok_or_else(|| "insert returned no id".to_string())
    }

    /// The session the next operation will use.
    fn next_session(&self) -> usize {
        self.session_of((self.cursor / CYCLE) % self.boxes.len())
    }

    /// Runs the next operation of the cycle and checks its answer.
    pub fn step(&mut self) -> (Kind, bool) {
        let slot = (self.cursor / CYCLE) % self.boxes.len();
        let session = self.session_of(slot);
        let phase = self.cursor % CYCLE;
        self.cursor += 1;
        let owner = inputs::mailbox(self.boxes[slot]);
        match phase {
            0..SELECTS_PER_CYCLE => {
                let ok = self.sessions[session]
                    .rmi
                    .invoke(EMAIL_DB_OBJECT, "select", vec![Sexp::from(owner.as_str())])
                    .ok()
                    .and_then(|reply| rows_from_sexp(&reply).ok())
                    .is_some_and(|rows| self.rows_match(slot, &owner, &rows));
                (Kind::Select, ok)
            }
            SELECTS_PER_CYCLE => {
                let message = [
                    "bench@example.org",
                    "in flight",
                    "written and removed",
                    "inbox",
                ]
                .map(str::to_string);
                self.inserted = self.insert(slot, &message).ok();
                (Kind::Insert, self.inserted.is_some())
            }
            _ => {
                let ok = self.inserted.take().is_some_and(|id| {
                    self.sessions[session]
                        .rmi
                        .invoke(
                            EMAIL_DB_OBJECT,
                            "delete",
                            vec![Sexp::from(owner.as_str()), Sexp::int(id)],
                        )
                        .is_ok_and(|n| n.as_u64() == Some(1))
                });
                (Kind::Delete, ok)
            }
        }
    }

    /// Are `rows` exactly the mailbox's standing messages, all owned by
    /// `owner`?  (Ids are the server's and are not compared.)
    fn rows_match(&self, slot: usize, owner: &str, rows: &[Vec<Value>]) -> bool {
        let mut got: Vec<[&str; 4]> = Vec::with_capacity(rows.len());
        for row in rows {
            let [_, o, sender, subject, body, folder, _] = row.as_slice() else {
                return false;
            };
            let (Some(o), Some(sender), Some(subject), Some(body), Some(folder)) = (
                text(o),
                text(sender),
                text(subject),
                text(body),
                text(folder),
            ) else {
                return false;
            };
            if o != owner {
                return false;
            }
            got.push([sender, subject, body, folder]);
        }
        got.sort();
        got.len() == self.expected[slot].len()
            && got
                .iter()
                .zip(&self.expected[slot])
                .all(|(g, e)| g.iter().zip(e).all(|(a, b)| *a == b))
    }
}

impl Client for MailClient {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> Option<Outcome> {
        let probe = self.sessions[self.next_session()].probe.clone();
        let read = || probe.as_ref().map(|p| *p.lock().expect("probe poisoned"));
        let before = read();
        let start = Instant::now();
        let (kind, ok) = self.step();
        let end = Instant::now();
        let after = read();
        let bytes = match (before, after) {
            (Some(b), Some(a)) => (a.bytes - b.bytes) as u32,
            _ => 0,
        };
        if let (
            Some(t),
            Some(Probe {
                sent: Some(sent),
                received: Some(received),
                ..
            }),
        ) = (tracer, after)
        {
            t.record(kind.span(), None, start, end);
            t.record("client.build", None, start, sent.0);
            t.record("client.write", None, sent.0, sent.1);
            t.record("client.wait", None, sent.1, received);
            t.record("client.parse", None, received, end);
        }
        Some(Outcome { ok, bytes })
    }
}

pub fn tcp_client(
    world: &World,
    child: &ServerChild,
    thread: usize,
) -> Result<(Box<dyn Client>, SetupNotes), String> {
    let mut handshakes = SetupNotes::default();
    let mut links = Vec::new();
    for c in 0..CHANNELS_PER_CLIENT {
        let (transport, probe) = ProbeTransport::connect(child.addr(child.ports.rmi))
            .map_err(|e| format!("connect rmi: {e}"))?;
        let mut r = inputs::rng(world.seed, &format!("mail-channel-{thread}-{c}"));
        let start = Instant::now();
        let channel = SecureChannel::client(
            Box::new(transport),
            Some(&session_key(world, thread, c)),
            None,
            &mut |b| r.fill(b),
        )
        .map_err(|e| format!("channel handshake: {e}"))?;
        handshakes.time("channel.handshake_ms", start.elapsed().as_secs_f64() * 1e3);
        links.push(Link {
            channel: Box::new(channel),
            probe: Some(probe),
        });
    }
    let (client, mut notes) = MailClient::setup(world, thread, links)?;
    notes.merge(handshakes);
    Ok((Box::new(client), notes))
}
