//! The traced replay: the same plans the TCP clients send, fed in-process
//! through the layers' public functions, one span per call.
//!
//! For every operation the replay first runs the real entry point
//! (`HttpServer::respond`, `RmiServer::handle_frame`,
//! `AuthzEndpoint::evaluate`, `TopicBroker::subscribe_with_proof`) as the
//! root span, then calls each layer that entry point goes through on the
//! same inputs, as the root's children.  Children run against shadow
//! state (their own verified-chain memo, their own durable database) so
//! that the root's side effects do not turn a miss into a hit.  Two kinds
//! of span have no parent: the client-visible frame steps around the
//! root (`http.request_parse`, `channel.open`, …) and probes of a
//! primitive on the request's own operands (`crypto.schnorr_verify`,
//! `bigint.modpow`, `audit.append`, `broker.publish_fanout`).

use crate::inputs::{self, fixed_clock};
use crate::server::Stack;
use crate::spec::Kind;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{admission, mail, web, SetupNotes, World};
use snowflake::apps::emaildb::{EmailDb, EMAIL_DB_OBJECT};
use snowflake::audit::{AuditLog, FileBackend, DEFAULT_CHECKPOINT_INTERVAL};
use snowflake::broker::topic::SubscriberSink;
use snowflake::broker::AuthzRequest;
use snowflake::channel::{AuthChannel, RecordCrypto, SecureChannel, TcpTransport};
use snowflake::core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake::core::{ChainMemo, ChannelId, Delegation, HashAlg, Principal, Proof, VerifyCtx};
use snowflake::crypto::{Group, PublicKey};
use snowflake::http::auth;
use snowflake::http::mac::{decode_mac_header, decode_mac_id_header};
use snowflake::http::{HttpRequest, HttpResponse, SnowflakeService};
use snowflake::reldb::{email_schema, rows_to_sexp, DurableDatabase, Predicate, Value};
use snowflake::rmi::{Invocation, RemoteObject, RmiReply, RmiServer, PROOF_RECIPIENT};
use snowflake::sexpr::Sexp;
use snowflake::tags::path_vector::request_tag;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct Replayed {
    pub tracer: Tracer,
    pub ops: usize,
    pub failed: usize,
    pub notes: SetupNotes,
    /// Bytes the file-backed shadow audit log grew by per decision
    /// appended, checkpoints included.
    pub audit_bytes_per_decision: f64,
}

/// Replays up to `max_ops` operations of `world`'s workload (stopping
/// early after `time_cap`) on a stack built in `dir`.
pub fn run(
    world: &World,
    dir: &Path,
    max_ops: usize,
    time_cap: Duration,
) -> Result<Replayed, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let stack = Stack::build(&world.bundle(), dir)?;
    // What the audit sink's drain thread does per decision, measured on a
    // log of its own.
    let shadow_path = dir.join("shadow-audit.log");
    let shadow_log = AuditLog::with_rng(
        inputs::keypair(world.seed, "replay-audit-signer"),
        Box::new(FileBackend::open(&shadow_path)?),
        DEFAULT_CHECKPOINT_INTERVAL,
        inputs::boxed_rng(world.seed, "replay-audit-rng"),
    )?;
    let budget = Budget { max_ops, time_cap };
    let audit = AuditProbe {
        shadow_log,
        shadow_path,
        pending: Vec::new(),
    };
    let out = match world.workload {
        Kind::MacSteady | Kind::SignedFresh => replay_web(world, &stack, audit, budget),
        Kind::RmiMail => replay_mail(world, &stack, audit, dir, budget),
        Kind::BrokerAdmission => replay_admission(world, &stack, audit, budget),
    };
    stack.shutdown();
    out
}

/// How much a replay loop may do.  The clock starts when the loop does,
/// after the replay's own set-up.
#[derive(Clone, Copy)]
struct Budget {
    max_ops: usize,
    time_cap: Duration,
}

impl Budget {
    fn start(self) -> Running {
        Running {
            max_ops: self.max_ops,
            deadline: Instant::now() + self.time_cap,
        }
    }
}

struct Running {
    max_ops: usize,
    deadline: Instant,
}

impl Running {
    fn allows(&self, done: usize) -> bool {
        done < self.max_ops && Instant::now() < self.deadline
    }
}

/// The audit layer's two halves.  `emit` is on the request path: the
/// event goes through the stack's sink as a child of `parent`.  What a
/// drain thread over the file backend would then do per decision (chain,
/// sign, write, fsync) is probed on a file-backed log of its own after
/// the replay loop, so that its fsync does not cool the caches under the
/// next operation's root.
struct AuditProbe {
    shadow_log: Arc<AuditLog>,
    shadow_path: std::path::PathBuf,
    pending: Vec<(u64, DecisionEvent)>,
}

impl AuditProbe {
    fn emit(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        sink: &dyn AuditEmitter,
        op: u64,
        event: impl Fn() -> DecisionEvent,
    ) {
        tracer.span("audit.emit", parent, || sink.emit(event()));
        self.pending.push((op, event()));
    }

    /// Appends everything emitted, one `audit.append` span each, and
    /// returns the bytes the log file grew by per decision.
    fn flush(self, tracer: &mut Tracer) -> f64 {
        let decisions = self.pending.len();
        for (op, event) in self.pending {
            tracer.begin_op(op);
            let (_, written) =
                tracer.span("audit.append", None, || self.shadow_log.append(event).1);
            written.expect("append to the shadow audit log");
        }
        let bytes = std::fs::metadata(&self.shadow_path).map_or(0, |m| m.len());
        bytes as f64 / decisions.max(1) as f64
    }
}

// ------------------------------------------------------------------ web ----

fn replay_web(
    world: &World,
    stack: &Stack,
    mut audit: AuditProbe,
    budget: Budget,
) -> Result<Replayed, String> {
    let mut notes = SetupNotes::default();
    let mut plans = Vec::new();
    for thread in 0..crate::drive::CLIENT_THREADS {
        let (plan, n) = web::plan(world, thread, &mut |req| Ok(stack.http.respond(req)))?;
        notes.merge(n);
        plans.push(plan);
    }
    // Never sees a proof twice, exactly as the servlet's memo on this
    // workload: lookup misses, verification runs, the entry is recorded.
    let shadow_ctx = VerifyCtx::at(fixed_clock()).with_chain_memo(Arc::new(ChainMemo::new(1024)));

    let mut tracer = Tracer::new();
    let (mut ops, mut failed) = (0, 0);
    let budget = budget.start();
    while budget.allows(ops) {
        let plan = &plans[ops % plans.len()];
        let index = ops / plans.len();
        if index >= plan.requests.len() && !plan.cyclic {
            break;
        }
        let planned = &plan.requests[index % plan.requests.len()];
        let op = ops as u64;
        tracer.begin_op(op);
        ops += 1;

        // The frame steps of `HttpConnDriver::handle` around the root.
        let (_, parsed) = tracer.span("http.request_parse", None, || {
            HttpRequest::read_from(&mut &planned.bytes[..])
        });
        let Ok(Some(req)) = parsed else {
            failed += 1;
            continue;
        };
        let root = tracer.reserve("http.respond", None);
        // Whichever of root and children runs first pays for the cold
        // caches; alternating shares that cost between them.
        let root_first = op.is_multiple_of(2);
        let mut resp = root_first.then(|| tracer.fill(root, || stack.http.respond(&req)));
        let layers_ok = web_layers(&mut tracer, &mut audit, root, op, &req, stack, &shadow_ctx);
        let mut resp = resp
            .take()
            .unwrap_or_else(|| tracer.fill(root, || stack.http.respond(&req)));
        resp.set_header("Connection", "keep-alive");
        tracer.span("http.response_write", None, || response_bytes(&resp));
        if !layers_ok || resp.status != 200 || resp.body != world.docs[planned.doc] {
            failed += 1;
        }
    }
    let audit_bytes_per_decision = audit.flush(&mut tracer);
    Ok(Replayed {
        tracer,
        ops,
        failed,
        notes,
        audit_bytes_per_decision,
    })
}

/// The layers `HttpServer::respond` goes through for `req`, each as a
/// child span of `root`.  Returns whether every layer accepted the
/// request.
fn web_layers(
    tracer: &mut Tracer,
    audit: &mut AuditProbe,
    root: SpanId,
    op: u64,
    req: &HttpRequest,
    stack: &Stack,
    shadow_ctx: &VerifyCtx,
) -> bool {
    let service = stack.servlet.service();
    let now = fixed_clock();
    let root = Some(root);
    let (_, hash) = tracer.span("http.request_hash", root, || {
        auth::request_hash(req, HashAlg::Sha256)
    });
    let (speaker, surface, detail, certs) = if let Some(id) = req.header(auth::MAC_ID_HEADER) {
        let (_, verdict) = tracer.span("http.mac_verify", root, || {
            let mac_id = decode_mac_id_header(id)?;
            let mac = decode_mac_header(req.header(auth::MAC_HEADER)?)?;
            stack
                .servlet
                .mac_store()
                .verify(&mac_id, &mac, &hash, &service.min_tag(req), now)
                .ok()
        });
        let Some((speaker, _grant)) = verdict else {
            return false;
        };
        (speaker, "http-mac", "mac-session", Vec::new())
    } else {
        let wire = req
            .header("Authorization")
            .and_then(|h| h.strip_prefix(auth::WWW_AUTH_SNOWFLAKE))
            .unwrap_or_default()
            .trim_start();
        let (_, sexp) = tracer.span("sexpr.parse", root, || Sexp::parse(wire.as_bytes()));
        let Ok(sexp) = sexp else {
            return false;
        };
        let (_, proof) = tracer.span("core.proof_decode", root, || Proof::from_sexp(&sexp));
        let Ok(proof) = proof else {
            return false;
        };
        // The servlet hashes the request again to name the speaker.
        let (_, speaker) = tracer.span("http.request_hash", root, || {
            auth::request_principal(req, HashAlg::Sha256)
        });
        let (_, verdict) = tracer.span("core.verify_cold", root, || {
            shadow_ctx.authorize(
                &proof,
                &speaker,
                &service.issuer(req),
                &service.min_tag(req),
            )
        });
        if verdict.is_err() {
            return false;
        }
        // Provenance for the identical-request cache, again for the
        // audit event.
        tracer.span("core.cert_hashes", root, || proof.cert_hashes());
        let (_, certs) = tracer.span("core.cert_hashes", root, || proof.cert_hashes());
        probe_primitives(tracer, &proof);
        (speaker, "http", "proof-verified", certs)
    };
    tracer.span("apps.handler", root, || service.serve(req, &speaker));
    audit.emit(tracer, root, &*stack.sink, op, || {
        DecisionEvent::new(
            now,
            surface,
            Decision::Grant,
            &req.path,
            &req.method,
            detail,
        )
        .with_subject(speaker.clone())
        .with_certs(certs.clone())
    });
    true
}

fn response_bytes(resp: &HttpResponse) -> Vec<u8> {
    let mut out = Vec::new();
    resp.write_to(&mut out).expect("serialize to a Vec");
    out
}

/// One individual Schnorr verification and one modular exponentiation on
/// the operands of the proof's first certificate.
fn probe_primitives(tracer: &mut Tracer, proof: &Proof) {
    let group = Group::test512();
    let Some(Proof::SignedCert(cert)) = proof
        .lemmas()
        .into_iter()
        .find(|l| matches!(l, Proof::SignedCert(_)))
    else {
        return;
    };
    let signed = cert.signed_bytes();
    tracer.span("crypto.schnorr_verify", None, || {
        cert.signer.verify(&signed, &cert.signature)
    });
    tracer.span("bigint.modpow", None, || {
        cert.signer.y.modpow(&cert.signature.e, &group.p)
    });
}

// ----------------------------------------------------------------- mail ----

/// The identity of an established channel, as `RmiServer` consumes it.
struct Identity {
    id: ChannelId,
    peer: Option<PublicKey>,
    binding: Option<Delegation>,
}

impl AuthChannel for Identity {
    fn send(&mut self, _msg: &[u8]) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }
    fn recv(&mut self) -> io::Result<Vec<u8>> {
        Err(io::ErrorKind::Unsupported.into())
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

/// What the loop channels share: the tracer (spans are recorded only once
/// `tracing` is set, after set-up) and the shadow database that mirrors
/// every mutation.
struct MailShared {
    tracer: Tracer,
    tracing: bool,
    /// The operation the next spans belong to.
    op: u64,
    shadow_db: DurableDatabase,
    audit: AuditProbe,
}

/// The client end of an established secure channel whose server end is
/// right here: `send` seals the invocation, runs the server's frame
/// handling on it with spans, and queues the opened reply for `recv`.
struct LoopChannel {
    client: RecordCrypto,
    server: RecordCrypto,
    identity: Identity,
    client_identity: Identity,
    rmi: Arc<RmiServer>,
    replies: VecDeque<Vec<u8>>,
    shared: Arc<Mutex<MailShared>>,
    stack_sink: Arc<dyn AuditEmitter>,
    /// A mail object like the server's, asked only for its issuer and
    /// for the restriction tag of an invocation.
    guard: Arc<EmailDb>,
    /// Conclusions of the proofs this channel's speaker has submitted and
    /// the server accepted: what its proof cache holds for the speaker.
    accepted: Vec<Delegation>,
}

impl AuthChannel for LoopChannel {
    fn send(&mut self, msg: &[u8]) -> io::Result<()> {
        let sealed = self.client.seal(msg);
        let mut shared = self.shared.lock().expect("replay state poisoned");
        let shared = &mut *shared;
        let mut scratch = Tracer::new();
        let tracer = if shared.tracing {
            &mut shared.tracer
        } else {
            &mut scratch
        };

        // The frame steps of `RmiConnDriver::handle`.
        let (_, plaintext) = tracer.span("channel.open", None, || self.server.open(&sealed));
        let plaintext = plaintext?;
        let (root, reply) = tracer.span("rmi.handle_frame", None, || {
            self.rmi.handle_frame(&plaintext, &self.identity)
        });
        let (_, sealed_reply) = tracer.span("channel.seal", None, || {
            self.server.seal(&reply.to_sexp().canonical())
        });
        self.replies.push_back(self.client.open(&sealed_reply)?);

        // The layers `handle_frame` went through.
        let root = Some(root);
        let (_, parsed) = tracer.span("sexpr.parse", root, || Sexp::parse(&plaintext));
        let (_, invocation) = tracer.span("rmi.decode", root, || {
            parsed.ok().and_then(|e| Invocation::from_sexp(&e).ok())
        });
        let (Some(inv), RmiReply::Return(value)) = (invocation, &reply) else {
            return Ok(());
        };
        if inv.object == PROOF_RECIPIENT {
            // Set-up traffic: remember what the server now holds.
            if let Some(proof) = inv.args.first().and_then(|p| Proof::from_sexp(p).ok()) {
                self.accepted.push(proof.conclusion());
            }
        } else if inv.object == EMAIL_DB_OBJECT {
            let now = fixed_clock();
            // The proof cache's scan: the first accepted conclusion that
            // covers this call.
            tracer.span("rmi.check_auth", root, || {
                let issuer = self.guard.issuer();
                let tag = self.guard.restriction(&inv);
                self.accepted
                    .iter()
                    .any(|c| c.issuer == issuer && c.tag.permits(&tag) && c.validity.contains(now))
            });
            mirror_mail_op(tracer, root, &mut shared.shadow_db, &inv, value);
            let speaker = self.identity.peer.as_ref().map(Principal::key);
            // `check_auth`'s verdict, then the application's outcome.
            for (surface, detail) in [
                ("rmi", "proof-cache"),
                ("emaildb", "row-scoped operation applied"),
            ] {
                if shared.tracing {
                    shared
                        .audit
                        .emit(tracer, root, &*self.stack_sink, shared.op, || {
                            let event = DecisionEvent::new(
                                now,
                                surface,
                                Decision::Grant,
                                &inv.object,
                                &inv.method,
                                detail,
                            );
                            match &speaker {
                                Some(s) => event.with_subject(s.clone()),
                                None => event,
                            }
                        });
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.replies
            .pop_front()
            .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }

    fn channel_id(&self) -> ChannelId {
        self.client_identity.id.clone()
    }
    fn peer_key(&self) -> Option<&PublicKey> {
        self.client_identity.peer.as_ref()
    }
    fn peer_binding(&self) -> Option<Delegation> {
        self.client_identity.binding.clone()
    }
}

/// Applies the invocation the server just answered to the shadow
/// database, as the `reldb` child span of `root`.
fn mirror_mail_op(
    tracer: &mut Tracer,
    root: Option<SpanId>,
    db: &mut DurableDatabase,
    inv: &Invocation,
    returned: &Sexp,
) {
    let arg = |i: usize| inv.args.get(i).and_then(Sexp::as_str).unwrap_or_default();
    let owner = Predicate::eq("owner", Value::text(arg(0)));
    match inv.method.as_str() {
        "select" => {
            tracer.span("reldb.select", root, || {
                let table = db
                    .database()
                    .table("messages")
                    .expect("schema has messages");
                rows_to_sexp(&table.select(&owner, &[]).expect("select on shadow"))
            });
        }
        "insert" => {
            let row = vec![
                Value::Int(returned.as_u64().unwrap_or(0) as i64),
                Value::text(arg(0)),
                Value::text(arg(1)),
                Value::text(arg(2)),
                Value::text(arg(3)),
                Value::text(arg(4)),
                Value::Bool(true),
            ];
            let (_, done) = tracer.span("reldb.insert", root, || db.insert("messages", row));
            done.expect("insert into the shadow mail store");
        }
        "delete" => {
            let id = inv.args.get(1).and_then(Sexp::as_u64).unwrap_or(0);
            let pred = Predicate::and(owner, Predicate::eq("id", Value::Int(id as i64)));
            let (_, done) = tracer.span("reldb.delete", root, || db.delete("messages", &pred));
            done.expect("delete from the shadow mail store");
        }
        _ => {}
    }
}

/// Runs a real handshake over loopback, so that both ends hold the record
/// crypto a served connection would.
fn loop_channel(
    world: &World,
    thread: usize,
    channel: usize,
    stack: &Stack,
    shared: &Arc<Mutex<MailShared>>,
    guard: &Arc<EmailDb>,
) -> Result<(LoopChannel, f64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server_key = stack.channel_key.clone();
    let seed = world.seed;
    let accept = std::thread::spawn(move || -> io::Result<SecureChannel> {
        let (stream, _) = listener.accept()?;
        let mut r = inputs::rng(seed, &format!("replay-server-channel-{thread}-{channel}"));
        SecureChannel::server(
            Box::new(TcpTransport::new(stream)),
            &server_key,
            None,
            &mut |b| r.fill(b),
        )
    });
    let mut r = inputs::rng(world.seed, &format!("mail-channel-{thread}-{channel}"));
    let start = Instant::now();
    let client = TcpStream::connect(addr)
        .and_then(|s| {
            SecureChannel::client(
                Box::new(TcpTransport::new(s)),
                Some(&mail::session_key(world, thread, channel)),
                None,
                &mut |b| r.fill(b),
            )
        })
        .map_err(|e| format!("replay handshake (client): {e}"))?;
    let handshake_ms = start.elapsed().as_secs_f64() * 1e3;
    let server = accept
        .join()
        .map_err(|_| "replay handshake thread panicked".to_string())?
        .map_err(|e| format!("replay handshake (server): {e}"))?;
    let (client, server) = (client.into_parts(), server.into_parts());
    let identity = |p: &snowflake::channel::ChannelParts| Identity {
        id: p.channel_id.clone(),
        peer: p.peer_key.clone(),
        binding: p.peer_binding.clone(),
    };
    Ok((
        LoopChannel {
            identity: identity(&server),
            client_identity: identity(&client),
            client: client.crypto,
            server: server.crypto,
            rmi: Arc::clone(&stack.rmi),
            replies: VecDeque::new(),
            shared: Arc::clone(shared),
            stack_sink: Arc::clone(&stack.sink) as Arc<dyn AuditEmitter>,
            guard: Arc::clone(guard),
            accepted: Vec::new(),
        },
        handshake_ms,
    ))
}

fn replay_mail(
    world: &World,
    stack: &Stack,
    audit: AuditProbe,
    dir: &Path,
    budget: Budget,
) -> Result<Replayed, String> {
    let shadow_db = DurableDatabase::open(dir.join("shadow-mail"), email_schema)
        .map_err(|e| format!("open shadow mail store: {e}"))?;
    let shared = Arc::new(Mutex::new(MailShared {
        tracer: Tracer::new(),
        tracing: false,
        op: 0,
        shadow_db,
        audit,
    }));
    let guard = Arc::new(EmailDb::new(Principal::key(&world.owners.mail.public)));
    let mut notes = SetupNotes::default();
    let mut clients = Vec::new();
    for thread in 0..crate::drive::CLIENT_THREADS {
        let mut links = Vec::new();
        for c in 0..mail::CHANNELS_PER_CLIENT {
            let (channel, handshake_ms) = loop_channel(world, thread, c, stack, &shared, &guard)?;
            notes.time("channel.handshake_ms", handshake_ms);
            links.push(mail::Link {
                channel: Box::new(channel),
                probe: None,
            });
        }
        let (client, n) = mail::MailClient::setup(world, thread, links)?;
        notes.merge(n);
        clients.push(client);
    }
    shared.lock().expect("replay state poisoned").tracing = true;
    let (mut ops, mut failed) = (0, 0);
    let budget = budget.start();
    while budget.allows(ops) {
        {
            let mut shared = shared.lock().expect("replay state poisoned");
            shared.op = ops as u64;
            shared.tracer.begin_op(ops as u64);
        }
        let n = clients.len();
        let (_, ok) = clients[ops % n].step();
        failed += usize::from(!ok);
        ops += 1;
    }
    drop(clients);
    let shared = Arc::into_inner(shared)
        .ok_or("replay state still shared")?
        .into_inner()
        .map_err(|_| "replay state poisoned".to_string())?;
    let mut tracer = shared.tracer;
    let audit_bytes_per_decision = shared.audit.flush(&mut tracer);
    Ok(Replayed {
        tracer,
        ops,
        failed,
        notes,
        audit_bytes_per_decision,
    })
}

// ------------------------------------------------------------ admission ----

/// An in-memory subscriber that counts what it is sent.
struct CountingSink(AtomicUsize);

impl SubscriberSink for CountingSink {
    fn deliver(&self, _frame: &[u8]) -> bool {
        self.0.fetch_add(1, Ordering::SeqCst);
        true
    }
    fn is_open(&self) -> bool {
        true
    }
    fn close(&self) {}
}

fn replay_admission(
    world: &World,
    stack: &Stack,
    mut audit: AuditProbe,
    budget: Budget,
) -> Result<Replayed, String> {
    let mut notes = SetupNotes::default();
    let now = fixed_clock();
    let issuer = Principal::key(&world.owners.broker.public);
    let plans: Vec<Vec<admission::Admission>> = (0..crate::drive::CLIENT_THREADS)
        .map(|t| admission::plan(world, t))
        .collect();
    let topic_of = |team: usize| inputs::topic(team);

    // Standing subscribers, as in the served run.
    let standing = Arc::new(CountingSink(AtomicUsize::new(0)));
    for member in world.members.iter().take(inputs::STANDING_SUBSCRIBERS) {
        let topic = topic_of(member.team);
        let path: Vec<&str> = topic.iter().map(String::as_str).collect();
        stack
            .broker
            .subscribe_with_proof(
                member.principal.clone(),
                &path,
                &member.proof,
                Arc::clone(&standing) as Arc<dyn SubscriberSink>,
            )
            .map_err(|e| format!("standing subscriber: {e}"))?;
    }

    // Controls: the ungranted room is denied at both doors.
    let member = &world.members[0];
    let foreign = (member.team + 1) % inputs::TEAMS;
    let resp = stack
        .http
        .respond(&admission::authz_request(member, foreign));
    notes.control(resp.body.starts_with(b"{\"result\":\"deny\""));
    let topic = topic_of(foreign);
    let path: Vec<&str> = topic.iter().map(String::as_str).collect();
    let throwaway = Arc::new(CountingSink(AtomicUsize::new(0)));
    notes.control(
        stack
            .broker
            .subscribe_with_proof(member.principal.clone(), &path, &member.proof, throwaway)
            .is_err(),
    );

    // Warm every cache a served run has warm: one admission per subject.
    // The shadow memo sees each chain once too, so the children hit.
    let shadow_ctx = VerifyCtx::at(now).with_chain_memo(Arc::new(ChainMemo::new(1024)));
    let sink = Arc::new(CountingSink(AtomicUsize::new(0)));
    for member in &world.members {
        let topic = topic_of(member.team);
        let path: Vec<&str> = topic.iter().map(String::as_str).collect();
        let tag = request_tag(inputs::OBJECT_NS, &path, "subscribe");
        stack
            .http
            .respond(&admission::authz_request(member, member.team));
        let id = stack
            .broker
            .subscribe_with_proof(
                member.principal.clone(),
                &path,
                &member.proof,
                Arc::clone(&sink) as Arc<dyn SubscriberSink>,
            )
            .map_err(|e| format!("warm-up admission: {e}"))?;
        stack.broker.unsubscribe(id);
        shadow_ctx
            .authorize(&member.proof, &member.principal, &issuer, &tag)
            .map_err(|e| format!("warm-up verification: {e}"))?;
    }

    let mut tracer = Tracer::new();
    let (mut ops, mut failed) = (0, 0);
    let budget = budget.start();
    while budget.allows(ops) {
        let plan = &plans[ops % plans.len()];
        let a = &plan[(ops / plans.len()) % plan.len()];
        let member = &world.members[a.member];
        let op = ops as u64;
        tracer.begin_op(op);
        ops += 1;
        // Whichever of a root and its children runs first pays for the
        // cold caches; alternating shares that cost between them.
        let root_first = op.is_multiple_of(2);

        // Ask: the HTTP half.  `respond` is the real server's path; under
        // it, the endpoint's evaluation is the root the layers explain.
        let (_, parsed) = tracer.span("http.request_parse", None, || {
            HttpRequest::read_from(&mut &a.authz[..])
        });
        let Ok(Some(req)) = parsed else {
            failed += 1;
            continue;
        };
        let respond = tracer.reserve("http.respond", None);
        let mut resp = root_first.then(|| tracer.fill(respond, || stack.http.respond(&req)));
        let (_, question) = tracer.span("broker.json_parse", Some(respond), || {
            AuthzRequest::from_json(&req.body)
        });
        let Ok(question) = question else {
            failed += 1;
            continue;
        };
        let evaluate = tracer.reserve("broker.evaluate", Some(respond));
        let mut verdict =
            root_first.then(|| tracer.fill(evaluate, || stack.authz.evaluate(&question)));
        let path: Vec<&str> = question.object_path.iter().map(String::as_str).collect();
        let (_, (subject, tag)) = tracer.span("tags.path_to_tag", Some(evaluate), || {
            (
                question.subject_principal(),
                request_tag(&question.object_ns, &path, &question.action),
            )
        });
        let (_, found) = tracer.span("prover.find_proof", Some(evaluate), || {
            stack.prover.find_proof(&subject, &issuer, &tag, now)
        });
        let mut ok = found.as_ref().is_some_and(|proof| {
            let (_, verified) = tracer.span("core.verify_memo", Some(evaluate), || {
                shadow_ctx.authorize(proof, &subject, &issuer, &tag)
            });
            tracer.span("core.cert_hashes", Some(evaluate), || proof.cert_hashes());
            verified.is_ok()
        });
        let verdict = verdict
            .take()
            .unwrap_or_else(|| tracer.fill(evaluate, || stack.authz.evaluate(&question)));
        ok &= verdict.allowed;
        audit.emit(&mut tracer, Some(respond), &*stack.sink, op, || {
            DecisionEvent::new(
                now,
                "authz",
                Decision::Grant,
                &question.object_string(),
                &question.action,
                &verdict.detail,
            )
            .with_subject(subject.clone())
            .with_certs(verdict.cert_hashes.clone())
        });
        let mut resp = resp
            .take()
            .unwrap_or_else(|| tracer.fill(respond, || stack.http.respond(&req)));
        resp.set_header("Connection", "keep-alive");
        tracer.span("http.response_write", None, || response_bytes(&resp));
        ok &= resp.status == 200 && resp.body == admission::ALLOW_BODY;

        // Subscribe: the frame steps of the broker's handshake, then the
        // grant as the second root.
        let (_, frame) = tracer.span("sexpr.parse", None, || Sexp::parse(&a.subscribe));
        let Ok(frame) = frame else {
            failed += 1;
            continue;
        };
        let (_, decoded) = tracer.span("core.proof_decode", None, || {
            let subject = Principal::from_sexp(frame.find_value("subject")?).ok()?;
            let proof = Proof::from_sexp(frame.find_value("proof")?).ok()?;
            Some((subject, proof))
        });
        let Some((subject, proof)) = decoded else {
            failed += 1;
            continue;
        };
        let topic = topic_of(member.team);
        let path: Vec<&str> = topic.iter().map(String::as_str).collect();
        let subscribe = tracer.reserve("broker.subscribe", None);
        let grant = |tracer: &mut Tracer| {
            tracer.fill(subscribe, || {
                stack.broker.subscribe_with_proof(
                    subject.clone(),
                    &path,
                    &proof,
                    Arc::clone(&sink) as Arc<dyn SubscriberSink>,
                )
            })
        };
        let mut granted = root_first.then(|| grant(&mut tracer));
        let (_, tag) = tracer.span("tags.path_to_tag", Some(subscribe), || {
            request_tag(inputs::OBJECT_NS, &path, "subscribe")
        });
        let (_, verified) = tracer.span("core.verify_memo", Some(subscribe), || {
            shadow_ctx.authorize(&proof, &subject, &issuer, &tag)
        });
        ok &= verified.is_ok();
        let (_, certs) = tracer.span("core.cert_hashes", Some(subscribe), || proof.cert_hashes());
        audit.emit(&mut tracer, Some(subscribe), &*stack.sink, op, || {
            DecisionEvent::new(
                now,
                "broker-sub",
                Decision::Grant,
                &format!("{}:/{}", inputs::OBJECT_NS, path.join("/")),
                "subscribe",
                "subscription established; stream parked on reactor",
            )
            .with_subject(subject.clone())
            .with_certs(certs.clone())
        });
        match granted.take().unwrap_or_else(|| grant(&mut tracer)) {
            Ok(id) => {
                stack.broker.unsubscribe(id);
            }
            Err(_) => ok = false,
        }
        failed += usize::from(!ok);

        // Every 64th admission, one publish to each room: the fan-out to
        // all standing subscribers, timed until the last delivery.
        if ops % 64 == 0 {
            let before = standing.0.load(Ordering::SeqCst);
            let (_, published) = tracer.span("broker.publish_fanout", None, || {
                for team in 0..inputs::TEAMS {
                    let topic = topic_of(team);
                    let path: Vec<&str> = topic.iter().map(String::as_str).collect();
                    if stack.broker.publish(&path, b"tick").is_err() {
                        return false;
                    }
                }
                let deadline = Instant::now() + Duration::from_secs(5);
                while standing.0.load(Ordering::SeqCst) < before + inputs::STANDING_SUBSCRIBERS {
                    if Instant::now() > deadline {
                        return false;
                    }
                    std::hint::spin_loop();
                }
                true
            });
            failed += usize::from(!published);
        }
    }
    let audit_bytes_per_decision = audit.flush(&mut tracer);
    Ok(Replayed {
        tracer,
        ops,
        failed,
        notes,
        audit_bytes_per_decision,
    })
}
