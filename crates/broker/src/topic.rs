//! The protected topic broker: `subscribe` as a first-class action.
//!
//! A topic is an object path vector (e.g. `["rooms", ROOM_ID, "events"]`)
//! whose action table grants `subscribe`.  Authorization runs **once**,
//! at subscribe time — the paper's end-to-end argument applied to a
//! stream: the broker sees the whole delegation chain when the stream is
//! established, and every subsequent publish rides that grant.
//!
//! What keeps a one-time check honest is *revalidation by revocation
//! push*: the broker records each grant's certificate provenance
//! ([`snowflake_core::Proof::cert_hashes`]) and implements
//! [`RevocationBus`], so when a certificate dies the broker cuts exactly
//! the streams whose grants rested on it — mid-stream, by closing the
//! reactor sink so the remote sees EOF, with no polling and no effect on
//! other subscribers.
//!
//! Subscribers park **write-only** on the reactor ([`SinkHandle`]): ten
//! thousand idle streams cost ten thousand parked fds, not ten thousand
//! threads.  Publishes fan out on the worker pool; a saturated pool
//! sheds the publish (counted, audited) rather than queueing unboundedly.
//! Whenever the reactor drops a sink — the subscriber hung up, or stalled
//! past the sink buffer cap — its close callback prunes the subscription
//! here, so a churned subscriber costs nothing once its connection is
//! gone, publish or no publish.

use snowflake_channel::transport::{length_prefixed, scan_frame};
use snowflake_channel::{TcpTransport, Transport};
use snowflake_core::audit::AuditEmitter;
use snowflake_core::{Epoch, Principal, Proof, ProvenanceMap, Time};
use snowflake_crypto::HashVal;
use snowflake_metrics::{Registry, Sample};
use snowflake_prover::Prover;
use snowflake_revocation::RevocationBus;
use snowflake_runtime::{
    ConnDriver, Deciding, FrameScan, ListenerHandle, ReadyOutcome, ServerRuntime, SinkHandle,
    SubmitError, Surface, Verdict,
};
use snowflake_sexpr::Sexp;
use snowflake_tags::path_vector::{self, ActionTable};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A destination for published frames.
///
/// The production sink is a reactor [`SinkHandle`]; tests and in-process
/// subscribers (and the presence-scale bench, which parks thousands of
/// subscribers without burning fds) implement this in memory.
pub trait SubscriberSink: Send + Sync {
    /// Queues one frame.  Returns `false` once the subscriber is gone —
    /// the broker drops the subscription.
    fn deliver(&self, frame: &[u8]) -> bool;
    /// Is the subscriber still connected?
    fn is_open(&self) -> bool;
    /// Severs the subscriber now (revocation cut): the remote observes
    /// EOF without polling.
    fn close(&self);
}

impl SubscriberSink for SinkHandle {
    fn deliver(&self, frame: &[u8]) -> bool {
        self.send(frame)
    }
    fn is_open(&self) -> bool {
        SinkHandle::is_open(self)
    }
    fn close(&self) {
        SinkHandle::close(self);
    }
}

/// Why a subscribe was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeError {
    /// The topic shape has no `subscribe` row in the action table
    /// (includes malformed/unknown paths — fail closed).
    NoSuchTopic,
    /// No proof authorizes the subject to subscribe (reason inside).
    Unauthorized(String),
    /// The broker is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubscribeError::NoSuchTopic => f.write_str("no such topic"),
            SubscribeError::Unauthorized(r) => write!(f, "unauthorized: {r}"),
            SubscribeError::ShuttingDown => f.write_str("shutting down"),
        }
    }
}

/// Cumulative broker counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Streams currently subscribed.
    pub subscribers: u64,
    /// Subscribes granted, ever.
    pub subscribes: u64,
    /// Subscribes denied, ever.
    pub denied_subscribes: u64,
    /// Publishes accepted onto the pool, ever.
    pub publishes: u64,
    /// Publishes shed because the pool was saturated, ever.
    pub shed_publishes: u64,
    /// Frames delivered to subscriber sinks, ever.
    pub deliveries: u64,
    /// Subscriptions dropped because their sink died (peer hung up or
    /// stalled past the buffer cap), ever.
    pub pruned: u64,
    /// Streams cut by revocation push, ever.
    pub cut_streams: u64,
}

struct Subscription {
    topic: Vec<String>,
    subject: Principal,
    sink: Arc<dyn SubscriberSink>,
}

struct Counters {
    subscribes: AtomicU64,
    denied_subscribes: AtomicU64,
    publishes: AtomicU64,
    shed_publishes: AtomicU64,
    deliveries: AtomicU64,
    pruned: AtomicU64,
    cut_streams: AtomicU64,
}

/// The broker: one object namespace, one controlling issuer, one table
/// of subscribable topic shapes, and the live subscription set.
pub struct TopicBroker {
    runtime: Arc<ServerRuntime>,
    prover: Arc<Prover>,
    namespace: String,
    issuer: Principal,
    table: ActionTable,
    /// Live subscriptions by id; each slot's provenance is the grant's
    /// [`Proof::cert_hashes`], so a revocation hands back exactly the
    /// streams to cut.
    subs: ProvenanceMap<u64, Subscription>,
    next_id: AtomicU64,
    counters: Counters,
    /// The `broker-sub` surface: the subscribe listener, subscribe-path
    /// latency (handshake + in-process subscribe), and the memoized
    /// verification context (re-subscribes present the same chain; a
    /// revocation source attached here is consulted on every decision).
    sub: Arc<Surface>,
    /// The `broker-publish` sibling: publish acceptance latency and
    /// publish sheds.
    publish: Surface,
    /// The `broker-push` sibling every subscriber sink is adopted under:
    /// stalled sinks are shed on it, revocation cuts audited on it.
    push: Arc<Surface>,
}

impl TopicBroker {
    /// A broker for `namespace`, whose topics are controlled by `issuer`
    /// and enumerated (with their `subscribe` rows) in `table`.
    pub fn new(
        runtime: Arc<ServerRuntime>,
        prover: Arc<Prover>,
        namespace: &str,
        issuer: Principal,
        table: ActionTable,
    ) -> Arc<TopicBroker> {
        Self::with_clock(runtime, prover, namespace, issuer, table, Time::now)
    }

    /// A broker with an injected clock (tests, benches).
    pub fn with_clock(
        runtime: Arc<ServerRuntime>,
        prover: Arc<Prover>,
        namespace: &str,
        issuer: Principal,
        table: ActionTable,
        clock: fn() -> Time,
    ) -> Arc<TopicBroker> {
        let sub = Surface::new("broker-sub")
            .with_clock(clock)
            .with_shed_reply(deny_frame);
        Arc::new(TopicBroker {
            runtime,
            prover,
            namespace: namespace.to_string(),
            issuer,
            table,
            subs: ProvenanceMap::unbounded(),
            next_id: AtomicU64::new(1),
            counters: Counters {
                subscribes: AtomicU64::new(0),
                denied_subscribes: AtomicU64::new(0),
                publishes: AtomicU64::new(0),
                shed_publishes: AtomicU64::new(0),
                deliveries: AtomicU64::new(0),
                pruned: AtomicU64::new(0),
                cut_streams: AtomicU64::new(0),
            },
            publish: sub.sibling("broker-publish"),
            push: Arc::new(sub.sibling("broker-push")),
            sub: Arc::new(sub),
        })
    }

    /// Registers the broker's counters and gauges with `registry`: the
    /// live subscriber gauge, the `sf_broker_*` counters behind
    /// [`TopicBroker::stats`], and the chain memo under
    /// `surface="broker-sub"`.  Dropping the broker retires its collector
    /// output on the next scrape.
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        registry.set_help("sf_broker_subscribers", "Live subscriptions parked on the broker");
        registry.set_help("sf_broker_subscribes_total", "Granted subscriptions");
        registry.set_help("sf_broker_denied_subscribes_total", "Refused subscriptions");
        registry.set_help("sf_broker_publishes_total", "Accepted publishes");
        registry.set_help("sf_broker_shed_publishes_total", "Publishes shed by a saturated pool");
        registry.set_help("sf_broker_deliveries_total", "Frames delivered to subscriber sinks");
        registry.set_help("sf_broker_pruned_total", "Dead subscriptions pruned");
        registry.set_help("sf_broker_cut_streams_total", "Streams cut by revocation push");
        let weak = Arc::downgrade(self);
        registry.register_collector(
            "broker",
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(broker) = weak.upgrade() else { return };
                let s = broker.stats();
                out.push(Sample::gauge("sf_broker_subscribers", &[], s.subscribers as f64));
                out.push(Sample::counter("sf_broker_subscribes_total", &[], s.subscribes));
                out.push(Sample::counter(
                    "sf_broker_denied_subscribes_total",
                    &[],
                    s.denied_subscribes,
                ));
                out.push(Sample::counter("sf_broker_publishes_total", &[], s.publishes));
                out.push(Sample::counter(
                    "sf_broker_shed_publishes_total",
                    &[],
                    s.shed_publishes,
                ));
                out.push(Sample::counter("sf_broker_deliveries_total", &[], s.deliveries));
                out.push(Sample::counter("sf_broker_pruned_total", &[], s.pruned));
                out.push(Sample::counter("sf_broker_cut_streams_total", &[], s.cut_streams));
            }),
        );
        self.sub.register_metrics(registry);
    }

    /// The subscribe surface (e.g. to attach a revocation source); its
    /// `broker-publish` and `broker-push` siblings share its emitter and
    /// verification context.
    pub fn surface(&self) -> &Arc<Surface> {
        &self.sub
    }

    /// Attaches an audit emitter; grants, denials, sheds, prunes, and
    /// revocation cuts are recorded through it.
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.sub.set_audit_emitter(emitter);
    }

    /// The namespace this broker serves.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// Current counters.
    pub fn stats(&self) -> BrokerStats {
        BrokerStats {
            subscribers: self.subs.len() as u64,
            subscribes: self.counters.subscribes.load(Ordering::SeqCst),
            denied_subscribes: self.counters.denied_subscribes.load(Ordering::SeqCst),
            publishes: self.counters.publishes.load(Ordering::SeqCst),
            shed_publishes: self.counters.shed_publishes.load(Ordering::SeqCst),
            deliveries: self.counters.deliveries.load(Ordering::SeqCst),
            pruned: self.counters.pruned.load(Ordering::SeqCst),
            cut_streams: self.counters.cut_streams.load(Ordering::SeqCst),
        }
    }

    fn topic_string<S: std::borrow::Borrow<str>>(&self, path: &[S]) -> String {
        format!("{}:/{}", self.namespace, path.join("/"))
    }

    /// Decides one subscribe on the `broker-sub` surface.  `f` runs at the
    /// decision's instant and returns what the grant makes live plus the
    /// grant's provenance, or the refusal, which is counted here.
    fn decide_subscribe<T>(
        &self,
        subject: &Principal,
        path: &[&str],
        f: impl FnOnce(&Deciding<'_>) -> Result<(T, Arc<[HashVal]>), SubscribeError>,
    ) -> Result<T, SubscribeError> {
        self.sub.decide(&self.topic_string(path), "subscribe", |d| match f(d) {
            Ok((granted, certs)) => (
                Verdict::grant("subscription established; stream parked on reactor")
                    .subject(subject.clone())
                    .certs(certs),
                Ok(granted),
            ),
            Err(e) => {
                self.counters.denied_subscribes.fetch_add(1, Ordering::SeqCst);
                (Verdict::deny(e.to_string()).subject(subject.clone()), Err(e))
            }
        })
    }

    /// Does the table have the topic, and does a chain — `proof`, or one
    /// the broker's own prover finds — authorize `subject` on it at the
    /// decision's instant?  A grant comes back with the proof's
    /// certificate provenance, as verification produced it.
    fn authorize(
        &self,
        d: &Deciding<'_>,
        subject: &Principal,
        path: &[&str],
        proof: Option<&Proof>,
    ) -> Result<Arc<[HashVal]>, SubscribeError> {
        if !self.table.permits(path, "subscribe") {
            return Err(SubscribeError::NoSuchTopic);
        }
        let tag = path_vector::request_tag(&self.namespace, path, "subscribe");
        let found;
        let proof = match proof {
            Some(proof) => proof,
            None => {
                found = self
                    .prover
                    .find_proof(subject, &self.issuer, &tag, d.now)
                    .ok_or_else(|| {
                        SubscribeError::Unauthorized(
                            "no delegation chain from issuer to subject".into(),
                        )
                    })?;
                &found
            }
        };
        d.verify_ctx()
            .authorize(proof, subject, &self.issuer, &tag)
            .map_err(|e| SubscribeError::Unauthorized(e.to_string()))
    }

    /// Makes a decided grant live: parks `sink` under `id` with the
    /// grant's provenance `certs` — unless a revocation landed since
    /// `token` was read, which refuses instead of parking a stream on a
    /// superseded verdict.
    fn register(
        &self,
        token: Epoch,
        certs: &Arc<[HashVal]>,
        id: u64,
        subject: &Principal,
        path: &[&str],
        sink: Arc<dyn SubscriberSink>,
        now: Time,
    ) -> Result<(), SubscribeError> {
        let sub = Subscription {
            topic: path.iter().map(|s| s.to_string()).collect(),
            subject: subject.clone(),
            sink,
        };
        if !self.subs.insert(token, id, sub, Arc::clone(certs), None, now) {
            return Err(SubscribeError::Unauthorized(
                "a revocation landed since the proof was verified; present it again".into(),
            ));
        }
        self.counters.subscribes.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Decides and, on grant, registers one in-process subscription.  The
    /// token is read *before* the decision reads its clock, so a
    /// revocation push landing during the decision refuses the insert.
    fn subscribe(
        &self,
        subject: Principal,
        path: &[&str],
        proof: Option<&Proof>,
        sink: Arc<dyn SubscriberSink>,
    ) -> Result<u64, SubscribeError> {
        let _timer = self.sub.latency().start_timer();
        let token = self.subs.epoch();
        self.decide_subscribe(&subject, path, |d| {
            let certs = self.authorize(d, &subject, path, proof)?;
            let id = self.next_id.fetch_add(1, Ordering::SeqCst);
            self.register(token, &certs, id, &subject, path, sink, d.now)?;
            Ok((id, certs))
        })
    }

    /// Grants or refuses one subscription given an explicit proof (the
    /// wire path: remote subscribers present their own chain, "the
    /// client is responsible to know and exploit its group memberships").
    /// On grant the sink is registered and the subscription id returned.
    pub fn subscribe_with_proof(
        &self,
        subject: Principal,
        path: &[&str],
        proof: &Proof,
        sink: Arc<dyn SubscriberSink>,
    ) -> Result<u64, SubscribeError> {
        self.subscribe(subject, path, Some(proof), sink)
    }

    /// Subscribes an in-process subject, letting the broker's own prover
    /// search for the chain (local agents, tests, the presence bench).
    pub fn subscribe_local(
        &self,
        subject: Principal,
        path: &[&str],
        sink: Arc<dyn SubscriberSink>,
    ) -> Result<u64, SubscribeError> {
        self.subscribe(subject, path, None, sink)
    }

    /// Drops a subscription (voluntary unsubscribe or sink death).
    pub fn unsubscribe(&self, id: u64) -> bool {
        self.subs.remove(&id).is_some()
    }

    /// Publishes `data` to every subscriber of `path`.  The fan-out runs
    /// on the worker pool; a saturated pool sheds the publish — counted
    /// in the per-surface ledger and audited — instead of queueing.
    /// Returns `Ok` once the fan-out is *accepted*, not delivered.
    pub fn publish(self: &Arc<Self>, path: &[&str], data: &[u8]) -> Result<(), SubmitError> {
        let _timer = self.publish.latency().start_timer();
        let owned: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        let permit = match self.runtime.pool().try_permit() {
            Ok(p) => p,
            Err(e) => {
                self.counters.shed_publishes.fetch_add(1, Ordering::SeqCst);
                self.runtime.shed_ledger().record(self.publish.name());
                self.publish.audit_shed(
                    &self.topic_string(&owned),
                    "publish",
                    "worker pool saturated; publish shed",
                );
                return Err(e);
            }
        };
        self.counters.publishes.fetch_add(1, Ordering::SeqCst);
        // The job holds a strong reference, but only for its own brief
        // run — no cycle, the pool drops it after the fan-out.
        let broker = Arc::clone(self);
        // Sinks write raw bytes (the reactor adds no framing), so the
        // wire frame carries its own length prefix.
        let frame = length_prefixed(&publish_frame(&owned, data));
        permit.submit(move || broker.fan_out(&owned, &frame));
        Ok(())
    }

    /// Delivers one already-encoded frame to every live subscriber of
    /// `path`, pruning (and auditing) subscriptions whose sink is gone.
    fn fan_out(&self, path: &[String], frame: &[u8]) {
        let targets: Vec<(u64, Arc<dyn SubscriberSink>)> = self
            .subs
            .collect(|id, s| (s.topic[..] == *path).then(|| (*id, Arc::clone(&s.sink))));
        let mut dead = Vec::new();
        for (id, sink) in targets {
            if sink.deliver(frame) {
                self.counters.deliveries.fetch_add(1, Ordering::SeqCst);
            } else {
                dead.push(id);
            }
        }
        // A sink the reactor dropped was already pruned by its close
        // callback (and a stall's shed audited by the reactor); what is
        // left here died some other way.
        for id in dead {
            let Some(sub) = self.prune(id) else { continue };
            self.push.record(
                &self.topic_string(&sub.topic),
                "publish",
                Verdict::shed("push sink dead at delivery").subject(sub.subject),
            );
        }
    }

    /// Removes (and counts) a subscription whose sink died.
    fn prune(&self, id: u64) -> Option<Subscription> {
        let sub = self.subs.remove(&id)?;
        self.counters.pruned.fetch_add(1, Ordering::SeqCst);
        Some(sub)
    }

    /// Registers a subscribe listener on the runtime's reactor.  Each
    /// accepted connection parks until its one framed `(subscribe (path
    /// s…) (subject P) (proof …))` arrives, decided as an ordinary frame
    /// job; on grant the reactor turns it into a write-only sink in place.
    pub fn attach_subscribe_listener(
        self: &Arc<Self>,
        listener: TcpListener,
    ) -> io::Result<ListenerHandle> {
        // Long-lived reactor closures hold a Weak: `Arc<TopicBroker>`
        // would cycle (broker → runtime → reactor → listeners → broker).
        let broker = Arc::downgrade(self);
        self.runtime.reactor().register_listener(
            listener,
            Arc::clone(&self.sub),
            Box::new(move || Box::new(SubscribeDriver(broker.clone()))),
        )
    }

    /// Decides one wire subscribe frame: a refusal is `(sub-deny reason)`,
    /// a grant `sub-ok` and a sink, registered once the reactor hands it over.
    fn admit(self: &Arc<Self>, frame: &[u8]) -> ReadyOutcome {
        let _timer = self.sub.latency().start_timer();
        let (subject, path, proof) = match parse_subscribe(frame) {
            Ok(parts) => parts,
            Err(reason) => {
                self.counters.denied_subscribes.fetch_add(1, Ordering::SeqCst);
                return self.sub.decide("malformed-request", "subscribe", |_| {
                    (
                        Verdict::deny(format!("rejected unparseable subscribe frame: {reason}")),
                        ReadyOutcome::ReplyClose(deny_frame(&reason)),
                    )
                });
            }
        };
        let refs: Vec<&str> = path.iter().map(String::as_str).collect();
        // Decide BEFORE the connection becomes a sink: an unauthorized
        // peer never occupies a sink slot.  The token is read before the
        // decision, so a revocation landing before registration refuses it.
        let token = self.subs.epoch();
        let granted = self.decide_subscribe(&subject, &refs, |d| {
            let certs = self.authorize(d, &subject, &refs, Some(&proof))?;
            Ok((Arc::clone(&certs), certs))
        });
        let certs = match granted {
            Ok(certs) => certs,
            Err(e) => return ReadyOutcome::ReplyClose(deny_frame(&e.to_string())),
        };
        // Whenever the reactor drops the sink (hangup, stall, drain) the
        // callback prunes the subscription; a stall is counted and
        // audited on the push surface.
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let close_broker = Arc::downgrade(self);
        let on_close = Box::new(move || {
            if let Some(b) = close_broker.upgrade() {
                b.prune(id);
            }
        });
        let broker = Arc::downgrade(self);
        ReadyOutcome::Sink {
            reply: length_prefixed(&Sexp::tagged("sub-ok", vec![]).canonical()),
            surface: Arc::clone(&self.push),
            on_close,
            adopted: Box::new(move |sink| {
                let sink = Arc::new(sink);
                let Some(broker) = broker.upgrade() else {
                    return sink.close();
                };
                let refs: Vec<&str> = path.iter().map(String::as_str).collect();
                // A grant overtaken by a revocation is cut like any stream
                // built on the dead certificate: the peer sees EOF after
                // `sub-ok`, and the cut is recorded on the push surface.
                // A peer that hung up before registration had its close
                // callback run too early to find the subscription; prune
                // it here instead.
                let registered = broker.register(
                    token,
                    &certs,
                    id,
                    &subject,
                    &refs,
                    Arc::clone(&sink) as _,
                    broker.sub.now(),
                );
                if let Err(e) = registered {
                    broker.counters.denied_subscribes.fetch_add(1, Ordering::SeqCst);
                    broker.push.record(
                        &broker.topic_string(&refs),
                        "subscribe",
                        Verdict::revoke(e.to_string()).subject(subject).certs(certs),
                    );
                    sink.close();
                } else if !sink.is_open() {
                    broker.prune(id);
                }
            }),
        }
    }
}

/// A subscribe connection before its grant: scans one length-prefixed
/// frame and hands it to [`TopicBroker::admit`].
struct SubscribeDriver(Weak<TopicBroker>);

impl ConnDriver for SubscribeDriver {
    fn scan(&mut self, buf: &[u8]) -> FrameScan {
        scan_frame(buf).into()
    }

    fn handle(&mut self, frame: Vec<u8>) -> ReadyOutcome {
        match self.0.upgrade() {
            Some(broker) => broker.admit(&frame[4..]),
            None => ReadyOutcome::Close,
        }
    }

    fn busy_reply(&mut self) -> Option<Vec<u8>> {
        Some(deny_frame("worker pool saturated"))
    }
}

/// The revocation-push entry point: one dead certificate cuts exactly
/// the streams whose subscribe-grant provenance includes it.
impl RevocationBus for TopicBroker {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        // Drop memoized chains first so no re-subscribe can ride a stale
        // verification while the stream cuts below are in flight.
        self.sub.chain_memo().evict_cert(cert_hash);
        let cut = self.subs.evict_cert(cert_hash);
        // Close and audit outside any lock: `close` wakes the reactor
        // and emitters may do real work.
        for (_, sub, certs) in &cut {
            sub.sink.close();
            self.counters.cut_streams.fetch_add(1, Ordering::SeqCst);
            self.push.record(
                &self.topic_string(&sub.topic),
                "subscribe",
                Verdict::revoke(format!(
                    "grant provenance includes revoked cert {}; stream cut",
                    cert_hash.short_hex()
                ))
                .subject(sub.subject.clone())
                .certs(Arc::clone(certs)),
            );
        }
        cut.len()
    }
}

/// `(sub-deny reason)`, framed for a [`TcpTransport`] on the other end.
fn deny_frame(reason: &str) -> Vec<u8> {
    let deny = Sexp::tagged("sub-deny", vec![Sexp::atom(reason.as_bytes().to_vec())]);
    length_prefixed(&deny.canonical())
}

/// Encodes one publish frame, `(publish (path s…) (data bytes))`.
pub fn publish_frame(path: &[String], data: &[u8]) -> Vec<u8> {
    Sexp::tagged(
        "publish",
        vec![
            Sexp::tagged(
                "path",
                path.iter()
                    .map(|s| Sexp::atom(s.as_bytes().to_vec()))
                    .collect(),
            ),
            Sexp::tagged("data", vec![Sexp::atom(data.to_vec())]),
        ],
    )
    .canonical()
}

fn parse_subscribe(frame: &[u8]) -> Result<(Principal, Vec<String>, Proof), String> {
    let e = Sexp::parse(frame).map_err(|e| e.to_string())?;
    if e.tag_name() != Some("subscribe") {
        return Err("expected (subscribe …)".into());
    }
    let path = e
        .find("path")
        .and_then(Sexp::tag_body)
        .ok_or("missing (path …)")?
        .iter()
        .map(|s| s.as_str().map(str::to_string).ok_or("non-atom path segment"))
        .collect::<Result<Vec<_>, _>>()?;
    if path.is_empty() {
        return Err("empty path".into());
    }
    let subject = Principal::from_sexp(
        e.find_value("subject").ok_or("missing (subject …)")?,
    )
    .map_err(|e| e.to_string())?;
    let proof =
        Proof::from_sexp(e.find_value("proof").ok_or("missing (proof …)")?)
            .map_err(|e| e.to_string())?;
    Ok((subject, path, proof))
}

/// Encodes one subscribe frame (client side).
pub fn subscribe_frame(path: &[&str], subject: &Principal, proof: &Proof) -> Vec<u8> {
    Sexp::tagged(
        "subscribe",
        vec![
            Sexp::tagged(
                "path",
                path.iter()
                    .map(|s| Sexp::atom(s.as_bytes().to_vec()))
                    .collect(),
            ),
            Sexp::tagged("subject", vec![subject.to_sexp()]),
            Sexp::tagged("proof", vec![proof.to_sexp()]),
        ],
    )
    .canonical()
}

/// Client-side subscribe: connects, presents the proof, and returns the
/// transport ready to [`read_publish`] on grant, or the deny reason.
pub fn subscribe_stream(
    addr: std::net::SocketAddr,
    path: &[&str],
    subject: &Principal,
    proof: &Proof,
) -> io::Result<Result<TcpTransport, String>> {
    let stream = std::net::TcpStream::connect(addr)?;
    let mut transport = TcpTransport::new(stream);
    transport.send(&subscribe_frame(path, subject, proof))?;
    let reply = transport.recv()?;
    let e = Sexp::parse(&reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    match e.tag_name() {
        Some("sub-ok") => Ok(Ok(transport)),
        Some("sub-deny") => Ok(Err(e
            .tag_body()
            .and_then(<[Sexp]>::first)
            .and_then(Sexp::as_str)
            .unwrap_or("denied")
            .to_string())),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unrecognized subscribe reply",
        )),
    }
}

/// Client-side read of one publish frame: `(path, data)`.
pub fn read_publish(transport: &mut TcpTransport) -> io::Result<(Vec<String>, Vec<u8>)> {
    let frame = transport.recv()?;
    let e = Sexp::parse(&frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed publish frame");
    if e.tag_name() != Some("publish") {
        return Err(bad());
    }
    let path = e
        .find("path")
        .and_then(Sexp::tag_body)
        .ok_or_else(bad)?
        .iter()
        .map(|s| s.as_str().map(str::to_string).ok_or_else(bad))
        .collect::<Result<Vec<_>, _>>()?;
    let data = e
        .find_value("data")
        .and_then(Sexp::as_atom)
        .ok_or_else(bad)?
        .to_vec();
    Ok((path, data))
}
