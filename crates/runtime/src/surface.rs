//! The one value a decision point holds.
//!
//! Every server surface — the HTTP server, the protected servlet, the RMI
//! skeleton, the authz facade, the quoting gateway, the topic broker, the
//! revocation push sinks, `/metrics` — makes the same decision (does a
//! live, unrevoked chain show that the requester speaks for the issuer
//! regarding this tag?) and needs the same plumbing around it.  A
//! [`Surface`] is that plumbing, defined once:
//!
//! * its **name**, the label its latency, memo and shed-ledger rows carry;
//! * its **clock**, which timestamps its audit events and verifications;
//! * its **audit emitter**, late-bound, so un-audited deployments pay one
//!   read lock per decision and nothing else;
//! * its **latency histogram**, `request_histogram(name)`, created on
//!   first use so a surface that never serves adds no empty series;
//! * its base **verification context**: a [`ChainMemo`] of
//!   [`CHAIN_MEMO_CAPACITY`] entries plus the attached
//!   [`RevocationSource`] (a freshness agent, or a
//!   [`snowflake_core::RevocationTable`] of installed lists) — every
//!   verification starts from a clone of it, a few `Arc` bumps that copy
//!   no list, so a surface cannot verify outside the memo or without its
//!   revocation data;
//! * its **shed reply**, the bytes a connection it refuses hears.
//!
//! The reactor audits every shed itself through the surface (one `Shed`
//! event under the surface's name, next to the ledger count), so no
//! server wires its own shed hook.

use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent, EmitterSlot};
use snowflake_core::sync::LockExt;
use snowflake_core::{ChainMemo, Delegation, RevocationSource, Time, VerifyCtx};
use snowflake_metrics::{LatencyHistogram, Registry};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, OnceLock};

/// Entries in every surface's verified-chain memo (roughly; the memo is
/// sharded).
pub const CHAIN_MEMO_CAPACITY: usize = 1024;

type ShedReply = Box<dyn Fn(&str) -> Vec<u8> + Send + Sync>;

/// One decision point: name, clock, audit emitter, latency histogram,
/// memoized verification context, and shed reply.
pub struct Surface {
    name: String,
    clock: fn() -> Time,
    audit: Arc<EmitterSlot>,
    ctx: Arc<Mutex<VerifyCtx>>,
    memo: Arc<ChainMemo>,
    latency: OnceLock<Arc<LatencyHistogram>>,
    shed_reply: Option<ShedReply>,
}

impl Surface {
    /// A surface with wall-clock time, no audit emitter, a fresh memo,
    /// and no shed reply.
    pub fn new(name: &str) -> Surface {
        let memo = Arc::new(ChainMemo::new(CHAIN_MEMO_CAPACITY));
        Surface {
            name: name.to_owned(),
            clock: Time::now,
            audit: Arc::new(EmitterSlot::new()),
            ctx: Arc::new(Mutex::new(
                VerifyCtx::default().with_chain_memo(Arc::clone(&memo)),
            )),
            memo,
            latency: OnceLock::new(),
            shed_reply: None,
        }
    }

    /// Replaces the clock (tests and benches inject fixed time).
    pub fn with_clock(mut self, clock: fn() -> Time) -> Surface {
        self.clock = clock;
        self
    }

    /// Sets the reply written (best-effort) to a connection shed at
    /// accept time; the closure receives the shed reason.
    pub fn with_shed_reply(
        mut self,
        f: impl Fn(&str) -> Vec<u8> + Send + Sync + 'static,
    ) -> Surface {
        self.shed_reply = Some(Box::new(f));
        self
    }

    /// Another decision point of the same service: the same clock, audit
    /// emitter and verification context (memo and revocation data), its
    /// own name, latency histogram and (no) shed reply.
    pub fn sibling(&self, name: &str) -> Surface {
        Surface {
            name: name.to_owned(),
            clock: self.clock,
            audit: Arc::clone(&self.audit),
            ctx: Arc::clone(&self.ctx),
            memo: Arc::clone(&self.memo),
            latency: OnceLock::new(),
            shed_reply: None,
        }
    }

    /// The surface's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The surface's current time.
    pub fn now(&self) -> Time {
        (self.clock)()
    }

    /// Attaches (or replaces) the audit emitter.
    pub fn set_audit_emitter(&self, emitter: Arc<dyn AuditEmitter>) {
        self.audit.set(emitter);
    }

    /// Emits `build()`'s event iff an emitter is attached.  The event
    /// names its own surface string, so one service may audit several
    /// (the servlet decides under `http` and `http-mac`).
    pub fn audit(&self, build: impl FnOnce() -> DecisionEvent) {
        self.audit.emit_with(build);
    }

    /// Audits one shed: a `Shed` event under this surface's name.
    pub fn audit_shed(&self, resource: &str, action: &str, detail: &str) {
        self.audit(|| {
            DecisionEvent::new(self.now(), &self.name, Decision::Shed, resource, action, detail)
        });
    }

    /// A connection refused at the accept edge: audited, then answered
    /// with the shed reply (best effort, nonblocking).
    pub(crate) fn refuse(&self, detail: &str, stream: &TcpStream) {
        self.audit_shed("tcp-accept", "connect", detail);
        if let Some(reply) = &self.shed_reply {
            let bytes = reply(detail);
            let _ = stream.set_nonblocking(true);
            let _ = (&*stream).write_all(&bytes);
        }
    }

    /// The request-latency histogram,
    /// `sf_request_duration_seconds{surface=name}`.
    pub fn latency(&self) -> &LatencyHistogram {
        self.latency
            .get_or_init(|| snowflake_metrics::request_histogram(&self.name))
    }

    /// Vouches for `stmt` in every later verification (a statement the
    /// deployment's own machinery stands behind).
    pub fn assume(&self, stmt: &Delegation) {
        self.ctx.plock().assume(stmt);
    }

    /// Attaches the revocation source — a freshness agent, or a
    /// [`snowflake_core::RevocationTable`] of installed lists — to every
    /// verification this surface performs, replacing any previous one.
    /// Changing installed lists means attaching a new table.
    pub fn set_revocation_source(&self, source: Arc<dyn RevocationSource>) {
        self.ctx.plock().set_revocation_source(source);
    }

    /// The context one decision verifies in: the base context (memo,
    /// assumptions, revocation source) at time `now`.
    pub fn verify_ctx(&self, now: Time) -> VerifyCtx {
        let mut ctx = self.ctx.plock().clone();
        ctx.now = now;
        ctx
    }

    /// The revocation epoch this surface currently decides against.
    pub fn revocation_epoch(&self) -> u64 {
        self.ctx.plock().revocation_epoch()
    }

    /// The verified-chain memo every verification consults.
    pub fn chain_memo(&self) -> &Arc<ChainMemo> {
        &self.memo
    }

    /// Registers the memo in `registry` under
    /// `sf_chain_memo_*{surface=name}`.
    pub fn register_metrics(&self, registry: &Registry) {
        self.memo.register_metrics(registry, &self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolConfig, WorkerPool};
    use crate::reactor::{ConnDriver, FrameScan, Reactor, ReactorConfig, ReadyOutcome};
    use crate::shed::ShedLedger;
    use snowflake_core::{Certificate, Delegation, HashVal, Principal, Proof, Tag, Validity};
    use snowflake_crypto::{DetRng, Group, KeyPair};
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn at_1000() -> Time {
        Time(1_000)
    }

    #[derive(Default)]
    struct Capture(Mutex<Vec<DecisionEvent>>);

    impl AuditEmitter for Capture {
        fn emit(&self, event: DecisionEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    impl Capture {
        fn sheds(&self, surface: &str) -> usize {
            let events = self.0.lock().unwrap();
            events
                .iter()
                .filter(|e| e.surface == surface && e.decision == Decision::Shed)
                .count()
        }
    }

    fn wait_for(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never held");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn rig(max_parked: usize) -> (Arc<WorkerPool>, Arc<ShedLedger>, Arc<Reactor>) {
        let pool = WorkerPool::new(PoolConfig::new("surface-test", 1, 4));
        let ledger = Arc::new(ShedLedger::new());
        let config = ReactorConfig {
            max_parked,
            idle_timeout: Duration::from_secs(10),
        };
        let reactor = Reactor::start(Arc::clone(&pool), Arc::clone(&ledger), config).unwrap();
        (pool, ledger, reactor)
    }

    struct Silent;

    impl ConnDriver for Silent {
        fn scan(&mut self, _buf: &[u8]) -> FrameScan {
            FrameScan::Partial
        }
        fn handle(&mut self, _frame: Vec<u8>) -> ReadyOutcome {
            ReadyOutcome::Close
        }
        fn busy_reply(&mut self) -> Option<Vec<u8>> {
            None
        }
    }

    /// A listener shed is one ledger count, one `Shed` event under the
    /// surface's name, and the surface's reply on the wire.
    #[test]
    fn listener_shed_is_counted_audited_and_answered_once() {
        let (pool, ledger, reactor) = rig(1);
        let audit = Arc::new(Capture::default());
        let surface = Arc::new(
            Surface::new("edge")
                .with_clock(at_1000)
                .with_shed_reply(|why| format!("SHED {why}\n").into_bytes()),
        );
        surface.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        reactor
            .register_listener(listener, surface, Box::new(|| Box::new(Silent)))
            .unwrap();

        let _first = TcpStream::connect(addr).unwrap();
        wait_for(|| reactor.stats().open_connections == 1);
        let mut refused = TcpStream::connect(addr).unwrap();
        let mut reply = String::new();
        refused.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("SHED parked-connection cap"), "{reply:?}");

        assert_eq!(ledger.by_surface(), vec![("edge".to_owned(), 1)]);
        assert_eq!(audit.sheds("edge"), 1);
        assert_eq!(audit.0.lock().unwrap()[0].time, Time(1_000));
        reactor.shutdown();
        pool.shutdown();
    }

    /// A stalled sink is one ledger count and one `Shed` event under the
    /// sink surface's name, and its close callback fires exactly once.
    #[test]
    fn sink_stall_is_counted_audited_and_called_back_once() {
        let (pool, ledger, reactor) = rig(16);
        let audit = Arc::new(Capture::default());
        let surface = Arc::new(Surface::new("push"));
        surface.set_audit_emitter(Arc::clone(&audit) as Arc<dyn AuditEmitter>);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let stalls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&stalls);
        let sink = reactor
            .adopt_sink(
                served,
                surface,
                Some(Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })),
            )
            .unwrap();

        // Never read on the client side: the kernel buffers fill, then the
        // reactor's cap trips.
        let chunk = vec![0u8; 64 * 1024];
        let mut sends = 0;
        while sink.send(&chunk) {
            sends += 1;
            assert!(sends < 10_000, "the sink never stalled");
        }
        assert!(!sink.send(&chunk), "a shed sink stays closed");

        assert_eq!(stalls.load(Ordering::SeqCst), 1);
        assert_eq!(ledger.by_surface(), vec![("push".to_owned(), 1)]);
        assert_eq!(audit.sheds("push"), 1);
        reactor.shutdown();
        pool.shutdown();
    }

    fn signed_chain() -> (Proof, Principal, Principal) {
        let mut rng = DetRng::new(b"surface-chain");
        let issuer = KeyPair::generate(Group::test512(), &mut |b| rng.fill(b));
        let subject = Principal::message(b"surface-subject");
        let stmt = Delegation {
            subject: subject.clone(),
            issuer: Principal::key(&issuer.public),
            tag: Tag::Star,
            validity: Validity::always(),
            delegable: false,
        };
        let cert = Certificate::issue(&issuer, stmt, &mut |b| rng.fill(b));
        (Proof::signed_cert(cert), subject, Principal::key(&issuer.public))
    }

    /// A repeated authorization through the surface's context answers
    /// from the memo, and siblings share it.
    #[test]
    fn repeated_authorize_is_a_memo_hit() {
        let surface = Surface::new("decide").with_clock(at_1000);
        let (proof, subject, issuer) = signed_chain();
        let now = surface.now();
        surface
            .verify_ctx(now)
            .authorize(&proof, &subject, &issuer, &Tag::Star)
            .unwrap();
        surface
            .sibling("decide-again")
            .verify_ctx(now)
            .authorize(&proof, &subject, &issuer, &Tag::Star)
            .unwrap();
        let stats = surface.chain_memo().stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");
    }

    /// A revocation source attached to the surface is consulted by every
    /// verification it hands out.
    #[test]
    fn attached_revocation_source_is_consulted() {
        struct Counting(AtomicUsize);
        impl RevocationSource for Counting {
            fn crl(&self, _validator: &HashVal, _now: Time) -> Option<Arc<snowflake_core::Crl>> {
                self.0.fetch_add(1, Ordering::SeqCst);
                None
            }
            fn revalidation(&self, _cert: &HashVal, _now: Time) -> Option<snowflake_core::Revalidation> {
                None
            }
            fn epoch(&self) -> u64 {
                0
            }
        }
        let mut rng = DetRng::new(b"surface-crl");
        let issuer = KeyPair::generate(Group::test512(), &mut |b| rng.fill(b));
        let subject = Principal::message(b"surface-crl-subject");
        let stmt = Delegation {
            subject: subject.clone(),
            issuer: Principal::key(&issuer.public),
            tag: Tag::Star,
            validity: Validity::always(),
            delegable: false,
        };
        let policy = snowflake_core::RevocationPolicy::Crl {
            validator: HashVal::of(b"some validator"),
        };
        let cert = Certificate::issue_with_revocation(&issuer, stmt, Some(policy), &mut |b| rng.fill(b));
        let proof = Proof::signed_cert(cert);

        let surface = Surface::new("revocable").with_clock(at_1000);
        let source = Arc::new(Counting(AtomicUsize::new(0)));
        surface.set_revocation_source(Arc::clone(&source) as Arc<dyn RevocationSource>);
        let refused = surface.verify_ctx(surface.now()).authorize(
            &proof,
            &subject,
            &Principal::key(&issuer.public),
            &Tag::Star,
        );
        assert!(refused.is_err(), "no CRL anywhere: fail closed");
        assert!(source.0.load(Ordering::SeqCst) >= 1, "the source was asked");
    }
}
