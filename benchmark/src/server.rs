//! The server under test: one `ServerRuntime` with two pool workers, a
//! signed, hash-chained audit log behind the bounded `AuditSink`, a
//! durable (WAL, fsync per write) mail store, every surface on the
//! reactor, `GET /metrics` attached.  `sfbench serve` runs it as a child
//! process; the traced replay builds the same stack in-process and calls
//! its layers directly.
//!
//! The audit log keeps its entries in memory.  With the file backend
//! (one fsync per entry) the sink's drain thread cannot keep up with any
//! of the four workloads, so most decisions are dropped, and how much CPU
//! the drain takes from the request path follows the disk's fsync latency
//! — which on the sandbox disk changed fifty-fold from one run to the
//! next and moved every end-to-end metric of `mac_steady` by 20 %.  The
//! file backend's append is measured in the replay instead
//! (`audit.append_us`, `audit.bytes_per_decision`).

use crate::inputs::{self, fixed_clock, Bundle};
use snowflake::apps::emaildb::EMAIL_DB_OBJECT;
use snowflake::apps::{EmailDb, ProtectedWebService, Vfs};
use snowflake::audit::{AuditLog, AuditSink, MemoryBackend, DEFAULT_CHECKPOINT_INTERVAL};
use snowflake::broker::{AuthzEndpoint, NamespaceAuthority, TopicBroker};
use snowflake::core::audit::AuditEmitter;
use snowflake::crypto::KeyPair;
use snowflake::http::{serve_metrics, HttpServer, MacSessionStore, ProtectedServlet};
use snowflake::prover::Prover;
use snowflake::rmi::RmiServer;
use snowflake::runtime::{PoolConfig, ServerRuntime};
use snowflake::tags::path_vector::ActionTable;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;

pub const POOL_WORKERS: usize = 2;
const POOL_QUEUE: usize = 64;
/// Entries the in-memory audit log retains (a ring; older ones fall out).
const AUDIT_RING: usize = 4096;

pub struct Stack {
    pub runtime: Arc<ServerRuntime>,
    pub http: Arc<HttpServer>,
    pub servlet: Arc<ProtectedServlet<ProtectedWebService>>,
    pub rmi: Arc<RmiServer>,
    pub prover: Arc<Prover>,
    pub authz: Arc<AuthzEndpoint>,
    pub broker: Arc<TopicBroker>,
    pub sink: Arc<AuditSink>,
    pub channel_key: KeyPair,
}

/// The listening ports of a served stack.
#[derive(Clone, Copy, Debug)]
pub struct Ports {
    pub http: u16,
    pub rmi: u16,
    pub subscribe: u16,
    pub metrics: u16,
}

fn topic_table() -> ActionTable {
    let mut t = ActionTable::new();
    t.allow(&["rooms", "*", "events"], &["subscribe"]);
    t
}

pub fn mail_wal_path(dir: &Path) -> std::path::PathBuf {
    dir.join("mail.wal")
}

impl Stack {
    /// Builds every surface over durable files in `dir`.
    pub fn build(bundle: &Bundle, dir: &Path) -> Result<Stack, String> {
        let seed = bundle.server_seed;
        let registry = snowflake::metrics::global();

        let log = AuditLog::with_rng(
            inputs::keypair(seed, "server-audit-signer"),
            Box::new(MemoryBackend::new(AUDIT_RING)),
            DEFAULT_CHECKPOINT_INTERVAL,
            inputs::boxed_rng(seed, "server-audit-rng"),
        )?;
        let sink = AuditSink::start(Arc::clone(&log));
        let emitter = || Arc::clone(&sink) as Arc<dyn AuditEmitter>;
        let runtime = ServerRuntime::new(PoolConfig::new("sfbench", POOL_WORKERS, POOL_QUEUE));
        runtime.register_metrics(registry);
        sink.register_metrics(registry);
        snowflake::crypto::register_key_table_metrics(registry);

        // The protected web server (§6.1) with its MAC session store.
        let vfs = Arc::new(Vfs::new());
        for (k, doc) in bundle.docs.iter().enumerate() {
            vfs.write(&inputs::doc_path(k), doc.clone());
        }
        let http = HttpServer::with_clock(fixed_clock);
        http.set_audit_emitter(emitter());
        let servlet = ProtectedWebService::new(bundle.web_issuer.clone(), inputs::WEB_SERVICE, vfs)
            .mount(
                &http,
                inputs::WEB_PREFIX,
                Arc::new(MacSessionStore::new()),
                fixed_clock,
                inputs::boxed_rng(seed, "server-servlet-rng"),
            );
        servlet.set_audit_emitter(emitter());
        servlet.register_metrics(registry);

        // The durable mail database (§6.2) behind RMI.
        let mail = EmailDb::open_durable(bundle.mail_issuer.clone(), fixed_clock, dir.join("mail"))
            .map_err(|e| format!("open mail store: {e}"))?;
        mail.set_audit_emitter(emitter());
        let rmi = RmiServer::with_clock(fixed_clock);
        rmi.set_audit_emitter(emitter());
        rmi.register(EMAIL_DB_OBJECT, Arc::new(mail));
        rmi.register_metrics(registry);

        // The authz facade and the topic broker over one prover.
        let prover = Arc::new(Prover::with_rng(inputs::boxed_rng(
            seed,
            "server-prover-rng",
        )));
        for proof in &bundle.proofs {
            prover.add_proof(proof.clone());
        }
        prover.register_metrics(registry);
        let authz = AuthzEndpoint::with_clock(Arc::clone(&prover), fixed_clock);
        authz.add_namespace(
            inputs::OBJECT_NS,
            NamespaceAuthority {
                issuer: bundle.broker_issuer.clone(),
                table: topic_table(),
            },
        );
        authz.set_audit_emitter(emitter());
        authz.register_metrics(registry);
        http.route(
            "/authz",
            Arc::clone(&authz) as Arc<dyn snowflake::http::Handler>,
        );
        let broker = TopicBroker::with_clock(
            Arc::clone(&runtime),
            Arc::clone(&prover),
            inputs::OBJECT_NS,
            bundle.broker_issuer.clone(),
            topic_table(),
            fixed_clock,
        );
        broker.set_audit_emitter(emitter());
        broker.register_metrics(registry);

        Ok(Stack {
            runtime,
            http,
            servlet,
            rmi,
            prover,
            authz,
            broker,
            sink,
            channel_key: inputs::keypair(seed, "server-channel-key"),
        })
    }

    /// Puts every surface on the reactor, on ephemeral loopback ports.
    pub fn listen(&self) -> std::io::Result<Ports> {
        let bind = || TcpListener::bind("127.0.0.1:0");
        let port = |l: &TcpListener| l.local_addr().map(|a| a.port());

        let l = bind()?;
        let http = port(&l)?;
        self.http.attach_to_reactor(l, &self.runtime)?;

        let l = bind()?;
        let rmi = port(&l)?;
        self.rmi
            .serve_reactor(l, &self.runtime, self.channel_key.clone(), None)?;

        let l = bind()?;
        let subscribe = port(&l)?;
        self.broker.attach_subscribe_listener(l)?;

        let l = bind()?;
        let metrics = port(&l)?;
        let (_handle, endpoint) = serve_metrics(l, &self.runtime, fixed_clock)?;
        endpoint.set_audit_emitter(Arc::clone(&self.sink) as Arc<dyn AuditEmitter>);

        Ok(Ports {
            http,
            rmi,
            subscribe,
            metrics,
        })
    }

    /// Drains the runtime and flushes the audit sink.
    pub fn shutdown(&self) {
        self.runtime.shutdown();
        self.sink.shutdown();
    }
}

/// `sfbench serve --dir D`: reads `D/bundle`, serves until stdin closes.
pub fn serve(dir: &Path) -> Result<(), String> {
    let bytes = std::fs::read(dir.join("bundle")).map_err(|e| format!("read bundle: {e}"))?;
    let bundle = Bundle::from_bytes(&bytes)?;
    let stack = Stack::build(&bundle, dir)?;
    let ports = stack.listen().map_err(|e| format!("listen: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "ready {} {} {} {}",
        ports.http, ports.rmi, ports.subscribe, ports.metrics
    )
    .and_then(|()| out.flush())
    .map_err(|e| format!("announce ports: {e}"))?;
    drop(out);
    // The parent holds our stdin; when it closes (or the parent dies) the
    // run is over.
    let mut line = String::new();
    while matches!(std::io::stdin().lock().read_line(&mut line), Ok(n) if n > 0) {
        line.clear();
    }
    stack.shutdown();
    Ok(())
}
