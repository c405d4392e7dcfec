//! Audit trail walkthrough: attach a tamper-evident decision log to a
//! protected web server, drive a challenge, a grant, and a revocation,
//! then play the auditor — query the trail, re-verify the chain offline,
//! and watch every tamper class get caught.
//!
//! Run with `cargo run --example audit_trail`.

use snowflake::audit::{
    verify_chain, AuditLog, AuditQuery, AuditSink, FileBackend, LogEntry,
};
use snowflake::core::audit::AuditEmitter;
use snowflake::core::{Delegation, HashAlg, Principal, Proof, Tag, Time, Validity};
use snowflake::crypto::{rand_bytes, Group, KeyPair};
use snowflake::http::{HttpRequest, HttpServer, MacSessionStore};
use snowflake::apps::{ProtectedWebService, Vfs};
use snowflake::prover::Prover;
use snowflake::revocation::{AuditedBus, RevocationBus};
use std::sync::Arc;

fn main() {
    // --- The log: an append-only file, hash-chained, signed every 4
    // records by the log key.  The auditor needs only the *public* half
    // (and, for truncation detection, the latest head) to verify a copy.
    let path = std::env::temp_dir().join(format!("snowflake-audit-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let log_key = KeyPair::generate_os(Group::test512());
    let auditor_key = log_key.public.clone();
    let log = AuditLog::with_rng(
        log_key,
        Box::new(FileBackend::open(&path).expect("temp file")),
        4,
        Box::new(rand_bytes),
    )
    .expect("fresh log file");
    let sink = AuditSink::start(Arc::clone(&log));
    let emitter: Arc<dyn AuditEmitter> = Arc::clone(&sink) as Arc<dyn AuditEmitter>;
    println!("audit log at {}", path.display());

    // --- A protected web server with the emitter attached.
    let server = HttpServer::new();
    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/plan.txt", b"launch at dawn".to_vec());
    let servlet = ProtectedWebService::new(Principal::message(b"owner"), "docs", vfs).mount(
        &server,
        "/docs",
        Arc::new(MacSessionStore::new()),
        Time::now,
        Box::new(rand_bytes),
    );
    servlet.set_audit_emitter(Arc::clone(&emitter));

    // --- A challenge (deny), then a proven request (grant).
    let challenged = server.respond(&HttpRequest::get("/docs/plan.txt"));
    println!("\nno proof     -> {}", challenged.status);
    let mut req = HttpRequest::get("/docs/plan.txt");
    let stmt = Delegation {
        subject: snowflake::http::request_principal(&req, HashAlg::Sha256),
        issuer: Principal::message(b"owner"),
        tag: Tag::Star,
        validity: Validity::until(Time::now().plus(300)),
        delegable: false,
    };
    servlet.surface().base_ctx().assume(&stmt);
    snowflake::http::auth::attach_proof(
        &mut req,
        &Proof::Assumption {
            stmt,
            authority: "walkthrough".into(),
        },
    );
    let granted = server.respond(&req);
    println!("with proof   -> {}", granted.status);

    // --- A revocation push, recorded as a first-class event.
    let prover = Arc::new(Prover::new());
    let bus = AuditedBus::new(prover as Arc<dyn RevocationBus>, Arc::clone(&emitter));
    let dead_cert = snowflake::crypto::HashVal::of(b"some revoked certificate");
    bus.certificate_revoked(&dead_cert);
    println!("revoked cert -> {}", dead_cert.short_hex());
    // Replayed requests after the (unrelated) revocation: records four
    // and five, sealing the first checkpoint interval with records on
    // both sides of it.
    for _ in 0..2 {
        let replay = server.respond(&req);
        assert_eq!(replay.status, 200);
    }
    println!("replayed x2  -> 200 (identical-request cache)");

    // --- The auditor: query the trail.
    sink.flush();
    println!("\ntrail ({} records):", log.records_appended());
    for record in log.query(&AuditQuery::all()).unwrap() {
        let ev = &record.event;
        println!(
            "  #{} [{}] {} {} {} — {}",
            record.seq, ev.surface, ev.decision, ev.action, ev.object, ev.detail
        );
    }

    // --- Offline verification from the file copy alone.
    let entries: Vec<LogEntry> = log.entries().unwrap();
    let head = log.head().unwrap();
    let summary = verify_chain(&entries, &auditor_key, 4, Some(&head)).unwrap();
    println!(
        "\nchain verifies: {} records, {} signed checkpoints",
        summary.records, summary.checkpoints
    );

    // --- Every tamper class is caught.
    let mut truncated = entries.clone();
    // Drop the last record *and* its sealing checkpoint — the remaining
    // stream is internally consistent, but not against the trusted head.
    truncated.truncate(entries.len() - 2);
    println!("truncation  -> {}", verify_chain(&truncated, &auditor_key, 4, Some(&head)).unwrap_err());
    let mut reordered = entries.clone();
    reordered.swap(0, 1);
    println!("reorder     -> {}", verify_chain(&reordered, &auditor_key, 4, Some(&head)).unwrap_err());
    let mut edited = entries.clone();
    if let LogEntry::Record(r) = &mut edited[0] {
        r.event.detail = "nothing to see here".into();
    }
    println!("bit-flip    -> {}", verify_chain(&edited, &auditor_key, 4, Some(&head)).unwrap_err());
    let stripped = snowflake::audit::strip_checkpoints(&entries);
    println!("no sigs     -> {}", verify_chain(&stripped, &auditor_key, 4, Some(&head)).unwrap_err());

    sink.shutdown();
    let _ = std::fs::remove_file(&path);
}
