//! Audit emission on the hot path: what does the trail cost, and what
//! happens when it overflows?
//!
//! Three measurements:
//!
//! * `mac_request/{off,on}` — the MAC-authenticated request path (the
//!   cheapest authorization tier) with auditing detached vs. attached.
//!   The delta is the per-request emit overhead; it must be a bounded
//!   `try_push`, never an append.
//! * `emit_only` — the raw cost of one `emit` into a roomy sink.
//! * `saturation` — emits against a tiny queue with a deliberately slow
//!   drain: the hot path must keep its pace (non-blocking) while the
//!   overflow is *dropped and counted*, exactly like every other shed in
//!   the runtime.
//!
//! Set `SF_BENCH_SMOKE=1` to run each rig once (CI smoke mode: proves the
//! rigs build and hold their invariants, measures nothing).

use criterion::{criterion_group, criterion_main, Criterion};
use snowflake_apps::{ProtectedWebService, Vfs};
use snowflake_audit::{AuditLog, AuditQuery, AuditSink, DbBackend, MemoryBackend};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::{Delegation, HashAlg, Principal, Proof, Tag, Time, Validity};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_http::mac::ClientMacSession;
use snowflake_http::{HttpRequest, HttpServer, MacSessionStore, ProtectedServlet};
use std::sync::Arc;

fn fixed_clock() -> Time {
    Time(1_000_000)
}

struct MacRig {
    server: Arc<HttpServer>,
    servlet: Arc<ProtectedServlet<ProtectedWebService>>,
    request: HttpRequest,
}

/// A servlet with one established MAC session and a ready-to-replay
/// MAC-authenticated request.
fn mac_rig() -> MacRig {
    let server = HttpServer::new();
    let vfs = Arc::new(Vfs::new());
    vfs.write("/docs/a", b"a".to_vec());
    let mut mrng = DetRng::new(b"audit-bench-mount");
    let servlet = ProtectedWebService::new(Principal::message(b"owner"), "docs", vfs).mount(
        &server,
        "/docs",
        Arc::new(MacSessionStore::new()),
        fixed_clock,
        Box::new(move |b| mrng.fill(b)),
    );

    let mut crng = DetRng::new(b"audit-bench-client");
    let (body, dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
    let mut est = HttpRequest::post(snowflake_http::MAC_SESSION_PATH, body);
    let stmt = Delegation {
        subject: snowflake_http::request_principal(&est, HashAlg::Sha256),
        issuer: Principal::message(b"owner"),
        tag: Tag::Star,
        validity: Validity::until(Time(1_003_000)),
        delegable: false,
    };
    servlet.surface().assume(&stmt);
    snowflake_http::auth::attach_proof(
        &mut est,
        &Proof::Assumption {
            stmt,
            authority: "bench".into(),
        },
    );
    let resp = server.respond(&est);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let session = ClientMacSession::from_grant(&resp.body, &dh, Validity::always()).unwrap();

    let mut request = HttpRequest::get("/docs/a");
    let hash = snowflake_http::request_hash(&request, HashAlg::Sha256);
    request.set_header(snowflake_http::auth::MAC_ID_HEADER, &session.id_header());
    request.set_header(snowflake_http::auth::MAC_HEADER, &session.authenticate(&hash));
    MacRig {
        server,
        servlet,
        request,
    }
}

fn bench_log(seed: &str, backend: Box<dyn snowflake_audit::AuditBackend>) -> Arc<AuditLog> {
    let mut kr = DetRng::new(format!("{seed}-key").as_bytes());
    let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
    let mut sr = DetRng::new(format!("{seed}-sign").as_bytes());
    AuditLog::with_rng(key, backend, 64, Box::new(move |b| sr.fill(b))).expect("fresh backend")
}

fn event(n: u64) -> DecisionEvent {
    DecisionEvent::new(
        Time(1_000_000 + n),
        "bench",
        Decision::Grant,
        "/docs/a",
        "GET",
        "saturation",
    )
}

/// Drives `n` MAC requests, asserting each is served.
fn run_mac_requests(rig: &MacRig, n: usize) -> std::time::Duration {
    let start = std::time::Instant::now();
    for _ in 0..n {
        let resp = rig.server.respond(&rig.request);
        assert_eq!(resp.status, 200);
    }
    start.elapsed()
}

/// Floods a tiny sink, returning (elapsed, final stats).  The invariant
/// checked everywhere: every emit is accounted for as accepted or
/// dropped, and the flood never blocks on the drain.
fn run_saturation(emits: u64) -> (std::time::Duration, snowflake_audit::SinkStats) {
    let sink = AuditSink::with_capacity(bench_log("sat", Box::new(MemoryBackend::new(4096))), 16);
    let start = std::time::Instant::now();
    for i in 0..emits {
        sink.emit(event(i));
    }
    let elapsed = start.elapsed();
    sink.flush();
    let stats = sink.stats();
    assert_eq!(stats.accepted + stats.dropped, emits);
    assert_eq!(stats.drained, stats.accepted);
    (elapsed, stats)
}

/// One `report_json` line carrying the saturation run's [`SinkStats`]:
/// the audit sink's health counters land in `BENCH_<date>.json` beside
/// the latency rows, so the recorded trajectory covers audit overflow
/// behavior too.
fn report_sink_stats(emits: u64, elapsed: std::time::Duration, s: snowflake_audit::SinkStats) {
    snowflake_bench::report_json(
        "audit_sink_saturation",
        &[
            ("emits", emits.to_string()),
            ("elapsed_us", (elapsed.as_micros() as u64).to_string()),
            ("accepted", s.accepted.to_string()),
            ("dropped", s.dropped.to_string()),
            ("drained", s.drained.to_string()),
            ("append_failures", s.append_failures.to_string()),
        ],
    );
}

fn audit_throughput(c: &mut Criterion) {
    let smoke = std::env::var_os("SF_BENCH_SMOKE").is_some();
    let rig = mac_rig();

    if smoke {
        // Hot path with auditing off, then on: same responses, bounded
        // extra cost, zero drops at this capacity.
        let off = run_mac_requests(&rig, 200);
        let sink = AuditSink::with_capacity(bench_log("smoke", Box::new(DbBackend::new())), 4096);
        rig.servlet
            .set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);
        let on = run_mac_requests(&rig, 200);
        sink.flush();
        let recorded = sink
            .log()
            .query(&AuditQuery::all().surface("http-mac"))
            .unwrap();
        assert_eq!(recorded.len(), 200, "every MAC grant recorded");
        assert_eq!(sink.stats().dropped, 0);
        sink.log().verify().unwrap();
        println!("audit_throughput/smoke/mac_off ok ({off:?} / 200 reqs)");
        println!("audit_throughput/smoke/mac_on  ok ({on:?} / 200 reqs)");

        let (elapsed, stats) = run_saturation(20_000);
        assert!(stats.dropped > 0, "a 16-slot queue must shed under a 20k flood");
        println!(
            "audit_throughput/smoke/saturation ok ({elapsed:?} for 20k emits, \
             {} accepted, {} dropped)",
            stats.accepted, stats.dropped
        );
        report_sink_stats(20_000, elapsed, stats);
        return;
    }

    let mut group = c.benchmark_group("audit_throughput");
    group.sample_size(10);
    group.bench_function("mac_request/off", |b| {
        b.iter(|| run_mac_requests(&rig, 50));
    });
    let sink = AuditSink::with_capacity(bench_log("bench", Box::new(MemoryBackend::new(65_536))), 8192);
    rig.servlet
        .set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);
    group.bench_function("mac_request/on", |b| {
        b.iter(|| run_mac_requests(&rig, 50));
    });
    group.bench_function("emit_only", |b| {
        let sink = AuditSink::with_capacity(
            bench_log("emit-only", Box::new(MemoryBackend::new(65_536))),
            65_536,
        );
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            sink.emit(event(n));
        });
    });
    group.bench_function("saturation/20k", |b| {
        b.iter(|| run_saturation(20_000));
    });
    group.finish();

    let (elapsed, stats) = run_saturation(20_000);
    report_sink_stats(20_000, elapsed, stats);
}

criterion_group!(benches, audit_throughput);
criterion_main!(benches);
