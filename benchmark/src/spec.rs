//! The names this benchmark fixes: workloads, end-to-end metrics and
//! per-layer metrics.  `BENCHMARK.json` at the repository root lists the
//! same names; the smoke test fails when the two drift apart.

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MacSteady,
    SignedFresh,
    RmiMail,
    BrokerAdmission,
}

/// One workload: a fresh server child, one traffic shape.
pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    /// Warm-up operations per client before anything is measured: enough
    /// for every session, subject and table to have been touched once.
    pub warmup_ops: usize,
    /// The surface whose `sf_request_duration_seconds` histogram is the
    /// server-side view of one operation (`http.server_p50_us`).
    pub surface: &'static str,
    /// Span names whose total time is this workload's root in the replay
    /// trace (`trace.unattributed_share` is measured against them).
    pub roots: &'static [&'static str],
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "mac_steady",
        kind: Kind::MacSteady,
        warmup_ops: 2_000,
        surface: "http",
        roots: &["http.respond"],
    },
    WorkloadDef {
        name: "signed_fresh",
        kind: Kind::SignedFresh,
        warmup_ops: 32,
        surface: "http",
        roots: &["http.respond"],
    },
    WorkloadDef {
        name: "rmi_mail",
        kind: Kind::RmiMail,
        warmup_ops: 256,
        surface: "rmi",
        roots: &["rmi.handle_frame"],
    },
    WorkloadDef {
        name: "broker_admission",
        kind: Kind::BrokerAdmission,
        warmup_ops: crate::inputs::SUBJECTS / crate::drive::CLIENT_THREADS,
        surface: "authz",
        roots: &["broker.evaluate", "broker.subscribe"],
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// p50 self time of a span in the in-process replay (total time for a
    /// root span).
    Trace,
    /// `GET /metrics` scrape delta over the traced drive of the child.
    Scrape,
    /// Client-side span or file size seen by the parent.
    Client,
    /// Derived from the other rows of the same run.
    Derived,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub source: Source,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is rejected.
    pub bound: Option<f64>,
}

const fn m(name: &'static str, unit: &'static str, source: Source) -> MetricDef {
    MetricDef {
        name,
        unit,
        source,
        bound: None,
    }
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        source: Source::Client,
        bound: Some(bound),
    }
}

/// What a user of the server sees.  `failed_share` of the issue is the
/// `failed`/`attempted` pair every result line carries: a metric that is
/// 0 on every good run cannot carry a relative bound.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", 0.25),
    e2e("throughput_rps", "1/s", 0.20),
    e2e("latency_p50_us", "us", 0.20),
    e2e("latency_p99_us", "us", 0.25),
    e2e("server_cpu_us_per_op", "us", 0.20),
    e2e("server_peak_rss_mib", "MiB", 0.10),
    e2e("wire_bytes_per_op", "B", 0.01),
];

use Source::{Client as C, Derived as D, Scrape as S, Trace as T};

/// One number per layer boundary; a layer is a crate.  A metric whose
/// layer a workload bypasses reads 0 there (zero calls).
pub const PER_LAYER: [MetricDef; 56] = [
    // Signed-request path: parse, decode, verify, exponentiate.
    m("sexpr.parse_us", "us", T),
    m("core.proof_decode_us", "us", T),
    m("core.verify_cold_us", "us", T),
    m("crypto.schnorr_verify_us", "us", T),
    m("bigint.modpow_us", "us", T),
    m("crypto.key_table_hit_share", "share", S),
    m("crypto.key_table_builds_per_kop", "1/kop", S),
    m("client.build_us", "us", C),
    // Memo-hit path with the prover and the broker in front.
    m("core.verify_memo_us", "us", T),
    m("core.cert_hashes_us", "us", T),
    m("core.memo_hit_share", "share", S),
    m("broker.json_parse_us", "us", T),
    m("tags.path_to_tag_us", "us", T),
    m("prover.find_proof_us", "us", T),
    m("prover.expansions_per_op", "1/op", S),
    m("broker.evaluate_us", "us", T),
    m("broker.subscribe_us", "us", T),
    m("broker.publish_fanout_us", "us", T),
    m("broker.authz_p50_us", "us", C),
    m("broker.subscribe_p50_us", "us", C),
    m("runtime.conns_accepted_per_op", "1/op", S),
    // The cheapest request: HTTP, HMAC, handler, reactor.
    m("http.request_parse_us", "us", T),
    m("http.request_hash_us", "us", T),
    m("http.mac_verify_us", "us", T),
    m("http.respond_us", "us", T),
    m("http.response_write_us", "us", T),
    m("apps.handler_us", "us", T),
    m("http.mac_hit_share", "share", S),
    m("http.ident_hit_share", "share", S),
    m("http.server_p50_us", "us", S),
    m("runtime.transport_us", "us", D),
    m("runtime.jobs_per_op", "1/op", S),
    m("runtime.shed_share", "share", S),
    m("metrics.scrape_ms", "ms", C),
    // Audit: emit on the request path, append behind the sink.
    m("audit.emit_us", "us", T),
    m("audit.append_us", "us", T),
    m("audit.accepted_per_op", "1/op", S),
    m("audit.dropped_share", "share", S),
    m("audit.queue_depth_end", "count", S),
    m("audit.bytes_per_decision", "B", C),
    // Sealed records and the durable mail store.
    m("channel.open_us", "us", T),
    m("channel.seal_us", "us", T),
    m("rmi.handle_frame_us", "us", T),
    m("rmi.check_auth_us", "us", T),
    m("rmi.proof_cache_hit_share", "share", S),
    m("rmi.select_p50_us", "us", C),
    m("rmi.insert_p50_us", "us", C),
    m("reldb.select_us", "us", T),
    m("reldb.insert_us", "us", T),
    m("reldb.delete_us", "us", T),
    m("reldb.wal_bytes_per_write", "B", C),
    // What set-up is made of.
    m("http.mac_establish_ms", "ms", C),
    m("channel.handshake_ms", "ms", C),
    m("rmi.receive_proof_ms", "ms", C),
    // Trace health.
    m("trace.unattributed_share", "share", D),
    m("trace.overhead_share", "share", D),
];

/// Spans whose metric reports total time (they are the roots the
/// children are summed against), not self time.
pub fn is_root_span(span: &str) -> bool {
    WORKLOADS.iter().any(|w| w.roots.contains(&span))
}
