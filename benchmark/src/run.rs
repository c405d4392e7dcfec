//! One benchmark run: set-up against a fresh server child, the measured
//! closed-loop phase, and — for the traced run — scrape deltas, client
//! spans and the in-process replay.

use crate::child::ServerChild;
use crate::drive::{drive, Client, Limit, CLIENT_THREADS};
use crate::replay;
use crate::server;
use crate::spec::{self, WorkloadDef};
use crate::stats;
use crate::workloads::{tcp_clients, SetupNotes, World};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Operations per phase of the traced run (both clients together).
const TRACE_OPS: usize = 2_000;
/// The fewest operations the replay is asked for, `--quick` included:
/// `trace.unattributed_share` is a median over its root spans.
const REPLAY_OPS_FLOOR: usize = 400;
/// Distinct pre-signed requests budgeted per client and measured second:
/// about five times what the seed commit serves, so a faster server
/// still finds a fresh request.  When they run out the phase ends early.
const SIGNED_PER_CLIENT_SECOND: f64 = 900.0;

pub struct Config {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    /// Where run directories and trace files go.
    pub out: PathBuf,
    /// Shrinks every count by 50 (the smoke test).
    pub quick: bool,
}

impl Config {
    fn scale(&self, n: usize) -> usize {
        if self.quick {
            (n / 50).max(4)
        } else {
            n
        }
    }

    fn warmup_ops(&self) -> usize {
        self.scale(self.workload.warmup_ops)
    }

    fn signed_per_client(&self, measured_seconds: f64) -> usize {
        if self.workload.kind != spec::Kind::SignedFresh {
            return 0;
        }
        self.warmup_ops() + (measured_seconds * SIGNED_PER_CLIENT_SECOND).ceil() as usize
    }

    fn run_dir(&self, label: &str) -> PathBuf {
        self.out.join(format!(
            "run-{}-{}-{label}",
            std::process::id(),
            self.workload.name
        ))
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many observations the value rests on (0 when not a sample
    /// statistic).
    pub samples: usize,
}

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed above the metrics.
    pub remarks: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A server child with both clients set up and warm.
struct Ready {
    world: World,
    child: ServerChild,
    clients: Vec<Box<dyn Client>>,
    notes: SetupNotes,
    warmup_failed: usize,
    warmup_attempted: usize,
    setup_s: f64,
}

/// Everything between "nothing exists" and "the next operation is
/// measured": input generation, child spawn, establishment, deny
/// controls, warm-up.
fn set_up(cfg: &Config, label: &str, measured_seconds: f64) -> Result<Ready, String> {
    let start = Instant::now();
    let world = World::generate(
        cfg.workload.kind,
        cfg.seed,
        cfg.signed_per_client(measured_seconds),
    );
    let child = ServerChild::spawn(&world.bundle(), &cfg.run_dir(label))?;
    let (mut clients, notes) = tcp_clients(&world, &child)?;
    let warm = drive(
        &mut clients,
        Limit {
            time: Duration::from_secs(5),
            ops_per_client: cfg.warmup_ops(),
        },
        false,
    );
    Ok(Ready {
        world,
        child,
        clients,
        notes,
        warmup_failed: warm.samples.iter().filter(|s| !s.ok).count(),
        warmup_attempted: warm.samples.len(),
        setup_s: start.elapsed().as_secs_f64(),
    })
}

fn tear_down(ready_child: ServerChild) -> Result<(), String> {
    let dir = ready_child.dir.clone();
    ready_child.stop()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// The gated numbers: tracing off, `seconds` of measured load.
pub fn end_to_end(cfg: &Config) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for round in 0..SETUP_ROUNDS {
        if let Some(Ready { child, clients, .. }) = ready.take() {
            drop(clients);
            tear_down(child)?;
        }
        let r = set_up(cfg, &format!("setup{round}"), cfg.seconds)?;
        setups.push(r.setup_s);
        ready = Some(r);
    }
    let Ready {
        child,
        mut clients,
        notes,
        warmup_failed,
        warmup_attempted,
        ..
    } = ready.expect("at least one set-up round");

    let cpu_before = child.cpu_seconds()?;
    let phase = drive(
        &mut clients,
        Limit::time(Duration::from_secs_f64(cfg.seconds)),
        false,
    );
    let cpu_used = child.cpu_seconds()? - cpu_before;
    let peak_rss = child.peak_rss_mib()?;
    drop(clients);
    tear_down(child)?;

    let s = phase.summarize();
    let ops = s.attempted.max(1) as f64;
    let value = |name: &str| -> (f64, usize) {
        match name {
            "setup_s" => (stats::median(&setups), setups.len()),
            "throughput_rps" => (s.throughput_rps, s.quiet_samples),
            "latency_p50_us" => (s.latency_p50_us, s.quiet_samples),
            "latency_p99_us" => (s.latency_p99_us, s.quiet_samples),
            "server_cpu_us_per_op" => (cpu_used * 1e6 / ops, s.attempted),
            "server_peak_rss_mib" => (peak_rss, 1),
            "wire_bytes_per_op" => (s.wire_bytes_per_op, s.attempted),
            other => unreachable!("end-to-end metric {other} has no source"),
        }
    };
    let metrics = spec::END_TO_END
        .iter()
        .map(|def| {
            let (value, samples) = value(def.name);
            Metric {
                name: def.name,
                unit: def.unit,
                value,
                samples,
            }
        })
        .collect();
    Ok(RunResult {
        workload: cfg.workload.name,
        attempted: s.attempted + notes.controls + warmup_attempted,
        failed: s.failed + (notes.controls - notes.controls_refused) + warmup_failed,
        metrics,
        remarks: vec![
            format!(
                "measured {:.2} s, {} ops, per chunk {:?}; timings from the {} busiest chunks ({} samples)",
                s.elapsed_s,
                s.attempted,
                s.chunk_ops,
                crate::drive::CHUNKS / 2,
                s.quiet_samples
            ),
            format!(
                "deny controls refused {}/{}; set-up rounds {:?} s",
                notes.controls_refused,
                notes.controls,
                setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
            ),
        ],
    })
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer numbers: an untraced and a traced drive of the child
/// with scrapes around the traced one, then the in-process replay.
pub fn per_layer(cfg: &Config) -> Result<RunResult, String> {
    // A third of the time each for the two drives and the replay.
    let slice = cfg.seconds / 3.0;
    let limit = Limit {
        time: Duration::from_secs_f64(slice),
        ops_per_client: cfg.scale(TRACE_OPS) / CLIENT_THREADS,
    };
    let Ready {
        world,
        child,
        mut clients,
        notes,
        warmup_failed,
        warmup_attempted,
        ..
    } = set_up(cfg, "trace", 2.0 * slice)?;

    let untraced = drive(&mut clients, limit, false);
    let (before, scrape_took) = child.scrape()?;
    let wal_before = file_len(&server::mail_wal_path(&child.dir));
    let traced = drive(&mut clients, limit, true);
    let (after, _) = child.scrape()?;
    let wal_bytes = file_len(&server::mail_wal_path(&child.dir)) - wal_before;
    drop(clients);
    tear_down(child)?;

    let replay_dir = cfg.run_dir("replay");
    let replayed = replay::run(
        &world,
        &replay_dir,
        cfg.scale(TRACE_OPS).max(REPLAY_OPS_FLOOR),
        Duration::from_secs_f64(slice),
    );
    let _ = std::fs::remove_dir_all(&replay_dir);
    let replayed = replayed?;

    let base = untraced.summarize();
    let with = traced.summarize();
    let ops = with.attempted.max(1) as f64;
    let delta = |key: &str| after.get(key) - before.get(key);
    let delta_sum = |name: &str| after.sum(name) - before.sum(name);
    let share = |hits: f64, misses: f64| ratio(hits, hits + misses);
    let client_spans = traced.tracer.as_ref().map(|t| t.summarize());
    let client_p50_us = |span: &str| {
        client_spans
            .as_ref()
            .and_then(|s| s.rows.get(span))
            .map_or(0.0, |r| r.total_p50_ns / 1e3)
    };
    let layers = replayed.tracer.summarize();
    let server_p50_us = after.p50_us_since(&before, cfg.workload.surface);
    let writes = client_spans
        .as_ref()
        .map_or(0, |s| s.calls("client.insert") + s.calls("client.delete"));

    let value = |name: &str| -> f64 {
        match name {
            // Scrape deltas over the traced drive.
            "crypto.key_table_hit_share" => share(
                delta("sf_key_table_hits_total"),
                delta("sf_key_table_builds_total"),
            ),
            "crypto.key_table_builds_per_kop" => delta("sf_key_table_builds_total") * 1e3 / ops,
            "core.memo_hit_share" => share(
                delta_sum("sf_chain_memo_hits_total"),
                delta_sum("sf_chain_memo_misses_total"),
            ),
            "prover.expansions_per_op" => delta("sf_prover_expansions_total") / ops,
            "runtime.conns_accepted_per_op" => delta("sf_conns_accepted_total") / ops,
            "http.mac_hit_share" => ratio(
                delta("sf_servlet_mac_hits_total"),
                delta("sf_request_duration_seconds_count{surface=\"servlet\"}"),
            ),
            "http.ident_hit_share" => ratio(
                delta("sf_servlet_ident_hits_total"),
                delta("sf_request_duration_seconds_count{surface=\"servlet\"}"),
            ),
            "http.server_p50_us" => server_p50_us,
            "runtime.transport_us" => (with.latency_p50_us - server_p50_us).max(0.0),
            "runtime.jobs_per_op" => delta("sf_jobs_submitted_total") / ops,
            "runtime.shed_share" => ratio(delta_sum("sf_sheds_total"), ops),
            "audit.accepted_per_op" => delta("sf_audit_accepted_total") / ops,
            "audit.dropped_share" => share(
                delta("sf_audit_dropped_total"),
                delta("sf_audit_accepted_total"),
            ),
            "audit.queue_depth_end" => after.get("sf_audit_queue_depth"),
            "rmi.proof_cache_hit_share" => share(
                delta("sf_rmi_proof_cache_hits_total"),
                delta("sf_rmi_proof_cache_misses_total"),
            ),
            // Seen by the parent.
            "metrics.scrape_ms" => scrape_took.as_secs_f64() * 1e3,
            "audit.bytes_per_decision" => replayed.audit_bytes_per_decision,
            "reldb.wal_bytes_per_write" => ratio(wal_bytes, writes as f64),
            "broker.authz_p50_us" => client_p50_us("client.authz"),
            "broker.subscribe_p50_us" => client_p50_us("client.subscribe"),
            "rmi.select_p50_us" => client_p50_us("client.select"),
            "rmi.insert_p50_us" => client_p50_us("client.insert"),
            "client.build_us"
            | "http.mac_establish_ms"
            | "channel.handshake_ms"
            | "rmi.receive_proof_ms" => notes.median(name),
            // Trace health.
            "trace.unattributed_share" => replayed.tracer.unattributed_share(cfg.workload.roots),
            "trace.overhead_share" => ratio(
                with.latency_p50_us - base.latency_p50_us,
                base.latency_p50_us,
            ),
            // Everything else is a replay span: `<span>_us`.
            other => layers.metric_us(other.strip_suffix("_us").unwrap_or(other)),
        }
    };
    let metrics = spec::PER_LAYER
        .iter()
        .map(|def| {
            let span = def.name.strip_suffix("_us").unwrap_or(def.name);
            Metric {
                name: def.name,
                unit: def.unit,
                value: value(def.name),
                samples: match def.source {
                    spec::Source::Trace => layers.calls(span),
                    _ => 0,
                },
            }
        })
        .collect();

    // One file per workload: the replay's spans, then the client spans of
    // the traced drive.
    let mut all = replayed.tracer;
    if let Some(t) = traced.tracer {
        all.absorb(t);
    }
    let trace_path = cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name));
    all.write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let controls = notes.controls + replayed.notes.controls;
    let refused = notes.controls_refused + replayed.notes.controls_refused;
    Ok(RunResult {
        workload: cfg.workload.name,
        attempted: base.attempted + with.attempted + replayed.ops + controls + warmup_attempted,
        failed: base.failed + with.failed + replayed.failed + (controls - refused) + warmup_failed,
        metrics,
        remarks: vec![
            format!(
                "child drives: {} untraced + {} traced ops; replay: {} ops, {} spans -> {}",
                base.attempted,
                with.attempted,
                replayed.ops,
                all.spans().len(),
                trace_path.display()
            ),
            format!("deny controls refused {refused}/{controls}"),
        ],
    })
}
