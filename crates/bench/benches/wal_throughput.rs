//! Durability on the hot path: what does append-before-apply cost, and
//! how fast does recovery replay?
//!
//! Three measurements:
//!
//! * `reldb_append` — one durable insert into the relational store: WAL
//!   frame encode + append + fsync, then the in-memory apply.  This is
//!   the incremental price every mailstore write pays for surviving a
//!   crash.
//! * `audit_append` — one decision appended to the file-backed audit
//!   log: chain + sign bookkeeping + line append + fsync.  This is the
//!   durable tail of every authorization decision.
//! * `replay` — reopening a 100k-record WAL from a cold start: the
//!   recovery time an operator actually waits after a crash.
//!
//! Set `SF_BENCH_SMOKE=1` to run each rig once at reduced sizes (CI
//! smoke mode: proves the rigs build and the recovery invariants hold,
//! measures nothing).  Set `SF_BENCH_JSON=<path>` (full mode only) to
//! append-structure the numbers into a JSON report — the file the perf
//! trajectory is recorded in (`BENCH_<date>.json` at the repo root).

use criterion::{criterion_group, criterion_main, Criterion};
use snowflake_audit::{AuditLog, FileBackend};
use snowflake_core::audit::{Decision, DecisionEvent};
use snowflake_core::Time;
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_reldb::wal::encode_frame;
use snowflake_reldb::{ColumnType, Database, DurableDatabase, Schema, Value, WalOp};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn schema(db: &mut Database) {
    db.create_table(
        "decisions",
        Schema::new(&[("k", ColumnType::Text), ("n", ColumnType::Int)]),
    );
    db.table_mut("decisions").unwrap().create_index("k").unwrap();
}

/// A fresh on-disk base path (removing any artifacts of a prior run).
fn fresh_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-wal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for ext in ["wal", "snap", "snap.tmp"] {
        let _ = std::fs::remove_file(dir.join(name).with_extension(ext));
    }
    dir.join(name)
}

fn fresh_audit(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-wal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn row(i: u64) -> Vec<Value> {
    Vec::from([
        Value::Text(format!("req-{}", i % 64)),
        Value::Int(i as i64),
    ])
}

fn event(n: u64) -> DecisionEvent {
    DecisionEvent::new(
        Time(1_000_000 + n),
        "bench",
        Decision::Grant,
        "/docs/a",
        "GET",
        "wal-throughput",
    )
}

fn audit_log(name: &str) -> AuditLog {
    let backend = FileBackend::open(fresh_audit(name)).expect("fresh audit file");
    let mut kr = DetRng::new(format!("{name}-key").as_bytes());
    let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
    let mut sr = DetRng::new(format!("{name}-sign").as_bytes());
    match AuditLog::with_rng(key, Box::new(backend), 64, Box::new(move |b| sr.fill(b))) {
        Ok(log) => match std::sync::Arc::try_unwrap(log) {
            Ok(log) => log,
            Err(_) => unreachable!("no other holders of a fresh log"),
        },
        Err(e) => panic!("fresh audit log: {e}"),
    }
}

/// Durably inserts `n` rows, returning the elapsed wall time.
fn run_reldb_appends(db: &mut DurableDatabase, n: u64) -> Duration {
    let start = Instant::now();
    for i in 0..n {
        db.insert("decisions", row(i)).expect("insert");
    }
    start.elapsed()
}

/// Appends `n` decisions to a file-backed audit log, returning elapsed.
fn run_audit_appends(log: &AuditLog, n: u64) -> Duration {
    let start = Instant::now();
    for i in 0..n {
        log.append(event(i)).1.expect("audit append");
    }
    start.elapsed()
}

/// Writes an `n`-record WAL's frames straight to `<base>.wal` (build
/// speed is not the subject) and measures the cold reopen that replays it.
fn run_replay(name: &str, n: u64) -> (Duration, u64) {
    let base = fresh_base(name);
    let wal: Vec<u8> = (0..n)
        .flat_map(|i| {
            let op = WalOp::Insert {
                table: "decisions".into(),
                row: row(i),
            };
            encode_frame(i, &op)
        })
        .collect();
    std::fs::write(base.with_extension("wal"), wal).expect("write replay fixture");
    let start = Instant::now();
    let db = DurableDatabase::open(&base, schema).expect("reopen");
    let elapsed = start.elapsed();
    assert_eq!(db.recovery().replayed, n, "replay covers every record");
    assert_eq!(db.recovery().truncated_bytes, 0, "clean build, clean tail");
    let recovered = db.database().table("decisions").unwrap().len() as u64;
    (elapsed, recovered)
}

fn ns_per_op(d: Duration, ops: u64) -> u64 {
    (d.as_nanos() / u128::from(ops.max(1))) as u64
}

fn wal_throughput(c: &mut Criterion) {
    let smoke = std::env::var_os("SF_BENCH_SMOKE").is_some();

    if smoke {
        let mut db = DurableDatabase::open(fresh_base("smoke"), schema).expect("open");
        let reldb = run_reldb_appends(&mut db, 200);
        assert_eq!(db.wal_records(), 200);
        let log = audit_log("smoke-audit.log");
        let audit = run_audit_appends(&log, 200);
        log.verify().expect("chain verifies");
        let (replay, recovered) = run_replay("smoke-replay", 5_000);
        assert_eq!(recovered, 5_000);
        println!("wal_throughput/smoke/reldb_append ok ({reldb:?} / 200 inserts, fsync on)");
        println!("wal_throughput/smoke/audit_append ok ({audit:?} / 200 decisions, fsync on)");
        println!("wal_throughput/smoke/replay ok ({replay:?} for a 5k-record log)");
        return;
    }

    let mut group = c.benchmark_group("wal_throughput");
    group.sample_size(10);
    let mut db = DurableDatabase::open(fresh_base("bench"), schema).expect("open");
    group.bench_function("reldb_append/100", |b| {
        b.iter(|| run_reldb_appends(&mut db, 100));
    });
    let log = audit_log("bench-audit.log");
    group.bench_function("audit_append/100", |b| {
        b.iter(|| run_audit_appends(&log, 100));
    });
    group.finish();

    // The headline recovery number: replaying a 100k-record WAL cold.
    let append = {
        let mut db = DurableDatabase::open(fresh_base("json-append"), schema).expect("open");
        run_reldb_appends(&mut db, 1_000)
    };
    let audit = {
        let log = audit_log("json-audit.log");
        run_audit_appends(&log, 1_000)
    };
    let (replay, recovered) = run_replay("replay-100k", 100_000);
    assert_eq!(recovered, 100_000);
    println!("wal_throughput/reldb_append: {} ns/op (fsync on)", ns_per_op(append, 1_000));
    println!("wal_throughput/audit_append: {} ns/decision (fsync on)", ns_per_op(audit, 1_000));
    println!("wal_throughput/replay_100k: {replay:?} ({} ns/record)", ns_per_op(replay, 100_000));

    snowflake_bench::report_json(
        "wal_throughput",
        &[
            ("reldb_append_ns_per_op", ns_per_op(append, 1_000).to_string()),
            (
                "audit_append_ns_per_decision",
                ns_per_op(audit, 1_000).to_string(),
            ),
            ("replay_records", "100000".into()),
            ("replay_ms", replay.as_millis().to_string()),
            (
                "replay_ns_per_record",
                ns_per_op(replay, 100_000).to_string(),
            ),
        ],
    );
}

criterion_group!(benches, wal_throughput);
criterion_main!(benches);
