//! Crash-injection harness for the reldb write-ahead log.
//!
//! The core claim of the durability layer: a crash at **any byte** of a
//! durable write leaves the store recoverable to either the pre-write or
//! the post-write state — never a torn third state.  The harness proves
//! it exhaustively: for every byte boundary of a WAL frame it arms a
//! [`CrashPoint`] that kills the write there, reopens the database from
//! disk, and compares the recovered state against both legal outcomes.
//!
//! The property test drives the same machinery probabilistically: for an
//! arbitrary interleaving of inserts and deletes, every frame-boundary
//! prefix of the final WAL must replay to exactly the table state the
//! live database held at that point in history — and any mid-frame cut
//! must replay to the state one operation earlier.

use proptest::prelude::*;
use snowflake_core::durable::CrashPoint;
use snowflake_reldb::wal::encode_frame;
use snowflake_reldb::{
    ColumnType, Database, DurableDatabase, Predicate, Schema, Value, WalOp,
};
use std::path::PathBuf;

fn schema(db: &mut Database) {
    db.create_table(
        "t",
        Schema::new(&[("k", ColumnType::Text), ("n", ColumnType::Int)]),
    );
    db.table_mut("t").unwrap().create_index("k").unwrap();
}

/// A fresh on-disk base path (removing any artifacts of a prior run).
fn fresh_base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-reldb-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for ext in ["wal", "snap", "snap.tmp"] {
        let _ = std::fs::remove_file(dir.join(name).with_extension(ext));
    }
    dir.join(name)
}

/// All live rows of `t`, sorted (the canonical state fingerprint).
fn state(db: &DurableDatabase) -> Vec<Vec<Value>> {
    let mut rows = db
        .database()
        .table("t")
        .unwrap()
        .select(&Predicate::True, &[])
        .unwrap();
    rows.sort();
    rows
}

fn row(k: &str, n: i64) -> Vec<Value> {
    vec![Value::text(k), Value::Int(n)]
}

/// Kills an insert at every byte boundary of its frame and asserts the
/// reopened database holds exactly the pre- or post-write state.
#[test]
fn insert_crash_at_every_byte_boundary_recovers_pre_or_post() {
    // The target op and its exact frame length (seq 2 after two setup
    // inserts — the seq digit count affects the frame length, so compute
    // it for the real seq).
    let target = WalOp::Insert {
        table: "t".into(),
        row: row("c", 3),
    };
    let frame_len = encode_frame(2, &target).len();
    assert!(frame_len > 20, "frame should span many boundaries");

    for cut in 0..=frame_len {
        let base = fresh_base(&format!("ins-cut-{cut}"));
        // Pre-state: two committed rows, crash point still inert budget-
        // wise (the budget counts only bytes written after arming — the
        // setup runs on a separate open).
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            db.insert("t", row("a", 1)).unwrap();
            db.insert("t", row("b", 2)).unwrap();
        }
        let pre = {
            let db = DurableDatabase::open(&base, schema).unwrap();
            state(&db)
        };

        // The doomed write: crash after exactly `cut` bytes of the frame.
        let crash = CrashPoint::after_bytes(cut as u64);
        {
            let mut db =
                DurableDatabase::open_with_crash_point(&base, schema, crash.clone()).unwrap();
            let r = db.insert("t", row("c", 3));
            if cut < frame_len {
                assert!(r.is_err(), "cut {cut}: a torn write must error");
                assert!(crash.tripped());
            } else {
                // The full frame fit the budget: the write committed.
                r.unwrap();
            }
        }

        // "Restart": recover from disk only.
        let db = DurableDatabase::open(&base, schema).unwrap();
        let recovered = state(&db);
        let mut post = pre.clone();
        post.push(row("c", 3));
        post.sort();
        if cut < frame_len {
            assert_eq!(
                recovered, pre,
                "cut {cut}: torn frame must recover to the pre-write state"
            );
            if cut > 0 {
                assert_eq!(
                    db.recovery().truncated_bytes,
                    cut as u64,
                    "cut {cut}: exactly the torn prefix is discarded"
                );
            }
        } else {
            assert_eq!(recovered, post, "complete frame must recover to the post-write state");
        }
    }
}

/// The same exhaustive sweep for a delete (predicate-framed op).
#[test]
fn delete_crash_at_every_byte_boundary_recovers_pre_or_post() {
    let target = WalOp::Delete {
        table: "t".into(),
        pred: Predicate::eq("k", Value::text("a")),
    };
    let frame_len = encode_frame(2, &target).len();

    for cut in 0..=frame_len {
        let base = fresh_base(&format!("del-cut-{cut}"));
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            db.insert("t", row("a", 1)).unwrap();
            db.insert("t", row("b", 2)).unwrap();
        }
        let crash = CrashPoint::after_bytes(cut as u64);
        {
            let mut db =
                DurableDatabase::open_with_crash_point(&base, schema, crash.clone()).unwrap();
            let r = db.delete("t", &Predicate::eq("k", Value::text("a")));
            assert_eq!(r.is_err(), cut < frame_len, "cut {cut}");
        }
        let db = DurableDatabase::open(&base, schema).unwrap();
        let expected = if cut < frame_len {
            vec![row("a", 1), row("b", 2)]
        } else {
            vec![row("b", 2)]
        };
        assert_eq!(state(&db), expected, "cut {cut}");
    }
}

/// Crashes at every stage of compaction (snapshot bytes, snapshot fsync,
/// rename, WAL truncation) must preserve the exact committed state.
#[test]
fn compaction_crash_never_loses_committed_state() {
    let full_snapshot_len = {
        // Measure a same-shaped compaction on a scratch copy to learn the
        // snapshot's byte length.
        let base = fresh_base("compact-measure");
        let mut db = DurableDatabase::open(&base, schema).unwrap();
        for i in 0..5 {
            db.insert("t", row(&format!("k{i}"), i)).unwrap();
        }
        db.compact().unwrap();
        std::fs::read(base.with_extension("snap")).unwrap().len()
    };

    // Cut budgets from 0 bytes through past-the-end (the +3 covers the
    // post-write check()s guarding fsync/rename/truncate).
    for cut in (0..=full_snapshot_len + 3).step_by(7) {
        let base = fresh_base(&format!("compact-cut-{cut}"));
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            for i in 0..5 {
                db.insert("t", row(&format!("k{i}"), i)).unwrap();
            }
        }
        let committed = {
            let db = DurableDatabase::open(&base, schema).unwrap();
            state(&db)
        };
        {
            let mut db = DurableDatabase::open_with_crash_point(
                &base,
                schema,
                CrashPoint::after_bytes(cut as u64),
            )
            .unwrap();
            let _ = db.compact();
        }
        let db = DurableDatabase::open(&base, schema).unwrap();
        assert_eq!(
            state(&db),
            committed,
            "compaction cut at {cut} bytes changed committed state"
        );
    }
}

/// Post-crash appends after recovery keep working and stay recoverable.
#[test]
fn recovery_then_further_writes_then_recovery_again() {
    let base = fresh_base("rewrite");
    {
        let mut db = DurableDatabase::open(&base, schema).unwrap();
        db.insert("t", row("a", 1)).unwrap();
    }
    // Torn write.
    {
        let mut db = DurableDatabase::open_with_crash_point(
            &base,
            schema,
            CrashPoint::after_bytes(5),
        )
        .unwrap();
        assert!(db.insert("t", row("b", 2)).is_err());
    }
    // Recover, then write more.
    {
        let mut db = DurableDatabase::open(&base, schema).unwrap();
        assert!(db.recovery().truncated_bytes > 0);
        db.insert("t", row("c", 3)).unwrap();
        db.compact().unwrap();
        db.insert("t", row("d", 4)).unwrap();
    }
    let db = DurableDatabase::open(&base, schema).unwrap();
    assert_eq!(state(&db), vec![row("a", 1), row("c", 3), row("d", 4)]);
    assert_eq!(db.recovery().from_snapshot, 2);
    assert_eq!(db.recovery().replayed, 1);
}

#[derive(Debug, Clone)]
enum Op {
    Insert { k: u8, n: i64 },
    Delete { k: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, -100i64..100).prop_map(|(k, n)| Op::Insert { k, n }),
        (0u8..6).prop_map(|k| Op::Delete { k }),
    ]
}

fn apply_op(db: &mut DurableDatabase, op: &Op) {
    match op {
        Op::Insert { k, n } => {
            db.insert("t", row(&format!("k{k}"), *n)).unwrap();
        }
        Op::Delete { k } => {
            db.delete("t", &Predicate::eq("k", Value::text(format!("k{k}"))))
                .unwrap();
        }
    }
}

proptest! {
    /// For arbitrary insert/delete interleavings, every frame-boundary
    /// prefix of the WAL replays to exactly the state the live database
    /// held at that point, and every mid-frame cut replays to the state
    /// one operation earlier.
    #[test]
    fn any_wal_prefix_replays_to_a_consistent_point_in_history(
        ops in proptest::collection::vec(arb_op(), 1..12),
        mid_cut in 1u64..50,
    ) {
        let base = fresh_base("proptest");
        // Drive the live database, fingerprinting after every op.
        let mut histories: Vec<Vec<Vec<Value>>> = Vec::new();
        let mut boundaries: Vec<u64> = Vec::new();
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            histories.push(state(&db));
            boundaries.push(db.wal_bytes());
            for op in &ops {
                apply_op(&mut db, op);
                histories.push(state(&db));
                boundaries.push(db.wal_bytes());
            }
        }
        let wal_path = base.with_extension("wal");
        let full = std::fs::read(&wal_path).unwrap();
        prop_assert_eq!(*boundaries.last().unwrap() as usize, full.len());

        // Every frame-boundary prefix replays to its point in history.
        for (i, &end) in boundaries.iter().enumerate() {
            std::fs::write(&wal_path, &full[..end as usize]).unwrap();
            let db = DurableDatabase::open(&base, schema).unwrap();
            prop_assert_eq!(&state(&db), &histories[i], "prefix of {} ops", i);
        }

        // A mid-frame cut is a torn tail: state rolls back to the last
        // whole frame before the cut.
        let cut = (boundaries[boundaries.len() - 1]
            .saturating_sub(mid_cut))
            .max(boundaries[boundaries.len() - 2] + 1)
            .min(boundaries[boundaries.len() - 1].saturating_sub(1));
        if cut > boundaries[boundaries.len() - 2] {
            std::fs::write(&wal_path, &full[..cut as usize]).unwrap();
            let db = DurableDatabase::open(&base, schema).unwrap();
            prop_assert_eq!(&state(&db), &histories[histories.len() - 2]);
        }
    }
}
