//! Write-ahead logging and crash recovery for [`Database`].
//!
//! A [`DurableDatabase`] applies every mutation **append-before-apply**:
//! the operation is framed, appended to the write-ahead log, and fsynced
//! *before* it touches the in-memory tables.  A crash at any byte of that
//! sequence therefore leaves the log holding either the complete frame
//! (replay reproduces the post-write state) or a torn prefix of it
//! (replay truncates the tail and reproduces the pre-write state) — never
//! a third state.
//!
//! # On-disk format
//!
//! The WAL (`<base>.wal`) is a sequence of frames:
//!
//! ```text
//! ┌─────────────┬──────────────┬──────────────────┐
//! │ len: u32 LE │ crc32: u32 LE│ payload (len B)  │
//! └─────────────┴──────────────┴──────────────────┘
//! ```
//!
//! The payload is the canonical S-expression
//! `(wal (seq n) <op>)` where `<op>` is one of [`WalOp`]'s wire forms.
//! The CRC (IEEE 802.3) covers the payload only.  The WAL is an
//! [`AppendLog`] and `decode_frame` is its record decoder: a frame
//! whose header or payload is short is incomplete, one whose CRC
//! mismatches (or whose payload does not parse) is damaged.  Either is a
//! torn tail and is truncated away when it is the stream's final frame;
//! a damaged frame with anything after it is corruption and the open
//! fails (see [`snowflake_core::durable::scan`]).
//!
//! The snapshot (`<base>.snap`) is one frame with payload
//! `(db-snapshot (next-seq n) (table <name> (row …)…)…)` written
//! tmp-then-rename, so it is atomically either the old or the new one.
//! Replay skips WAL frames with `seq < next-seq`, which is what makes the
//! compaction sequence (snapshot, then truncate the WAL) crash-safe at
//! every point between its steps.

use crate::{Database, DbError, Predicate, Value};
use snowflake_core::durable::{AppendLog, CrashPoint, Record, RecoveryReport};
use snowflake_sexpr::Sexp;
use std::fs::File;
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, reflected) over `data` — the frame checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert `row` into `table`.
    Insert {
        /// Target table.
        table: String,
        /// The row values, in schema order.
        row: Vec<Value>,
    },
    /// Update rows of `table` matching `pred` with `assignments`.
    Update {
        /// Target table.
        table: String,
        /// Row filter.
        pred: Predicate,
        /// `(column, value)` assignments.
        assignments: Vec<(String, Value)>,
    },
    /// Delete rows of `table` matching `pred`.
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        pred: Predicate,
    },
}

impl WalOp {
    /// Serializes the operation to its wire form.
    pub fn to_sexp(&self) -> Sexp {
        match self {
            WalOp::Insert { table, row } => Sexp::tagged(
                "insert",
                vec![
                    Sexp::tagged("table", vec![Sexp::from(table.as_str())]),
                    Sexp::tagged("row", row.iter().map(Value::to_sexp).collect()),
                ],
            ),
            WalOp::Update {
                table,
                pred,
                assignments,
            } => Sexp::tagged(
                "update",
                vec![
                    Sexp::tagged("table", vec![Sexp::from(table.as_str())]),
                    Sexp::tagged("pred", vec![pred.to_sexp()]),
                    Sexp::tagged(
                        "set",
                        assignments
                            .iter()
                            .map(|(c, v)| {
                                Sexp::tagged("col", vec![Sexp::from(c.as_str()), v.to_sexp()])
                            })
                            .collect(),
                    ),
                ],
            ),
            WalOp::Delete { table, pred } => Sexp::tagged(
                "delete",
                vec![
                    Sexp::tagged("table", vec![Sexp::from(table.as_str())]),
                    Sexp::tagged("pred", vec![pred.to_sexp()]),
                ],
            ),
        }
    }

    /// Parses the form produced by [`WalOp::to_sexp`].
    pub fn from_sexp(e: &Sexp) -> Result<WalOp, DbError> {
        let table = || {
            e.find_value("table")
                .and_then(Sexp::as_str)
                .map(str::to_string)
                .ok_or_else(|| DbError::Decode("wal op needs (table t)".into()))
        };
        let pred = || {
            Predicate::from_sexp(
                e.find_value("pred")
                    .ok_or_else(|| DbError::Decode("wal op needs (pred …)".into()))?,
            )
        };
        match e.tag_name() {
            Some("insert") => Ok(WalOp::Insert {
                table: table()?,
                row: e
                    .find("row")
                    .and_then(Sexp::tag_body)
                    .ok_or_else(|| DbError::Decode("insert needs (row …)".into()))?
                    .iter()
                    .map(Value::from_sexp)
                    .collect::<Result<_, _>>()?,
            }),
            Some("update") => Ok(WalOp::Update {
                table: table()?,
                pred: pred()?,
                assignments: e
                    .find("set")
                    .and_then(Sexp::tag_body)
                    .ok_or_else(|| DbError::Decode("update needs (set …)".into()))?
                    .iter()
                    .map(|c| {
                        let body = c.tag_body().unwrap_or(&[]);
                        match body {
                            [name, value] if c.tag_name() == Some("col") => Ok((
                                name.as_str()
                                    .ok_or_else(|| DbError::Decode("bad column".into()))?
                                    .to_string(),
                                Value::from_sexp(value)?,
                            )),
                            _ => Err(DbError::Decode("bad (col name value)".into())),
                        }
                    })
                    .collect::<Result<_, _>>()?,
            }),
            Some("delete") => Ok(WalOp::Delete {
                table: table()?,
                pred: pred()?,
            }),
            _ => Err(DbError::Decode("unknown wal op".into())),
        }
    }
}

/// Encodes one WAL frame: length + CRC header, then the canonical
/// `(wal (seq n) <op>)` payload.  Public so the crash-injection harness
/// can compute exact byte boundaries.
pub fn encode_frame(seq: u64, op: &WalOp) -> Vec<u8> {
    frame(
        Sexp::tagged(
            "wal",
            vec![Sexp::tagged("seq", vec![Sexp::int(seq)]), op.to_sexp()],
        )
        .canonical(),
    )
}

/// Wraps `payload` in the `len | crc32` header (WAL frames and snapshots).
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// The checksummed payload of the frame at the front of `rest` and the
/// frame's byte length, or why there is none.
fn frame_payload(rest: &[u8]) -> Result<(&[u8], usize), Record> {
    let header = rest.get(..8).ok_or(Record::Incomplete)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let payload = rest.get(8..8 + len).ok_or(Record::Incomplete)?;
    if crc32(payload) != crc {
        return Err(Record::Damaged(8 + len));
    }
    Ok((payload, 8 + len))
}

/// One decoded frame.
struct Frame {
    seq: u64,
    op: WalOp,
}

/// The WAL's record decoder: classifies the frame at the front of
/// `rest`, pushing it onto `frames` when it is intact.
fn decode_frame(rest: &[u8], frames: &mut Vec<Frame>) -> Record {
    let (payload, len) = match frame_payload(rest) {
        Ok(p) => p,
        Err(r) => return r,
    };
    match parse_frame(payload) {
        Ok(frame) => {
            frames.push(frame);
            Record::Intact(len)
        }
        Err(_) => Record::Damaged(len),
    }
}

fn parse_frame(payload: &[u8]) -> Result<Frame, DbError> {
    let e = Sexp::parse(payload)?;
    if e.tag_name() != Some("wal") {
        return Err(DbError::Decode("expected (wal …) frame".into()));
    }
    let seq = e
        .find_value("seq")
        .and_then(Sexp::as_u64)
        .ok_or_else(|| DbError::Decode("wal frame needs (seq n)".into()))?;
    let op = e
        .tag_body()
        .and_then(|body| body.iter().find(|s| s.tag_name() != Some("seq")))
        .ok_or_else(|| DbError::Decode("wal frame needs an op".into()))
        .and_then(WalOp::from_sexp)?;
    Ok(Frame { seq, op })
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> DbError {
    DbError::Io(format!("{what} {}: {e}", path.display()))
}

/// A [`Database`] whose mutations survive crashes.
///
/// Reads go straight to the in-memory [`Database`]
/// ([`DurableDatabase::database`]); every mutation is WAL-logged
/// append-before-apply.  [`DurableDatabase::compact`] bounds the log by
/// snapshotting the live state and truncating the WAL.
///
/// [`DurableDatabase::ephemeral`] gives the same API with no backing
/// files — the pre-durability in-memory behavior — so callers mount one
/// type either way.
pub struct DurableDatabase {
    db: Database,
    wal: Option<WalWriter>,
    recovery: RecoveryReport,
}

struct WalWriter {
    wal_path: PathBuf,
    snap_path: PathBuf,
    log: AppendLog,
    next_seq: u64,
    /// Guards the compaction snapshot write (the log carries its own).
    crash: CrashPoint,
    records_since_snapshot: u64,
}

impl DurableDatabase {
    /// An in-memory database with the durable API and no backing files.
    pub fn ephemeral(schema: impl FnOnce(&mut Database)) -> DurableDatabase {
        let mut db = Database::new();
        schema(&mut db);
        DurableDatabase {
            db,
            wal: None,
            recovery: RecoveryReport::default(),
        }
    }

    /// Opens (creating or recovering) a durable database rooted at
    /// `base`: the WAL lives at `<base>.wal`, snapshots at `<base>.snap`.
    ///
    /// `schema` creates the tables and indexes (schema is code, not
    /// logged); any snapshot is then loaded and the WAL replayed on top,
    /// truncating a torn tail if the last write was interrupted.
    pub fn open(
        base: impl Into<PathBuf>,
        schema: impl FnOnce(&mut Database),
    ) -> Result<DurableDatabase, DbError> {
        Self::open_with_crash_point(base, schema, CrashPoint::inert())
    }

    /// [`DurableDatabase::open`] with a fault-injection hook threaded
    /// through every subsequent durable write (the crash harness).
    pub fn open_with_crash_point(
        base: impl Into<PathBuf>,
        schema: impl FnOnce(&mut Database),
        crash: CrashPoint,
    ) -> Result<DurableDatabase, DbError> {
        let base: PathBuf = base.into();
        let wal_path = base.with_extension("wal");
        let snap_path = base.with_extension("snap");
        let snap_tmp = base.with_extension("snap.tmp");
        // A leftover tmp snapshot is an interrupted compaction that never
        // committed; the WAL still covers everything it held.
        let _ = std::fs::remove_file(&snap_tmp);

        let mut db = Database::new();
        schema(&mut db);
        let mut recovery = RecoveryReport::default();

        // Load the snapshot, if any.
        let mut next_seq = 0u64;
        if let Ok(data) = std::fs::read(&snap_path) {
            let (seq, rows) = decode_snapshot(&data)?;
            next_seq = seq;
            for (table, row) in rows {
                db.table_mut(&table)?.insert(row)?;
                recovery.from_snapshot += 1;
            }
        }

        // Replay the WAL on top, skipping frames the snapshot covers.
        let mut frames = Vec::new();
        let (log, truncated) = AppendLog::open(&wal_path, crash.clone(), |rest| {
            decode_frame(rest, &mut frames)
        })
        .map_err(|e| io_err("open", &wal_path, e))?;
        recovery.truncated_bytes = truncated;
        for frame in &frames {
            if frame.seq < next_seq {
                continue; // covered by the snapshot
            }
            if frame.seq != next_seq {
                return Err(DbError::Decode(format!(
                    "wal sequence gap: expected {next_seq}, found {}",
                    frame.seq
                )));
            }
            // Replay is apply-or-deterministic-error: an op that failed
            // when first applied fails identically here, leaving the
            // same state either way.
            let _ = apply(&mut db, &frame.op);
            next_seq += 1;
            recovery.replayed += 1;
        }

        Ok(DurableDatabase {
            db,
            recovery,
            wal: Some(WalWriter {
                wal_path,
                snap_path,
                log,
                next_seq,
                crash,
                records_since_snapshot: frames.len() as u64,
            }),
        })
    }

    /// The in-memory database (all reads go here).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// WAL records appended since the last snapshot (0 for ephemeral).
    pub fn wal_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.records_since_snapshot)
    }

    /// Current WAL size in bytes (0 for ephemeral).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.log.len())
    }

    /// What the most recent open recovered (all zero for ephemeral).
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Appends `op` to the WAL (fsync included) and then applies it.
    fn log_then_apply(&mut self, op: WalOp) -> Result<usize, DbError> {
        if let Some(w) = &mut self.wal {
            w.log
                .append(&encode_frame(w.next_seq, &op))
                .map_err(|e| io_err("append", &w.wal_path, e))?;
            w.next_seq += 1;
            w.records_since_snapshot += 1;
        }
        apply(&mut self.db, &op)
    }

    /// Durable insert; returns the row id (stable until the next
    /// compaction, which re-packs live rows).
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<usize, DbError> {
        // Validate before logging so the WAL never records a row the
        // schema would refuse.
        self.db.table(table)?.schema().check_row(&row)?;
        self.log_then_apply(WalOp::Insert {
            table: table.to_string(),
            row,
        })
    }

    /// Durable update; returns the number of rows changed.
    pub fn update(
        &mut self,
        table: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<usize, DbError> {
        self.db.table(table)?; // surface NoSuchTable before logging
        self.log_then_apply(WalOp::Update {
            table: table.to_string(),
            pred: pred.clone(),
            assignments: assignments.to_vec(),
        })
    }

    /// Durable delete; returns the number of rows deleted.
    pub fn delete(&mut self, table: &str, pred: &Predicate) -> Result<usize, DbError> {
        self.db.table(table)?;
        self.log_then_apply(WalOp::Delete {
            table: table.to_string(),
            pred: pred.clone(),
        })
    }

    /// Snapshots the live state and truncates the WAL, bounding replay
    /// time.  Crash-safe at every step: the snapshot is written
    /// tmp-then-rename (atomically old or new), and until the WAL is
    /// truncated its frames are skipped on replay via the snapshot's
    /// `next-seq` watermark.
    pub fn compact(&mut self) -> Result<(), DbError> {
        let Some(w) = &mut self.wal else {
            return Ok(()); // ephemeral: nothing to bound
        };
        let snap = encode_snapshot(&self.db, w.next_seq)?;
        let tmp = w.snap_path.with_extension("snap.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            w.crash
                .write_all(&mut f, &snap)
                .map_err(|e| io_err("write", &tmp, e))?;
            w.crash.check().map_err(|e| io_err("sync", &tmp, e))?;
            f.sync_data().map_err(|e| io_err("sync", &tmp, e))?;
        }
        w.crash.check().map_err(|e| io_err("rename", &tmp, e))?;
        std::fs::rename(&tmp, &w.snap_path).map_err(|e| io_err("rename", &tmp, e))?;
        w.log
            .clear()
            .map_err(|e| io_err("truncate", &w.wal_path, e))?;
        w.records_since_snapshot = 0;
        Ok(())
    }
}

/// Applies one op to the in-memory database.
fn apply(db: &mut Database, op: &WalOp) -> Result<usize, DbError> {
    match op {
        WalOp::Insert { table, row } => db.table_mut(table)?.insert(row.clone()),
        WalOp::Update {
            table,
            pred,
            assignments,
        } => db.table_mut(table)?.update(pred, assignments),
        WalOp::Delete { table, pred } => db.table_mut(table)?.delete(pred),
    }
}

/// Encodes the whole live state as one snapshot frame.
fn encode_snapshot(db: &Database, next_seq: u64) -> Result<Vec<u8>, DbError> {
    let mut body = vec![Sexp::tagged("next-seq", vec![Sexp::int(next_seq)])];
    for name in db.table_names() {
        let rows = db.table(&name)?.select(&Predicate::True, &[])?;
        body.push(Sexp::tagged(
            "table",
            std::iter::once(Sexp::from(name.as_str()))
                .chain(
                    rows.iter()
                        .map(|r| Sexp::tagged("row", r.iter().map(Value::to_sexp).collect())),
                )
                .collect(),
        ));
    }
    Ok(frame(Sexp::tagged("db-snapshot", body).canonical()))
}

/// Decodes a snapshot frame into its watermark and `(table, row)` pairs.
fn decode_snapshot(data: &[u8]) -> Result<(u64, Vec<(String, Vec<Value>)>), DbError> {
    let (payload, _) = frame_payload(data)
        .map_err(|_| DbError::Decode("snapshot frame short or checksum mismatch".into()))?;
    let e = Sexp::parse(payload)?;
    if e.tag_name() != Some("db-snapshot") {
        return Err(DbError::Decode("expected (db-snapshot …)".into()));
    }
    let next_seq = e
        .find_value("next-seq")
        .and_then(Sexp::as_u64)
        .ok_or_else(|| DbError::Decode("snapshot needs (next-seq n)".into()))?;
    let mut rows = Vec::new();
    for t in e.tag_body().unwrap_or(&[]) {
        if t.tag_name() != Some("table") {
            continue;
        }
        let body = t.tag_body().unwrap_or(&[]);
        let name = body
            .first()
            .and_then(Sexp::as_str)
            .ok_or_else(|| DbError::Decode("snapshot table needs a name".into()))?;
        for r in &body[1..] {
            if r.tag_name() != Some("row") {
                return Err(DbError::Decode("snapshot table holds rows".into()));
            }
            rows.push((
                name.to_string(),
                r.tag_body()
                    .unwrap_or(&[])
                    .iter()
                    .map(Value::from_sexp)
                    .collect::<Result<_, _>>()?,
            ));
        }
    }
    Ok((next_seq, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnType, Schema};

    fn schema(db: &mut Database) {
        db.create_table(
            "t",
            Schema::new(&[("k", ColumnType::Text), ("n", ColumnType::Int)]),
        );
        db.table_mut("t").unwrap().create_index("k").unwrap();
    }

    fn base(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sf-wal-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for ext in ["wal", "snap", "snap.tmp"] {
            let _ = std::fs::remove_file(dir.join(name).with_extension(ext));
        }
        dir.join(name)
    }

    fn rows(db: &DurableDatabase) -> Vec<Vec<Value>> {
        let mut rows = db.database().table("t").unwrap().select(&Predicate::True, &[]).unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn crc_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn wal_op_roundtrips() {
        let ops = [
            WalOp::Insert {
                table: "t".into(),
                row: vec![Value::text("a"), Value::Int(-3)],
            },
            WalOp::Update {
                table: "t".into(),
                pred: Predicate::eq("k", Value::text("a")),
                assignments: vec![("n".into(), Value::Int(9))],
            },
            WalOp::Delete {
                table: "t".into(),
                pred: Predicate::gt("n", Value::Int(0)),
            },
        ];
        for op in ops {
            let back = WalOp::from_sexp(&op.to_sexp()).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn mutations_survive_reopen() {
        let base = base("reopen");
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            db.insert("t", vec![Value::text("a"), Value::Int(1)]).unwrap();
            db.insert("t", vec![Value::text("b"), Value::Int(2)]).unwrap();
            db.update("t", &Predicate::eq("k", Value::text("a")), &[("n".into(), Value::Int(10))])
                .unwrap();
            db.delete("t", &Predicate::eq("k", Value::text("b"))).unwrap();
        }
        let db = DurableDatabase::open(&base, schema).unwrap();
        assert_eq!(rows(&db), vec![vec![Value::text("a"), Value::Int(10)]]);
        assert_eq!(db.recovery().replayed, 4);
        assert_eq!(db.recovery().truncated_bytes, 0);
    }

    #[test]
    fn compaction_bounds_the_wal_and_preserves_state() {
        let base = base("compact");
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            for i in 0..10 {
                db.insert("t", vec![Value::text(&format!("k{i}")), Value::Int(i)])
                    .unwrap();
            }
            db.compact().unwrap();
            assert_eq!(db.wal_records(), 0);
            assert_eq!(db.wal_bytes(), 0);
            // Post-compaction mutations land in the fresh WAL.
            db.insert("t", vec![Value::text("late"), Value::Int(99)]).unwrap();
            assert_eq!(db.wal_records(), 1);
        }
        let db = DurableDatabase::open(&base, schema).unwrap();
        assert_eq!(rows(&db).len(), 11);
        assert_eq!(db.recovery().from_snapshot, 10);
        assert_eq!(db.recovery().replayed, 1);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_previous_state() {
        let base = base("torn");
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            db.insert("t", vec![Value::text("a"), Value::Int(1)]).unwrap();
            db.insert("t", vec![Value::text("b"), Value::Int(2)]).unwrap();
        }
        // Tear the last frame: chop 3 bytes off the WAL.  Recovery drops
        // the whole torn frame (its CRC no longer matches), not just the
        // chopped bytes.
        let wal = base.with_extension("wal");
        let data = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &data[..data.len() - 3]).unwrap();

        let db = DurableDatabase::open(&base, schema).unwrap();
        assert_eq!(rows(&db), vec![vec![Value::text("a"), Value::Int(1)]]);
        assert!(db.recovery().truncated_bytes > 0);
        assert_eq!(db.recovery().replayed, 1);
        // The truncation is durable: the next open is clean.
        let db = DurableDatabase::open(&base, schema).unwrap();
        assert_eq!(db.recovery().truncated_bytes, 0);
    }

    #[test]
    fn mid_stream_corruption_fails_the_open() {
        let base = base("corrupt");
        {
            let mut db = DurableDatabase::open(&base, schema).unwrap();
            db.insert("t", vec![Value::text("a"), Value::Int(1)]).unwrap();
            db.insert("t", vec![Value::text("b"), Value::Int(2)]).unwrap();
        }
        // Flip a payload byte of the FIRST frame: its CRC no longer
        // matches, and a whole acknowledged frame follows it.  That is not
        // a torn tail — truncating it would silently drop the good second
        // frame — so the open must fail and leave the file untouched.
        let wal = base.with_extension("wal");
        let mut data = std::fs::read(&wal).unwrap();
        data[10] ^= 0xff;
        std::fs::write(&wal, &data).unwrap();
        let err = DurableDatabase::open(&base, schema).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("damaged record"), "{err}");
        assert_eq!(std::fs::read(&wal).unwrap(), data, "nothing truncated");
    }

    #[test]
    fn ephemeral_has_no_files_and_full_api() {
        let mut db = DurableDatabase::ephemeral(schema);
        db.insert("t", vec![Value::text("a"), Value::Int(1)]).unwrap();
        db.update("t", &Predicate::True, &[("n".into(), Value::Int(2))]).unwrap();
        assert_eq!(db.wal_bytes(), 0);
        db.compact().unwrap();
        assert_eq!(rows(&db), vec![vec![Value::text("a"), Value::Int(2)]]);
    }

    #[test]
    fn schema_violations_are_refused_before_logging() {
        let base = base("refuse");
        let mut db = DurableDatabase::open(&base, schema).unwrap();
        assert!(db.insert("t", vec![Value::Int(1)]).is_err());
        assert!(db.insert("ghost", vec![]).is_err());
        assert_eq!(db.wal_records(), 0, "nothing reached the log");
    }
}
