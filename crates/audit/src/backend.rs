//! Storage backends for the audit log.
//!
//! The log core is backend-agnostic: a backend persists the entry stream
//! and answers queries.  Three are provided:
//!
//! * [`MemoryBackend`] — a bounded in-memory ring for live operations
//!   (tail queries, tests, benches).  Once the ring evicts, the retained
//!   stream is a *suffix* and can no longer be chain-verified from
//!   genesis; eviction is counted so that is visible.
//! * [`FileBackend`] — append-only files of transport-encoded
//!   S-expressions, one entry per line: each segment is an
//!   [`AppendLog`], fsynced per append and recovered on reopen (a torn
//!   final line is truncated, a damaged line before the end fails the
//!   open): the durable form an auditor copies off the box and verifies
//!   offline with [`crate::verify_chain`].
//!   Rotation caps segment size without renames: `path` is segment 1 and
//!   later segments live at `path.2`, `path.3`, …, each opening with an
//!   anchor line that seals it to its predecessor's last record, so chain
//!   verification spans the seams.
//! * [`DbBackend`] — an indexed relational table over the same
//!   `snowflake-reldb` substrate the email application uses, where the
//!   query API becomes an indexed `select … ORDER BY seq DESC LIMIT n`.

use crate::query::AuditQuery;
use crate::record::{ChainedRecord, LogEntry};
use snowflake_core::durable::{scan, AppendLog, CrashPoint, Record, RecoveryReport};
use snowflake_crypto::HashVal;
use snowflake_reldb::{
    ColumnType, Database, Predicate, Schema, SelectQuery, SortOrder, Value,
};
use snowflake_sexpr::Sexp;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// A capture of a backend's retained stream, taken under the log lock in
/// O(1) for file-backed streams, decoded *outside* it.
///
/// Full-stream exports ([`crate::AuditLog::entries`],
/// [`crate::AuditLog::verify`]) used to hold the log's mutex while the
/// backend read and parsed its whole stream, stalling the audit sink's
/// drain worker into counted drops on big logs.  A snapshot pins only
/// *what* to read — for [`FileBackend`], segment paths plus the clean
/// byte length of the active segment (appends and rotations are strictly
/// additive, so those bytes never change after capture) — and
/// [`EntrySnapshot::load`] does the I/O and parsing with no lock held.
pub enum EntrySnapshot {
    /// The entries themselves (in-memory backends clone their ring).
    Entries(Vec<LogEntry>),
    /// Byte ranges of on-disk segments: `(path, Some(clean_len))` reads a
    /// prefix, `(path, None)` the whole (sealed, immutable) file.
    Files(Vec<(PathBuf, Option<u64>)>),
}

impl EntrySnapshot {
    /// Decodes the captured stream, oldest first.
    pub fn load(self) -> Result<Vec<LogEntry>, String> {
        match self {
            EntrySnapshot::Entries(entries) => Ok(entries),
            EntrySnapshot::Files(parts) => {
                let mut out = Vec::new();
                for (path, len) in parts {
                    out.extend(
                        read_segment(&path, len)?
                            .into_iter()
                            .filter_map(|l| match l {
                                SegmentLine::Entry(e) => Some(e),
                                SegmentLine::Anchor(..) => None,
                            }),
                    );
                }
                Ok(out)
            }
        }
    }
}

/// Where an [`crate::AuditLog`] keeps its entries.
pub trait AuditBackend: Send {
    /// Persists one entry at the end of the stream.
    fn append(&mut self, entry: &LogEntry) -> Result<(), String>;

    /// The retained entry stream, oldest first (for verification, export,
    /// and log resumption).
    fn entries(&self) -> Result<Vec<LogEntry>, String>;

    /// Captures the retained stream for decoding outside the log lock.
    /// The default clones via [`AuditBackend::entries`]; file-backed
    /// streams override it with an O(1) byte-range capture.
    fn snapshot(&self) -> Result<EntrySnapshot, String> {
        Ok(EntrySnapshot::Entries(self.entries()?))
    }

    /// Answers a query over the retained records.  The default filters
    /// [`AuditBackend::entries`]; indexed backends override it.
    fn query(&self, q: &AuditQuery) -> Result<Vec<ChainedRecord>, String> {
        let records: Vec<ChainedRecord> = self
            .entries()?
            .into_iter()
            .filter_map(|e| match e {
                LogEntry::Record(r) => Some(r),
                LogEntry::Checkpoint(_) => None,
            })
            .collect();
        Ok(q.apply(&records))
    }

    /// Entries evicted to honor a retention bound (0 for unbounded
    /// backends).  A non-zero count means [`AuditBackend::entries`] is a
    /// suffix of the true stream.
    fn evicted(&self) -> u64 {
        0
    }
}

/// A bounded in-memory ring of the newest entries.
pub struct MemoryBackend {
    entries: VecDeque<LogEntry>,
    capacity: usize,
    evicted: u64,
}

impl MemoryBackend {
    /// A ring retaining at most `capacity` entries (`0` = unbounded).
    pub fn new(capacity: usize) -> MemoryBackend {
        MemoryBackend {
            entries: VecDeque::new(),
            capacity,
            evicted: 0,
        }
    }
}

impl AuditBackend for MemoryBackend {
    fn append(&mut self, entry: &LogEntry) -> Result<(), String> {
        // Evict before pushing, so the buffer never has to hold
        // `capacity + 1` entries: that one extra would double it.
        if self.capacity > 0 && self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry.clone());
        Ok(())
    }

    fn entries(&self) -> Result<Vec<LogEntry>, String> {
        Ok(self.entries.iter().cloned().collect())
    }

    fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// One decoded line of a file segment.
enum SegmentLine {
    /// A log entry.
    Entry(LogEntry),
    /// A rotation anchor: the previous segment's last record `(seq, hash)`.
    Anchor(u64, HashVal),
}

/// The segment record decoder, shared by open and [`EntrySnapshot::load`]:
/// classifies the line at the front of `rest`, pushing it onto `lines`
/// when it parses.  A line without its newline is incomplete; one that
/// does not parse is damaged; a blank line is intact and yields nothing.
fn decode_line(rest: &[u8], lines: &mut Vec<SegmentLine>) -> Record {
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        return Record::Incomplete;
    };
    let line = &rest[..nl];
    if !line.iter().all(u8::is_ascii_whitespace) {
        match parse_segment_line(line) {
            Ok(l) => lines.push(l),
            Err(_) => return Record::Damaged(nl + 1),
        }
    }
    Record::Intact(nl + 1)
}

/// Decodes a segment that must be wholly intact — a sealed segment, or
/// the clean prefix (`len`) of an active one.
fn read_segment(path: &Path, len: Option<u64>) -> Result<Vec<SegmentLine>, String> {
    let mut data = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if let Some(len) = len {
        data.truncate(len as usize);
    }
    let mut lines = Vec::new();
    match scan(&data, |rest| decode_line(rest, &mut lines)) {
        Ok(clean) if clean == data.len() => Ok(lines),
        Ok(_) => Err(format!(
            "{}: torn data before the stream end",
            path.display()
        )),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Applies the seam rules to one decoded segment — a rotated segment
/// (and only a rotated one) opens with an anchor sealing its
/// predecessor's last record — and advances `last_record`.  Returns the
/// segment's entry count.
fn check_segment(
    seg: &Path,
    rotated: bool,
    lines: Vec<SegmentLine>,
    last_record: &mut Option<(u64, HashVal)>,
) -> Result<u64, String> {
    let mut entries = 0;
    for (k, line) in lines.into_iter().enumerate() {
        match line {
            SegmentLine::Anchor(upto, head) => {
                if !rotated || k > 0 {
                    return Err(format!("{}: anchor outside a segment head", seg.display()));
                }
                if last_record.as_ref() != Some(&(upto, head)) {
                    return Err(format!(
                        "{}: rotation seam broken: anchor does not match \
                         the previous segment's last record",
                        seg.display()
                    ));
                }
            }
            SegmentLine::Entry(e) => {
                if rotated && k == 0 {
                    return Err(format!(
                        "{}: rotated segment is missing its anchor",
                        seg.display()
                    ));
                }
                if let LogEntry::Record(r) = &e {
                    *last_record = Some((r.seq, r.hash.clone()));
                }
                entries += 1;
            }
        }
    }
    Ok(entries)
}

fn parse_segment_line(line: &[u8]) -> Result<SegmentLine, String> {
    let s = Sexp::parse(line).map_err(|e| format!("bad entry line: {e}"))?;
    if s.tag_name() == Some("audit-anchor") {
        let upto = s
            .find_value("upto")
            .and_then(Sexp::as_u64)
            .ok_or("anchor needs (upto n)")?;
        let head = HashVal::from_sexp(
            s.find_value("head").ok_or("anchor needs (head h)")?,
        )
        .map_err(|e| format!("bad anchor head: {e}"))?;
        return Ok(SegmentLine::Anchor(upto, head));
    }
    LogEntry::from_sexp(&s)
        .map(SegmentLine::Entry)
        .map_err(|e| format!("bad entry: {e}"))
}

fn anchor_line(upto: u64, head: &HashVal) -> Vec<u8> {
    let mut line = Sexp::tagged(
        "audit-anchor",
        vec![
            Sexp::tagged("upto", vec![Sexp::int(upto)]),
            Sexp::tagged("head", vec![head.to_sexp()]),
        ],
    )
    .transport()
    .into_bytes();
    line.push(b'\n');
    line
}

/// Append-only segment files of transport-encoded entries, one per line,
/// fsynced per append and recovered on reopen.
///
/// Segment 1 is `path`; when a segment reaches the rotation bound the
/// backend starts `path.2`, `path.3`, … — never renaming, so captured
/// [`EntrySnapshot`]s stay valid while the log keeps running.  Every
/// segment after the first opens with the anchor line
/// `(audit-anchor (upto n) (head h))` naming its predecessor's last
/// record: the seam is sealed, and a sealed segment plus its successor's
/// anchor is independently verifiable off the box.
///
/// On reopen the sealed segments must parse completely and each anchor
/// must match its predecessor's last record (anything else is corruption
/// or tampering and fails the open); the *active* segment is an
/// [`AppendLog`], so only its final line may be torn, and is truncated
/// away exactly as the reldb WAL's final frame is.
pub struct FileBackend {
    path: PathBuf,
    /// The active segment.
    log: AppendLog,
    /// All segment paths, oldest first; the last one is active.
    segments: Vec<PathBuf>,
    /// Entry lines (anchors excluded) in the active segment.
    active_entries: u64,
    /// Rotate once the active segment holds this many entries.
    rotate_after: Option<u64>,
    /// The newest record in the stream (what an anchor will seal).
    last_record: Option<(u64, HashVal)>,
    recovery: RecoveryReport,
    crash: CrashPoint,
}

impl FileBackend {
    /// Opens (creating or recovering) an unrotated log at `path`.
    /// Existing entries are preserved; the owning log resumes from them.
    pub fn open(path: impl Into<PathBuf>) -> Result<FileBackend, String> {
        Self::with_crash_point(path, None, CrashPoint::inert())
    }

    /// [`FileBackend::open`] that rotates to a new segment once the
    /// active one holds `per_segment` entries.
    pub fn with_rotation(
        path: impl Into<PathBuf>,
        per_segment: u64,
    ) -> Result<FileBackend, String> {
        Self::with_crash_point(path, Some(per_segment.max(1)), CrashPoint::inert())
    }

    /// Full-control constructor threading a fault-injection hook through
    /// every durable write (the crash harness).
    pub fn with_crash_point(
        path: impl Into<PathBuf>,
        rotate_after: Option<u64>,
        crash: CrashPoint,
    ) -> Result<FileBackend, String> {
        let path: PathBuf = path.into();

        // Discover the segment chain: `path`, then `path.2`, `path.3`, …
        let mut segments = vec![path.clone()];
        loop {
            let next = segment_path(&path, segments.len() as u64 + 1);
            if next.exists() {
                segments.push(next);
            } else {
                break;
            }
        }

        let mut recovery = RecoveryReport::default();
        let mut last_record: Option<(u64, HashVal)> = None;
        let (active, sealed) = segments.split_last().expect("at least one segment");
        for (i, seg) in sealed.iter().enumerate() {
            // A hole in a sealed segment is not a torn tail — it is
            // corruption (or tampering) and must surface.
            let lines = read_segment(seg, None).map_err(|e| format!("sealed segment {e}"))?;
            recovery.from_snapshot += check_segment(seg, i > 0, lines, &mut last_record)?;
        }
        let mut lines = Vec::new();
        let (log, truncated) =
            AppendLog::open(active, crash.clone(), |rest| decode_line(rest, &mut lines))
                .map_err(|e| format!("open {}: {e}", active.display()))?;
        let rotated = !sealed.is_empty();
        // A rotation that crashed mid-anchor leaves an empty (or fully
        // torn) segment: re-issue the anchor below.
        let reanchor = rotated && lines.is_empty();
        recovery.replayed = check_segment(active, rotated, lines, &mut last_record)?;
        recovery.truncated_bytes = truncated;

        let mut backend = FileBackend {
            path,
            log,
            active_entries: recovery.replayed,
            segments,
            rotate_after,
            last_record,
            recovery,
            crash,
        };
        if reanchor {
            let (upto, head) = backend.last_record.clone().expect("anchored rotation");
            backend.write_line(&anchor_line(upto, &head))?;
        }
        Ok(backend)
    }

    /// The primary (first-segment) file of this backend.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of segment files (1 until the first rotation).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// What the most recent open recovered.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Durably appends one line to the active segment.
    fn write_line(&mut self, line: &[u8]) -> Result<(), String> {
        let active = self.segments.last().expect("active segment");
        self.log
            .append(line)
            .map_err(|e| format!("append {}: {e}", active.display()))
    }

    /// Starts the next segment, sealed to the current last record.
    fn rotate(&mut self) -> Result<(), String> {
        let Some((upto, head)) = self.last_record.clone() else {
            return Ok(()); // nothing to seal yet; keep filling segment 1
        };
        let next = segment_path(&self.path, self.segments.len() as u64 + 1);
        let (log, _) = AppendLog::open(&next, self.crash.clone(), |rest| {
            decode_line(rest, &mut Vec::new())
        })
        .map_err(|e| format!("rotate to {}: {e}", next.display()))?;
        if !log.is_empty() {
            return Err(format!(
                "rotate to {}: segment already exists",
                next.display()
            ));
        }
        self.log = log;
        self.segments.push(next);
        self.active_entries = 0;
        self.write_line(&anchor_line(upto, &head))
    }
}

/// `path` for segment 1, `path.k` for later segments.
fn segment_path(path: &Path, k: u64) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".{k}"));
    PathBuf::from(os)
}

impl AuditBackend for FileBackend {
    fn append(&mut self, entry: &LogEntry) -> Result<(), String> {
        if let Some(bound) = self.rotate_after {
            if self.active_entries >= bound {
                self.rotate()?;
            }
        }
        let mut line = entry.to_sexp().transport().into_bytes();
        line.push(b'\n');
        self.write_line(&line)?;
        self.active_entries += 1;
        if let LogEntry::Record(r) = entry {
            self.last_record = Some((r.seq, r.hash.clone()));
        }
        Ok(())
    }

    fn entries(&self) -> Result<Vec<LogEntry>, String> {
        self.snapshot()?.load()
    }

    fn snapshot(&self) -> Result<EntrySnapshot, String> {
        let mut parts: Vec<(PathBuf, Option<u64>)> = self
            .segments
            .iter()
            .map(|p| (p.clone(), None))
            .collect();
        // The active segment may hold torn bytes from a failed append
        // beyond the log's intact length; sealed segments are immutable.
        parts.last_mut().expect("active segment").1 = Some(self.log.len());
        Ok(EntrySnapshot::Files(parts))
    }
}

/// The audit table schema shared by [`DbBackend`] and external importers.
pub fn audit_schema(db: &mut Database) {
    db.create_table(
        "audit_records",
        Schema::new(&[
            ("seq", ColumnType::Int),
            ("time", ColumnType::Int),
            ("surface", ColumnType::Text),
            ("subject", ColumnType::Text),
            ("object", ColumnType::Text),
            ("action", ColumnType::Text),
            ("verdict", ColumnType::Text),
            ("epoch", ColumnType::Int),
            ("entry", ColumnType::Bytes),
        ]),
    );
    db.table_mut("audit_records")
        .expect("just created")
        .create_index("subject")
        .expect("column exists");
    db.create_table(
        "audit_checkpoints",
        Schema::new(&[("upto", ColumnType::Int), ("entry", ColumnType::Bytes)]),
    );
}

/// Records in a relational table (the email-database substrate), with a
/// subject index and `ORDER BY seq` / `LIMIT` queries.
pub struct DbBackend {
    db: Database,
}

impl DbBackend {
    /// An empty relational backend.
    pub fn new() -> DbBackend {
        let mut db = Database::new();
        audit_schema(&mut db);
        DbBackend { db }
    }

    /// The underlying database (read access for reporting tools).
    pub fn database(&self) -> &Database {
        &self.db
    }

    fn decode_entry_rows(rows: Vec<Vec<Value>>) -> Result<Vec<LogEntry>, String> {
        rows.into_iter()
            .map(|row| match row.last() {
                Some(Value::Bytes(bytes)) => Sexp::parse(bytes)
                    .map_err(|e| format!("bad stored entry: {e}"))
                    .and_then(|s| {
                        LogEntry::from_sexp(&s).map_err(|e| format!("bad stored entry: {e}"))
                    }),
                _ => Err("entry column missing".into()),
            })
            .collect()
    }
}

impl Default for DbBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl AuditBackend for DbBackend {
    fn append(&mut self, entry: &LogEntry) -> Result<(), String> {
        let encoded = Value::bytes(entry.to_sexp().canonical());
        match entry {
            LogEntry::Record(r) => {
                let ev = &r.event;
                self.db
                    .table_mut("audit_records")
                    .and_then(|t| {
                        t.insert(vec![
                            Value::Int(r.seq as i64),
                            Value::Int(ev.time.0 as i64),
                            Value::text(ev.surface.as_str()),
                            // Subject-less events store NULL, not "": an
                            // equality predicate must never match them,
                            // exactly as `AuditQuery::matches` never does.
                            match &ev.subject {
                                Some(p) => Value::text(p.describe()),
                                None => Value::Null,
                            },
                            Value::text(ev.object.as_str()),
                            Value::text(ev.action.as_str()),
                            Value::text(ev.decision.name()),
                            Value::Int(ev.revocation_epoch as i64),
                            encoded,
                        ])
                    })
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            LogEntry::Checkpoint(c) => self
                .db
                .table_mut("audit_checkpoints")
                .and_then(|t| t.insert(vec![Value::Int(c.upto_seq as i64), encoded]))
                .map(|_| ())
                .map_err(|e| e.to_string()),
        }
    }

    fn entries(&self) -> Result<Vec<LogEntry>, String> {
        let record_q = SelectQuery::all("audit_records", Predicate::True)
            .order_by("seq", SortOrder::Asc);
        let records =
            Self::decode_entry_rows(self.db.run_select(&record_q).map_err(|e| e.to_string())?)?;
        let ckpt_q = SelectQuery::all("audit_checkpoints", Predicate::True)
            .order_by("upto", SortOrder::Asc);
        let mut checkpoints =
            Self::decode_entry_rows(self.db.run_select(&ckpt_q).map_err(|e| e.to_string())?)?
                .into_iter()
                .peekable();
        // Re-interleave: a checkpoint sits immediately after the record it
        // seals.
        let mut out = Vec::new();
        for entry in records {
            let seq = match &entry {
                LogEntry::Record(r) => r.seq,
                LogEntry::Checkpoint(_) => unreachable!("records table holds records"),
            };
            out.push(entry);
            while matches!(
                checkpoints.peek(),
                Some(LogEntry::Checkpoint(c)) if c.upto_seq == seq
            ) {
                out.push(checkpoints.next().expect("peeked"));
            }
        }
        out.extend(checkpoints);
        Ok(out)
    }

    fn query(&self, q: &AuditQuery) -> Result<Vec<ChainedRecord>, String> {
        // Compile the filter to a relational predicate so the subject
        // index and the ordered, limited select do the work.
        let mut pred = Predicate::True;
        let and = |p: Predicate, q: Predicate| {
            if matches!(p, Predicate::True) {
                q
            } else {
                Predicate::and(p, q)
            }
        };
        if let Some(s) = &q.subject {
            pred = and(pred, Predicate::eq("subject", Value::text(s.as_str())));
        }
        if let Some(o) = &q.object_prefix {
            pred = and(pred, Predicate::prefix("object", o));
        }
        if let Some(s) = &q.surface {
            pred = and(pred, Predicate::eq("surface", Value::text(s.as_str())));
        }
        if let Some(t) = q.from {
            pred = and(
                pred,
                Predicate::not(Predicate::lt("time", Value::Int(t.0 as i64))),
            );
        }
        if let Some(t) = q.until {
            pred = and(
                pred,
                Predicate::not(Predicate::gt("time", Value::Int(t.0 as i64))),
            );
        }
        // Newest-first with the limit applied by the database, then flip
        // back to chain order for the caller.
        let mut select = SelectQuery::all("audit_records", pred)
            .order_by("seq", SortOrder::Desc);
        select.columns = vec!["entry".to_string()];
        if let Some(n) = q.limit {
            select = select.limit(n);
        }
        let rows = self.db.run_select(&select).map_err(|e| e.to_string())?;
        let mut records: Vec<ChainedRecord> = Self::decode_entry_rows(rows)?
            .into_iter()
            .filter_map(|e| match e {
                LogEntry::Record(r) => Some(r),
                LogEntry::Checkpoint(_) => None,
            })
            .collect();
        records.reverse();
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::genesis_hash;
    use snowflake_core::{Decision, DecisionEvent, Principal, Time};

    fn chain(n: u64) -> Vec<LogEntry> {
        let mut prev = genesis_hash();
        (0..n)
            .map(|i| {
                let ev = DecisionEvent::new(
                    Time(i),
                    "rmi",
                    Decision::Grant,
                    &format!("/obj/{i}"),
                    "read",
                    "",
                )
                .with_subject(Principal::message(b"alice"));
                let r = ChainedRecord::chain(i, prev.clone(), ev);
                prev = r.hash.clone();
                LogEntry::Record(r)
            })
            .collect()
    }

    #[test]
    fn memory_ring_bounds_and_counts() {
        let mut b = MemoryBackend::new(4);
        for e in chain(10) {
            b.append(&e).unwrap();
        }
        assert_eq!(b.entries().unwrap().len(), 4);
        assert_eq!(b.evicted(), 6);
        assert!(b.entries.capacity() < 8, "the ring's buffer never doubled");
        let unbounded = MemoryBackend::new(0);
        assert_eq!(unbounded.evicted(), 0);
    }

    #[test]
    fn db_backend_round_trips_and_queries() {
        let mut b = DbBackend::new();
        for e in chain(20) {
            b.append(&e).unwrap();
        }
        assert_eq!(b.entries().unwrap().len(), 20);
        // Subject + limit goes through the indexed ordered select.
        let q = AuditQuery::all()
            .subject(&Principal::message(b"alice").describe())
            .newest(5);
        let out = b.query(&q).unwrap();
        assert_eq!(out.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![15, 16, 17, 18, 19]);
        // Time window composes.
        let q = AuditQuery::all().window(Time(3), Time(5));
        assert_eq!(b.query(&q).unwrap().len(), 3);
        // No match → empty.
        let q = AuditQuery::all().subject("nobody");
        assert!(b.query(&q).unwrap().is_empty());
    }

    /// Subject-less events (sheds, challenge denials) must behave the
    /// same on the indexed backend as on the scan path: no subject
    /// equality ever matches them.
    #[test]
    fn db_backend_subjectless_events_never_match_subject_queries() {
        let mut db = DbBackend::new();
        let mut mem = MemoryBackend::new(0);
        let mut prev = genesis_hash();
        for i in 0..4u64 {
            let mut ev = DecisionEvent::new(Time(i), "http", Decision::Shed, "tcp", "connect", "");
            if i % 2 == 0 {
                ev = ev.with_subject(Principal::message(b"alice"));
            }
            let r = ChainedRecord::chain(i, prev.clone(), ev);
            prev = r.hash.clone();
            db.append(&LogEntry::Record(r.clone())).unwrap();
            mem.append(&LogEntry::Record(r)).unwrap();
        }
        for q in [
            AuditQuery::all().subject(&Principal::message(b"alice").describe()),
            AuditQuery::all().subject(""),
        ] {
            assert_eq!(db.query(&q).unwrap(), mem.query(&q).unwrap(), "{q:?}");
        }
    }

    fn file_base(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sf-audit-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        for k in 1..10u64 {
            let _ = std::fs::remove_file(segment_path(&path, k));
        }
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let path = file_base("file-backend.log");
        let entries = chain(6);
        {
            let mut b = FileBackend::open(&path).unwrap();
            for e in &entries {
                b.append(e).unwrap();
            }
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.entries().unwrap(), entries);
        assert_eq!(b.recovery().replayed, 6);
        assert_eq!(b.recovery().truncated_bytes, 0);
    }

    #[test]
    fn file_backend_rotates_and_entries_span_segments() {
        let path = file_base("rotate.log");
        let entries = chain(10);
        {
            let mut b = FileBackend::with_rotation(&path, 3).unwrap();
            for e in &entries {
                b.append(e).unwrap();
            }
            assert_eq!(b.segment_count(), 4, "3+3+3+1 across four segments");
            assert_eq!(b.entries().unwrap(), entries);
        }
        // Reopen walks the whole chain and verifies every seam.
        let b = FileBackend::with_rotation(&path, 3).unwrap();
        assert_eq!(b.entries().unwrap(), entries);
        assert_eq!(b.recovery().from_snapshot, 9, "sealed segments");
        assert_eq!(b.recovery().replayed, 1, "active segment");
        // The on-disk anchors really are there: segment 2 starts with one
        // sealing segment 1's last record (seq 2).
        let seg2 = read_segment(&segment_path(&path, 2), None).unwrap();
        match seg2.into_iter().next().unwrap() {
            SegmentLine::Anchor(upto, _) => assert_eq!(upto, 2),
            SegmentLine::Entry(_) => panic!("segment 2 must start with an anchor"),
        }
    }

    #[test]
    fn file_backend_truncates_torn_tail_on_reopen() {
        let path = file_base("torn.log");
        {
            let mut b = FileBackend::open(&path).unwrap();
            for e in chain(3) {
                b.append(&e).unwrap();
            }
        }
        // Tear the final line mid-entry (no trailing newline).
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 7]).unwrap();
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.entries().unwrap(), chain(3)[..2].to_vec());
        assert!(b.recovery().truncated_bytes > 0);
        // Truncation is durable: the next open is clean.
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.recovery().truncated_bytes, 0);
    }

    #[test]
    fn file_backend_rejects_damage_before_the_active_tail() {
        let path = file_base("active-hole.log");
        {
            let mut b = FileBackend::open(&path).unwrap();
            for e in chain(3) {
                b.append(&e).unwrap();
            }
        }
        // Damage line 1 of 3 in the *active* segment: two acknowledged
        // lines follow it, so this is no torn tail and the open must fail
        // rather than truncate them away.
        let mut data = std::fs::read(&path).unwrap();
        data[10] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        let err = FileBackend::open(&path).map(|_| ()).unwrap_err();
        assert!(err.contains("damaged record"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), data, "nothing truncated");
    }

    #[test]
    fn file_backend_rejects_tampered_seam_and_sealed_holes() {
        let path = file_base("seam.log");
        {
            let mut b = FileBackend::with_rotation(&path, 2).unwrap();
            for e in chain(5) {
                b.append(&e).unwrap();
            }
            assert!(b.segment_count() >= 2);
        }
        // Replace segment 2's anchor with one naming the wrong record:
        // the seam no longer matches.
        let seg2 = segment_path(&path, 2);
        let good = std::fs::read(&seg2).unwrap();
        let first_len = good.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut tampered = anchor_line(0, &genesis_hash());
        tampered.extend_from_slice(&good[first_len..]);
        std::fs::write(&seg2, &tampered).unwrap();
        let err = FileBackend::with_rotation(&path, 2).map(|_| ()).unwrap_err();
        assert!(err.contains("seam"), "{err}");
        std::fs::write(&seg2, &good).unwrap();

        // A hole in a *sealed* segment is corruption, not a torn tail.
        let sealed = std::fs::read(&path).unwrap();
        let mut holed = sealed.clone();
        holed[10] ^= 0xff;
        std::fs::write(&path, &holed).unwrap();
        let err = FileBackend::with_rotation(&path, 2).map(|_| ()).unwrap_err();
        assert!(err.contains("sealed segment"), "{err}");
    }

    #[test]
    fn file_backend_crash_mid_rotation_reanchors() {
        let path = file_base("reanchor.log");
        {
            let mut b = FileBackend::with_rotation(&path, 2).unwrap();
            for e in chain(2) {
                b.append(&e).unwrap();
            }
        }
        // Crash during the rotation's anchor write: budget admits only a
        // few bytes of it.
        {
            let mut b = FileBackend::with_crash_point(
                &path,
                Some(2),
                snowflake_core::durable::CrashPoint::after_bytes(5),
            )
            .unwrap();
            assert!(b.append(&chain(3)[2]).is_err());
            assert_eq!(b.segment_count(), 2, "segment file exists, anchor torn");
        }
        // Reopen: the torn anchor is truncated and re-issued, and the
        // stream continues across the healed seam.
        let mut b = FileBackend::with_rotation(&path, 2).unwrap();
        let rest: Vec<LogEntry> = chain(5)[2..].to_vec();
        for e in &rest {
            b.append(e).unwrap();
        }
        assert_eq!(b.entries().unwrap(), chain(5));
        let b2 = FileBackend::with_rotation(&path, 2).unwrap();
        assert_eq!(b2.entries().unwrap(), chain(5));
    }

    #[test]
    fn file_backend_snapshot_is_a_stable_byte_range_capture() {
        let path = file_base("snapshot.log");
        let mut b = FileBackend::with_rotation(&path, 2).unwrap();
        let entries = chain(5);
        for e in &entries[..3] {
            b.append(e).unwrap();
        }
        let snap = b.snapshot().unwrap();
        // Keep appending (and rotating) after the capture: the snapshot
        // still loads exactly the stream as of the capture, because
        // rotation never renames and appends only extend.
        for e in &entries[3..] {
            b.append(e).unwrap();
        }
        assert_eq!(snap.load().unwrap(), entries[..3].to_vec());
        assert_eq!(b.entries().unwrap(), entries);
    }
}
