//! Durability contracts and crash-fault injection.
//!
//! Everything the authorization chain decides against — relational tables,
//! revocation knowledge, the tamper-evident audit trail — must survive a
//! process death without ever presenting a *third* state: after a restart
//! a durable store holds either the state before the interrupted write or
//! the state after it, never a torn hybrid.  This module holds the pieces
//! every durable store in the workspace shares:
//!
//! * [`AppendLog`] — the one append-only file writer.  It recovers a log
//!   on open under one rule (see [`scan`]), and each append is a
//!   crash-guarded write followed by an fsync.  The reldb write-ahead log
//!   and every audit segment are built on it; the validator's revocation
//!   store is a reldb database, so it rides the same log.
//! * [`CrashPoint`] — a byte-granular fault-injection hook threaded
//!   through every durable write path.  Tests arm it to kill a write at
//!   an exact byte offset; production code carries it inert at zero cost.
//!   Because the hook sits *in* the write path (not in a test double),
//!   the recovery the tests prove is the recovery production runs.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What one open/replay of a durable store recovered.
///
/// A store reports this once per open; it is how operators (and the
/// crash-injection harness) distinguish a clean start, a clean resume,
/// and a resume that had to discard a torn tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log records replayed from the write-ahead stream.
    pub replayed: u64,
    /// Records loaded from a snapshot/compaction artifact (or, for
    /// segmented logs, entries read from already-sealed segments).
    pub from_snapshot: u64,
    /// Bytes of torn tail discarded: an interrupted final write whose
    /// record never completed.  Always confined to the end of the stream —
    /// damage anywhere else is corruption and fails the open instead
    /// (see [`scan`]).
    pub truncated_bytes: u64,
}

/// How a log's record decoder classifies the bytes at the front of the
/// unread stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A well-formed record spanning this many bytes (at least one).
    Intact(usize),
    /// A record whose extent is known — this many bytes — but whose
    /// contents fail their check (checksum, syntax).
    Damaged(usize),
    /// The stream ends before the record does.
    Incomplete,
}

/// Walks `data` record by record with `decode` and returns the length of
/// its intact prefix.
///
/// The one torn-versus-corrupt rule: an [`Record::Incomplete`] final
/// record, or a [`Record::Damaged`] one that ends exactly at the end of
/// `data`, is a **torn tail** — what an interrupted append leaves — and
/// the intact prefix before it is returned.  A damaged record with more
/// bytes after it is **corruption**: no crash of a sequential, fsynced
/// appender leaves one, and accepting the prefix would silently drop the
/// acknowledged records that follow, so it is an
/// [`io::ErrorKind::InvalidData`] error.
///
/// A damaged *framing* field (a record length, a line terminator) can
/// make the records after it look like one incomplete record; that case
/// is indistinguishable from a tear and truncates.
pub fn scan(data: &[u8], mut decode: impl FnMut(&[u8]) -> Record) -> io::Result<usize> {
    let mut at = 0;
    while at < data.len() {
        match decode(&data[at..]) {
            Record::Intact(n) => {
                assert!(n > 0, "a record decoder must consume bytes");
                at += n;
            }
            Record::Incomplete => break,
            Record::Damaged(n) if at + n >= data.len() => break,
            Record::Damaged(n) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "damaged record at byte {at} followed by {} more bytes",
                        data.len() - at - n
                    ),
                ))
            }
        }
    }
    Ok(at)
}

/// An append-only durable file: the only code that opens one for
/// appending.
///
/// [`AppendLog::open`] reads the whole file (a missing file is an empty
/// log), [`scan`]s it with the caller's record decoder, truncates a torn
/// tail and fsyncs the truncation, and fails on corruption.  Each
/// [`AppendLog::append`] is one [`CrashPoint::write_all`], then
/// [`CrashPoint::check`], then `sync_data`: once it returns `Ok` the
/// record is on the medium.  The record format is the caller's; the log
/// sees bytes.
pub struct AppendLog {
    file: File,
    /// Intact bytes: every acknowledged append, nothing torn.
    len: u64,
    crash: CrashPoint,
}

impl AppendLog {
    /// Opens (creating or recovering) the log at `path`, feeding its
    /// bytes through `decode`.  Returns the log and the number of torn
    /// bytes truncated away.
    pub fn open(
        path: &Path,
        crash: CrashPoint,
        decode: impl FnMut(&[u8]) -> Record,
    ) -> io::Result<(AppendLog, u64)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let clean = scan(&data, decode)?;
        let torn = (data.len() - clean) as u64;
        if torn > 0 {
            file.set_len(clean as u64)?;
            file.sync_data()?;
        }
        let log = AppendLog {
            file,
            len: clean as u64,
            crash,
        };
        Ok((log, torn))
    }

    /// Intact bytes in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Durably appends one encoded record.
    ///
    /// On failure the record is not acknowledged.  Unless the crash point
    /// has struck (the simulated process is dead and writes nothing more),
    /// a partial write is cut back off so a later append cannot land
    /// behind it and turn a torn tail into mid-stream damage.
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let written = self
            .crash
            .write_all(&mut self.file, record)
            .and_then(|()| self.crash.check())
            .and_then(|()| self.file.sync_data());
        if written.is_ok() {
            self.len += record.len() as u64;
        } else if !self.crash.tripped() {
            let _ = self.file.set_len(self.len);
        }
        written
    }

    /// Durably truncates the log to empty: the last step of a compaction
    /// whose snapshot has already committed.
    pub fn clear(&mut self) -> io::Result<()> {
        self.crash.check()?;
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.len = 0;
        Ok(())
    }
}

struct CrashInner {
    /// Bytes the hook will still let through before tripping.
    budget: AtomicU64,
    /// Once tripped, every later write fails too: the "process" is dead
    /// until the store is reopened.
    tripped: AtomicBool,
}

/// A byte-granular crash-fault injector for durable write paths.
///
/// An **inert** crash point (the default, and the only kind production
/// code ever holds) passes writes straight through.  An **armed** one
/// ([`CrashPoint::after_bytes`]) lets exactly `n` more bytes reach the
/// medium, then fails the write — and every subsequent write — exactly as
/// a power cut mid-`write(2)` would: a prefix of the frame is on disk,
/// the rest is gone, and nothing later ever lands.
///
/// Clones share the same budget, so one armed point can be threaded
/// through several cooperating writers.
#[derive(Clone, Default)]
pub struct CrashPoint {
    inner: Option<Arc<CrashInner>>,
}

impl CrashPoint {
    /// The pass-through hook production code carries.
    pub fn inert() -> CrashPoint {
        CrashPoint::default()
    }

    /// Arms a hook that admits exactly `n` more bytes, then kills the
    /// write path.
    pub fn after_bytes(n: u64) -> CrashPoint {
        CrashPoint {
            inner: Some(Arc::new(CrashInner {
                budget: AtomicU64::new(n),
                tripped: AtomicBool::new(false),
            })),
        }
    }

    /// Has the simulated crash happened?
    pub fn tripped(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.tripped.load(Ordering::SeqCst))
    }

    /// The error every write returns once the crash has struck.
    fn crashed() -> io::Error {
        io::Error::new(io::ErrorKind::Other, "crash point tripped")
    }

    /// Writes `buf` through the hook.
    ///
    /// Inert: `write_all`.  Armed: writes as much of `buf` as the
    /// remaining budget allows; if that is less than all of it, the hook
    /// trips and the call fails.  The partial prefix *stays written* —
    /// that is the torn tail recovery must cope with.
    pub fn write_all(&self, w: &mut dyn Write, buf: &[u8]) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return w.write_all(buf);
        };
        if inner.tripped.load(Ordering::SeqCst) {
            return Err(Self::crashed());
        }
        let budget = inner.budget.load(Ordering::SeqCst);
        if budget >= buf.len() as u64 {
            inner
                .budget
                .store(budget - buf.len() as u64, Ordering::SeqCst);
            return w.write_all(buf);
        }
        inner.tripped.store(true, Ordering::SeqCst);
        w.write_all(&buf[..budget as usize])?;
        inner.budget.store(0, Ordering::SeqCst);
        Err(Self::crashed())
    }

    /// Guards a non-write step of a durable path (an fsync, a rename): a
    /// no-op until the crash strikes, an error ever after.
    pub fn check(&self) -> io::Result<()> {
        if self.tripped() {
            Err(Self::crashed())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_passes_everything_through() {
        let cp = CrashPoint::inert();
        let mut out = Vec::new();
        cp.write_all(&mut out, b"hello").unwrap();
        cp.write_all(&mut out, b" world").unwrap();
        cp.check().unwrap();
        assert_eq!(out, b"hello world");
        assert!(!cp.tripped());
    }

    #[test]
    fn armed_writes_exact_prefix_then_kills_everything() {
        let cp = CrashPoint::after_bytes(7);
        let mut out = Vec::new();
        cp.write_all(&mut out, b"abcd").unwrap();
        // 3 bytes of budget remain: the next write lands a 3-byte prefix
        // and fails.
        assert!(cp.write_all(&mut out, b"efgh").is_err());
        assert_eq!(out, b"abcdefg");
        assert!(cp.tripped());
        // The dead process writes nothing more.
        assert!(cp.write_all(&mut out, b"ijkl").is_err());
        assert!(cp.check().is_err());
        assert_eq!(out, b"abcdefg");
    }

    #[test]
    fn zero_budget_crashes_before_the_first_byte() {
        let cp = CrashPoint::after_bytes(0);
        let mut out = Vec::new();
        assert!(cp.write_all(&mut out, b"x").is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn clones_share_one_budget() {
        let cp = CrashPoint::after_bytes(4);
        let other = cp.clone();
        let mut out = Vec::new();
        cp.write_all(&mut out, b"ab").unwrap();
        assert!(other.write_all(&mut out, b"cde").is_err());
        assert_eq!(out, b"abcd");
        assert!(cp.tripped() && other.tripped());
    }

    #[test]
    fn boundary_budget_admits_the_whole_write() {
        let cp = CrashPoint::after_bytes(5);
        let mut out = Vec::new();
        cp.write_all(&mut out, b"exact").unwrap();
        assert!(!cp.tripped());
        // …and the very next byte dies.
        assert!(cp.write_all(&mut out, b"!").is_err());
        assert_eq!(out, b"exact");
    }
}
