//! Offline verification of a captured entry stream.

use crate::record::{genesis_hash, LogEntry};
use snowflake_crypto::{HashVal, PublicKey};
use std::fmt;

/// Why a captured log failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A record's sequence number is not the expected next one —
    /// reordering, deletion, or duplication inside the stream.
    BadSeq {
        /// The sequence number expected at this position.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// A record's `prev` does not match the preceding record's hash.
    BrokenLink {
        /// The offending record's sequence number.
        seq: u64,
    },
    /// A record's stored hash does not match its contents (an in-place
    /// edit: bit-flip, reworded detail, swapped subject, …).
    BadHash {
        /// The offending record's sequence number.
        seq: u64,
    },
    /// A checkpoint names a head that is not the record it follows.
    CheckpointMismatch {
        /// The checkpoint's claimed `upto_seq`.
        upto: u64,
    },
    /// A checkpoint's signature is invalid or from the wrong key.
    BadSignature {
        /// The checkpoint's `upto_seq`.
        upto: u64,
        /// What the signature check reported.
        reason: String,
    },
    /// An interval boundary passed with no checkpoint for it — the signed
    /// seal that should cover those records is missing.
    MissingCheckpoint {
        /// The sequence number the absent checkpoint should cover.
        upto: u64,
    },
    /// The stream's last record does not match the trusted head — the log
    /// was truncated (or its tail rewritten).
    Truncated {
        /// The trusted head's sequence number.
        expected_seq: u64,
        /// The last sequence number actually present (`None`: empty log).
        found_seq: Option<u64>,
    },
    /// The entry stream could not be read at all (backend I/O failure) —
    /// not a tamper verdict; nothing was verified.
    Backend(String),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BadSeq { expected, found } => {
                write!(f, "record out of order: expected seq {expected}, found {found}")
            }
            ChainError::BrokenLink { seq } => {
                write!(f, "record {seq} does not chain to its predecessor")
            }
            ChainError::BadHash { seq } => write!(f, "record {seq} was altered in place"),
            ChainError::CheckpointMismatch { upto } => {
                write!(f, "checkpoint upto {upto} does not match the chain head")
            }
            ChainError::BadSignature { upto, reason } => {
                write!(f, "checkpoint upto {upto}: {reason}")
            }
            ChainError::MissingCheckpoint { upto } => {
                write!(f, "missing checkpoint covering records through {upto}")
            }
            ChainError::Truncated {
                expected_seq,
                found_seq,
            } => match found_seq {
                Some(found) => write!(
                    f,
                    "log truncated: trusted head is seq {expected_seq}, stream ends at {found}"
                ),
                None => write!(f, "log truncated: trusted head is seq {expected_seq}, stream is empty"),
            },
            ChainError::Backend(reason) => write!(f, "entry stream unreadable: {reason}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// What a successful verification established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// Decision records verified.
    pub records: u64,
    /// Signed checkpoints verified.
    pub checkpoints: u64,
    /// The verified chain head (`None`: the stream was empty).
    pub head: Option<(u64, HashVal)>,
}

/// Verifies a captured entry stream end to end.
///
/// Checks, in one pass:
///
/// * sequence numbers are contiguous from 0 (**reordering / deletion /
///   duplication**);
/// * every record's `prev` equals its predecessor's hash and its stored
///   hash recomputes from its contents (**in-place tampering**);
/// * every checkpoint seals the record it follows and carries a valid
///   signature by `signer` (**re-sealing requires the log key**);
/// * a checkpoint is present for every full `interval` of records
///   (**missing-signature**: stripping checkpoints to hide edits is
///   itself detected);
/// * when a trusted head is supplied (the live log's
///   [`crate::AuditLog::head`], or the latest checkpoint held elsewhere),
///   the stream ends exactly there (**truncation**).
///
/// A *prefix* of a valid stream — what a reader that stopped early holds —
/// verifies with `expected_head: None`: the chain rules hold at every
/// point, truncation is only decidable against outside knowledge.
pub fn verify_chain(
    entries: &[LogEntry],
    signer: &PublicKey,
    interval: u64,
    expected_head: Option<&(u64, HashVal)>,
) -> Result<ChainSummary, ChainError> {
    verify_entries(entries, signer, interval, expected_head, false)
}

/// [`verify_chain`] for a *suffix* of a log — what a bounded ring backend
/// retains after eviction, or a tail capture.
///
/// The first record anchors the chain: its sequence number and `prev`
/// are taken as given (they cannot be checked without the evicted
/// predecessor), and everything after it is held to the full rules.
/// This proves internal consistency of the retained window; provenance
/// back to genesis requires an unevicted copy (file or database
/// backend).
pub fn verify_suffix(
    entries: &[LogEntry],
    signer: &PublicKey,
    interval: u64,
    expected_head: Option<&(u64, HashVal)>,
) -> Result<ChainSummary, ChainError> {
    verify_entries(entries, signer, interval, expected_head, true)
}

fn verify_entries(
    entries: &[LogEntry],
    signer: &PublicKey,
    interval: u64,
    expected_head: Option<&(u64, HashVal)>,
    allow_suffix: bool,
) -> Result<ChainSummary, ChainError> {
    let interval = interval.max(1);
    let mut first_seq: u64 = 0;
    let mut next_seq: u64 = 0;
    let mut prev = genesis_hash();
    let mut last: Option<(u64, HashVal)> = None;
    let mut last_checkpointed: Option<u64> = None;
    let mut checkpoints: u64 = 0;
    for entry in entries {
        match entry {
            LogEntry::Record(r) => {
                // In suffix mode the first record anchors the chain
                // wherever the retained window starts.
                if allow_suffix && last.is_none() {
                    first_seq = r.seq;
                    next_seq = r.seq;
                    prev = r.prev.clone();
                }
                if r.seq != next_seq {
                    return Err(ChainError::BadSeq {
                        expected: next_seq,
                        found: r.seq,
                    });
                }
                // A full interval must be sealed before the next record
                // is admitted (the writer emits the checkpoint in the
                // same append), so a stripped seal is noticed exactly
                // where it should have been.  Boundaries at or before
                // the anchor are unjudgeable: their seals preceded the
                // retained window.
                if r.seq > first_seq
                    && r.seq % interval == 0
                    && last_checkpointed != Some(r.seq - 1)
                {
                    return Err(ChainError::MissingCheckpoint { upto: r.seq - 1 });
                }
                if r.prev != prev {
                    return Err(ChainError::BrokenLink { seq: r.seq });
                }
                if r.recompute_hash() != r.hash {
                    return Err(ChainError::BadHash { seq: r.seq });
                }
                prev = r.hash.clone();
                last = Some((r.seq, r.hash.clone()));
                next_seq += 1;
            }
            LogEntry::Checkpoint(c) => {
                // A suffix window may open on a checkpoint whose record
                // was evicted; it cannot be anchored, so it is skipped
                // (not counted) rather than misread as a mismatch.
                if allow_suffix && last.is_none() {
                    continue;
                }
                let matches_head = last
                    .as_ref()
                    .is_some_and(|(seq, hash)| c.upto_seq == *seq && &c.head == hash);
                if !matches_head {
                    return Err(ChainError::CheckpointMismatch { upto: c.upto_seq });
                }
                c.check(signer)
                    .map_err(|reason| ChainError::BadSignature {
                        upto: c.upto_seq,
                        reason,
                    })?;
                last_checkpointed = Some(c.upto_seq);
                checkpoints += 1;
            }
        }
    }
    if let Some((expected_seq, expected_hash)) = expected_head {
        let matches = last
            .as_ref()
            .is_some_and(|(seq, hash)| seq == expected_seq && hash == expected_hash);
        if !matches {
            return Err(ChainError::Truncated {
                expected_seq: *expected_seq,
                found_seq: last.as_ref().map(|(seq, _)| *seq),
            });
        }
    }
    Ok(ChainSummary {
        records: next_seq - first_seq,
        checkpoints,
        head: last,
    })
}
