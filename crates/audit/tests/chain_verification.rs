//! The tamper classes `verify_chain` must detect — truncation, record
//! reordering, in-place bit-flips, and stripped signatures — plus the
//! prefix property: every prefix of a valid entry stream verifies (the
//! chain rules hold at every point; only a trusted head decides
//! truncation).

use proptest::prelude::*;
use snowflake_audit::{
    strip_checkpoints, verify_chain, AuditLog, ChainError, Decision, DecisionEvent, LogEntry,
    MemoryBackend,
};
use snowflake_bigint::Ubig;
use snowflake_core::{Principal, Time};
use snowflake_crypto::{DetRng, Group, HashVal, KeyPair};
use std::sync::Arc;

const INTERVAL: u64 = 4;

fn build_log(records: u64) -> (Arc<AuditLog>, Vec<LogEntry>) {
    let mut kr = DetRng::new(b"chain-test-key");
    let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
    let mut sr = DetRng::new(b"chain-test-sign");
    let log = AuditLog::with_rng(
        key,
        Box::new(MemoryBackend::new(0)),
        INTERVAL,
        Box::new(move |b| sr.fill(b)),
    )
    .expect("fresh backend");
    for i in 0..records {
        let event = DecisionEvent::new(
            Time(i),
            if i % 3 == 0 { "http" } else { "rmi" },
            if i % 5 == 0 { Decision::Deny } else { Decision::Grant },
            &format!("/resource/{i}"),
            "GET",
            "test",
        )
        .with_subject(Principal::message(format!("client-{}", i % 4).as_bytes()))
        .with_certs(vec![HashVal::of(format!("cert-{i}").as_bytes())])
        .with_epoch(i / 7);
        log.append(event).1.unwrap();
    }
    let entries = log.entries().unwrap();
    (log, entries)
}

#[test]
fn intact_log_verifies_with_and_without_head() {
    let (log, entries) = build_log(19);
    let head = log.head().unwrap();
    let summary = verify_chain(&entries, log.public_key(), INTERVAL, Some(&head)).unwrap();
    assert_eq!(summary.records, 19);
    assert_eq!(summary.checkpoints, 4); // sealed at 3, 7, 11, 15
    let summary = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap();
    assert_eq!(summary.head, Some(head));
}

#[test]
fn truncation_detected_against_trusted_head() {
    let (log, entries) = build_log(19);
    let head = log.head().unwrap();
    // Drop the tail: the chain itself stays internally consistent…
    let truncated = &entries[..entries.len() - 3];
    verify_chain(truncated, log.public_key(), INTERVAL, None).unwrap();
    // …but not against the trusted head.
    let err = verify_chain(truncated, log.public_key(), INTERVAL, Some(&head)).unwrap_err();
    assert!(matches!(err, ChainError::Truncated { expected_seq: 18, .. }), "{err}");
    // An emptied log is the degenerate truncation.
    let err = verify_chain(&[], log.public_key(), INTERVAL, Some(&head)).unwrap_err();
    assert!(matches!(
        err,
        ChainError::Truncated {
            found_seq: None,
            ..
        }
    ));
}

#[test]
fn record_reorder_detected() {
    let (log, mut entries) = build_log(10);
    // Swap two records (positions 1 and 2 are both records: no checkpoint
    // lands between seq 1 and seq 2 with interval 4).
    entries.swap(1, 2);
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::BadSeq { expected: 1, found: 2 }), "{err}");

    // A deleted record is the same class: the stream skips a seq.
    let (log, mut entries) = build_log(10);
    entries.remove(1);
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::BadSeq { expected: 1, found: 2 }), "{err}");
}

#[test]
fn bit_flip_detected() {
    // Tamper with a record's *content* (detail string): its stored hash
    // no longer matches.
    let (log, mut entries) = build_log(10);
    if let LogEntry::Record(r) = &mut entries[5] {
        r.event.detail = "rewritten by attacker".into();
    } else {
        panic!("entry 5 is a record at interval 4 (checkpoint sits after seq 3)");
    }
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::BadHash { .. }), "{err}");

    // Tamper with the hash *and* contents consistently: the next link
    // breaks instead — rewriting history requires rewriting every
    // successor, and then the checkpoint signature fails.
    let (log, mut entries) = build_log(10);
    if let LogEntry::Record(r) = &mut entries[1] {
        r.event.detail = "rewritten".into();
        r.hash = r.recompute_hash();
    }
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::BrokenLink { seq: 2 }), "{err}");

    // Flip a bit in a *subject* — the speaks-for provenance is covered too.
    let (log, mut entries) = build_log(10);
    if let LogEntry::Record(r) = &mut entries[6] {
        r.event.subject = Some(Principal::message(b"someone-else"));
    }
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::BadHash { .. }), "{err}");
}

#[test]
fn missing_and_forged_signatures_detected() {
    // Strip every checkpoint: the first interval boundary notices.
    let (log, entries) = build_log(10);
    let stripped = strip_checkpoints(&entries);
    let err = verify_chain(&stripped, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::MissingCheckpoint { upto: 3 }), "{err}");

    // Remove just one mid-stream checkpoint (after seq 7).
    let (log, mut entries) = build_log(12);
    let idx = entries
        .iter()
        .position(|e| matches!(e, LogEntry::Checkpoint(c) if c.upto_seq == 7))
        .unwrap();
    entries.remove(idx);
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::MissingCheckpoint { upto: 7 }), "{err}");

    // A checkpoint re-signed by a different key is a forgery, not a seal.
    let (log, mut entries) = build_log(10);
    let mut ar = DetRng::new(b"attacker-key");
    let attacker = KeyPair::generate(Group::test512(), &mut |b| ar.fill(b));
    let idx = entries
        .iter()
        .position(|e| matches!(e, LogEntry::Checkpoint(_)))
        .unwrap();
    if let LogEntry::Checkpoint(c) = &entries[idx] {
        let mut sr = DetRng::new(b"attacker-sign");
        let forged = snowflake_audit::Checkpoint::issue(
            &attacker,
            c.upto_seq,
            c.head.clone(),
            &mut |b| sr.fill(b),
        );
        entries[idx] = LogEntry::Checkpoint(forged);
    }
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::BadSignature { upto: 3, .. }), "{err}");

    // A checkpoint claiming a head that is not the chain's is rejected
    // even with a valid signature over its own claim.
    let (log, mut entries) = build_log(10);
    let idx = entries
        .iter()
        .position(|e| matches!(e, LogEntry::Checkpoint(_)))
        .unwrap();
    if let LogEntry::Checkpoint(c) = &mut entries[idx] {
        c.head = HashVal::of(b"not-the-head");
    }
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    assert!(matches!(err, ChainError::CheckpointMismatch { upto: 3 }), "{err}");
}

#[test]
fn bit_flipped_checkpoint_signatures_report_the_first_in_stream_order() {
    // Signed by the right key, so the identity check passes and only
    // signature verification can catch the flips at seq 3 and 11.
    let (log, mut entries) = build_log(12);
    for entry in &mut entries {
        if let LogEntry::Checkpoint(c) = entry {
            if c.upto_seq == 3 || c.upto_seq == 11 {
                let mut s = c.signature.s.to_bytes_be();
                *s.last_mut().unwrap() ^= 1;
                c.signature.s = Ubig::from_bytes_be(&s);
            }
        }
    }
    let err = verify_chain(&entries, log.public_key(), INTERVAL, None).unwrap_err();
    match err {
        ChainError::BadSignature { upto: 3, reason } => {
            assert_eq!(reason, "checkpoint signature verification failed")
        }
        other => panic!("expected BadSignature at 3, got {other}"),
    }
}

proptest! {
    /// Replaying any prefix of a valid entry stream verifies: an auditor
    /// who stopped reading early holds a verifiable (if shorter) history.
    #[test]
    fn any_prefix_of_a_valid_log_verifies(records in 0u64..40, cut in 0usize..60) {
        let (log, entries) = build_log(records);
        let cut = cut.min(entries.len());
        let prefix = &entries[..cut];
        let summary = verify_chain(prefix, log.public_key(), INTERVAL, None).unwrap();
        prop_assert!(summary.records <= records);
        // And the full stream still verifies against the live head.
        let head = log.head();
        let summary = verify_chain(&entries, log.public_key(), INTERVAL, head.as_ref()).unwrap();
        prop_assert_eq!(summary.records, records);
    }
}
