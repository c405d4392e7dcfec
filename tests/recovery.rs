//! Crash-recovery integration: the whole authorization stack dies and
//! restarts from disk.
//!
//! Three layers under test, all built on the same [`CrashPoint`] hook:
//!
//! * the **end-to-end scenario** — a MAC-authenticated web service whose
//!   decisions stream into a rotated file-backed audit log, a validator
//!   whose authority state is durable, and a durable mailstore; the
//!   process state is dropped wholesale and everything is reopened from
//!   disk.  Revocation must hold fail-closed, the audit chain must verify
//!   against the pre-crash head (across rotation seams), and the mail
//!   must still be there.
//! * the **byte-boundary sweep** over the audit file backend — a crash at
//!   every byte of an appended record leaves the reopened stream holding
//!   the pre-append or post-append entries, never a torn third state.
//! * the **rotation-seam proptest** — for arbitrary record counts and
//!   rotation bounds, a live log spanning many segments verifies from
//!   genesis, and so does its reopened twin.

use proptest::prelude::*;
use snowflake_apps::{EmailDb, ProtectedWebService, Vfs};
use snowflake_audit::{
    genesis_hash, verify_chain, AuditLog, AuditSink, ChainedRecord, FileBackend, LogEntry,
};
use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::durable::CrashPoint;
use snowflake_core::{Delegation, HashAlg, Principal, Proof, Tag, Time, Validity};
use snowflake_crypto::{DetRng, Group, HashVal, KeyPair};
use snowflake_http::mac::ClientMacSession;
use snowflake_http::{HttpRequest, HttpServer, MacSessionStore};
use snowflake_revocation::{
    ValidatorService, ValidatorStore, DEFAULT_CRL_WINDOW, DEFAULT_REVALIDATION_WINDOW,
};
use snowflake_rmi::{Invocation, RemoteObject};
use snowflake_sexpr::Sexp;
use std::path::PathBuf;
use std::sync::Arc;

fn fixed_clock() -> Time {
    Time(1_000_000)
}

fn kp(seed: &str) -> KeyPair {
    let mut rng = DetRng::new(seed.as_bytes());
    KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
}

fn det(seed: &str) -> Box<dyn FnMut(&mut [u8]) + Send> {
    let mut r = DetRng::new(seed.as_bytes());
    Box::new(move |b: &mut [u8]| r.fill(b))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sf-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Establishes a MAC session against a mounted web service and returns a
/// ready-to-replay authenticated request.
fn mac_request(server: &Arc<HttpServer>, servlet_owner: &Principal) -> HttpRequest {
    let mut crng = DetRng::new(b"recovery-client");
    let (body, dh) = ClientMacSession::request_body(&mut |b| crng.fill(b));
    let mut est = HttpRequest::post(snowflake_http::MAC_SESSION_PATH, body);
    let stmt = Delegation {
        subject: snowflake_http::request_principal(&est, HashAlg::Sha256),
        issuer: servlet_owner.clone(),
        tag: Tag::Star,
        validity: Validity::until(Time(1_003_000)),
        delegable: false,
    };
    // The servlet that mounts us assumes this statement (see caller).
    snowflake_http::auth::attach_proof(
        &mut est,
        &Proof::Assumption {
            stmt: stmt.clone(),
            authority: "recovery-test".into(),
        },
    );
    let resp = server.respond(&est);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let session = ClientMacSession::from_grant(&resp.body, &dh, Validity::always()).unwrap();
    let mut request = HttpRequest::get("/docs/a");
    let hash = snowflake_http::request_hash(&request, HashAlg::Sha256);
    request.set_header(snowflake_http::auth::MAC_ID_HEADER, &session.id_header());
    request.set_header(snowflake_http::auth::MAC_HEADER, &session.authenticate(&hash));
    request
}

/// The headline scenario: serve authenticated traffic, revoke, audit —
/// then lose the process and restart every durable piece from disk.
#[test]
fn full_stack_restart_recovers_revocation_audit_and_mail() {
    let dir = fresh_dir("e2e");
    let audit_path = dir.join("audit.log");
    let store_path = dir.join("authority.log");
    let mail_base = dir.join("mail");
    let log_key = kp("e2e-log");
    let _validator_key = kp("e2e-validator");
    let dead_cert = HashVal::of(b"compromised-cert");
    let owner = Principal::message(b"owner");

    let validator_svc = |store: ValidatorStore| {
        ValidatorService::with_store(
            kp("e2e-validator"),
            fixed_clock,
            det("e2e-validator-rng"),
            DEFAULT_CRL_WINDOW,
            DEFAULT_REVALIDATION_WINDOW,
            store,
        )
    };

    // ---- Before the crash -------------------------------------------
    let (pre_head, pre_serial, mail_id) = {
        // Audit log over a rotating file backend (tiny segments so the
        // scenario itself crosses rotation seams), fed by the sink.
        let backend = FileBackend::with_rotation(&audit_path, 4).unwrap();
        let log =
            AuditLog::with_rng(log_key.clone(), Box::new(backend), 4, det("e2e-sign")).unwrap();
        let sink = AuditSink::with_capacity(log, 1024);

        // MAC-authenticated web service wired into the sink.
        let server = HttpServer::new();
        let vfs = Arc::new(Vfs::new());
        vfs.write("/docs/a", b"hello".to_vec());
        let servlet = ProtectedWebService::new(owner.clone(), "docs", vfs).mount(
            &server,
            "/docs",
            Arc::new(MacSessionStore::new()),
            fixed_clock,
            det("e2e-mount"),
        );
        servlet.set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);
        servlet.surface().base_ctx().assume(&Delegation {
            subject: snowflake_http::request_principal(
                &HttpRequest::post(
                    snowflake_http::MAC_SESSION_PATH,
                    ClientMacSession::request_body(&mut {
                        let mut r = DetRng::new(b"recovery-client");
                        move |b: &mut [u8]| r.fill(b)
                    })
                    .0,
                ),
                HashAlg::Sha256,
            ),
            issuer: owner.clone(),
            tag: Tag::Star,
            validity: Validity::until(Time(1_003_000)),
            delegable: false,
        });
        let request = mac_request(&server, &owner);
        for _ in 0..10 {
            assert_eq!(server.respond(&request).status, 200);
        }

        // Durable validator: revoke the compromised certificate.
        let validator = validator_svc(ValidatorStore::open(&store_path).unwrap());
        let delta = validator.revoke(dead_cert.clone());
        assert!(delta.crl.revokes(&dead_cert));
        let pre_serial = validator.current_crl().serial;

        // Durable mailstore.
        let db = EmailDb::open_durable(owner.clone(), fixed_clock, &mail_base).unwrap();
        db.set_audit_emitter(Arc::clone(&sink) as Arc<dyn AuditEmitter>);
        let mail_id = db
            .invoke(
                &Invocation {
                    object: "email-db".into(),
                    method: "insert".into(),
                    args: vec![
                        Sexp::from("alice"),
                        Sexp::from("bob"),
                        Sexp::from("subject"),
                        Sexp::from("body"),
                        Sexp::from("inbox"),
                    ],
                    quoting: None,
                },
                &snowflake_rmi::CallerInfo {
                    speaker: Principal::message(b"alice"),
                    channel: snowflake_core::ChannelId {
                        kind: "test".into(),
                        id: HashVal::of(b"ch"),
                    },
                },
            )
            .unwrap()
            .as_u64()
            .unwrap();

        sink.flush();
        assert_eq!(sink.stats().dropped, 0, "nothing may be lost to shedding");
        let head = sink.log().head().expect("records were appended");
        assert!(
            sink.log().records_appended() > 8,
            "the scenario must cross a rotation seam"
        );
        (head, pre_serial, mail_id)
        // Everything is dropped here: the "crash".
    };

    // ---- After the restart ------------------------------------------
    // Revocation: the reopened store still damns the certificate, and the
    // first post-restart CRL outranks everything signed pre-crash.
    let store = ValidatorStore::open(&store_path).unwrap();
    assert!(store.revoked().contains(&dead_cert));
    assert_eq!(store.serial_high_water(), pre_serial);
    let validator = validator_svc(store);
    assert!(validator.is_revoked(&dead_cert), "revocation holds fail-closed");
    assert!(validator.revalidate(&dead_cert).is_err());
    let crl = validator.current_crl();
    assert!(crl.serial > pre_serial, "restart can never re-sign the past");
    assert!(crl.revokes(&dead_cert));

    // Audit: the reopened multi-segment stream verifies from genesis
    // against the pre-crash head — truncation or seam damage would fail.
    let backend = FileBackend::with_rotation(&audit_path, 4).unwrap();
    assert!(backend.segment_count() > 1, "rotation really happened");
    assert_eq!(backend.recovery().truncated_bytes, 0, "clean shutdown");
    let log =
        AuditLog::with_rng(log_key.clone(), Box::new(backend), 4, det("e2e-sign-2")).unwrap();
    let entries = log.entries().unwrap();
    let summary = verify_chain(&entries, &log_key.public, 4, Some(&pre_head)).unwrap();
    assert_eq!(summary.head, Some(pre_head));
    // The resumed log keeps appending on the same chain.
    let (_, appended) = log.append(DecisionEvent::new(
        fixed_clock(),
        "recovery-test",
        Decision::Grant,
        "restart",
        "append",
        "",
    ));
    appended.unwrap();
    log.verify().unwrap();

    // Mail: still there, under the same id.
    let db = EmailDb::open_durable(owner, fixed_clock, &mail_base).unwrap();
    let rows = db
        .invoke(
            &Invocation {
                object: "email-db".into(),
                method: "select".into(),
                args: vec![Sexp::from("alice")],
                quoting: None,
            },
            &snowflake_rmi::CallerInfo {
                speaker: Principal::message(b"alice"),
                channel: snowflake_core::ChannelId {
                    kind: "test".into(),
                    id: HashVal::of(b"ch"),
                },
            },
        )
        .unwrap();
    let rows = snowflake_reldb::rows_from_sexp(&rows).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], snowflake_reldb::Value::Int(mail_id as i64));
}

fn record_chain(n: u64) -> Vec<LogEntry> {
    let mut prev = genesis_hash();
    (0..n)
        .map(|i| {
            let ev = DecisionEvent::new(Time(i), "rmi", Decision::Grant, "/o", "read", "")
                .with_subject(Principal::message(b"alice"));
            let r = ChainedRecord::chain(i, prev.clone(), ev);
            prev = r.hash.clone();
            LogEntry::Record(r)
        })
        .collect()
}

/// Kills an audit append at every byte boundary of its line and asserts
/// the reopened stream holds exactly the pre- or post-append entries.
#[test]
fn audit_append_crash_at_every_byte_boundary_recovers_pre_or_post() {
    let entries = record_chain(3);
    let line_len = {
        let LogEntry::Record(_) = &entries[2] else { unreachable!() };
        entries[2].to_sexp().transport().len() + 1 // +1 for the newline
    };
    assert!(line_len > 20, "line should span many boundaries");

    for cut in 0..=line_len {
        let dir = fresh_dir(&format!("audit-cut-{cut}"));
        let path = dir.join("audit.log");
        {
            let mut b = FileBackend::open(&path).unwrap();
            b.append(&entries[0]).unwrap();
            b.append(&entries[1]).unwrap();
        }
        let crash = CrashPoint::after_bytes(cut as u64);
        {
            let mut b = FileBackend::with_crash_point(&path, None, crash.clone()).unwrap();
            let r = b.append(&entries[2]);
            assert_eq!(r.is_err(), cut < line_len, "cut {cut}");
        }
        let b = FileBackend::open(&path).unwrap();
        let expect = if cut < line_len { 2 } else { 3 };
        assert_eq!(
            b.entries().unwrap(),
            entries[..expect].to_vec(),
            "cut {cut}: reopened stream must be exactly pre- or post-append"
        );
        if cut > 0 && cut < line_len {
            assert_eq!(b.recovery().truncated_bytes, cut as u64, "cut {cut}");
        }
        // Whatever survived still chain-verifies.
        verify_chain(
            &b.entries().unwrap(),
            &kp("unused").public,
            u64::MAX,
            None,
        )
        .unwrap();
    }
}

use snowflake_audit::AuditBackend;

proptest! {
    /// For arbitrary record counts and rotation bounds, a log spanning
    /// many segments verifies from genesis live, after a reopen, and
    /// after a reopen-and-extend — the rotation seams are invisible to
    /// the chain.
    #[test]
    fn chain_verifies_across_arbitrary_rotation_seams(
        n in 1u64..28,
        per_segment in 1u64..6,
        interval in 2u64..9,
        extra in 0u64..6,
    ) {
        let dir = fresh_dir("rotation-prop");
        let path = dir.join("audit.log");
        let key = kp("prop-rotation");
        let ev = |i: u64| {
            DecisionEvent::new(Time(i), "prop", Decision::Grant, "/o", "read", "")
        };
        let total_entries = {
            let backend = FileBackend::with_rotation(&path, per_segment).unwrap();
            let log = AuditLog::with_rng(
                key.clone(), Box::new(backend), interval, det("prop-sign"),
            ).unwrap();
            for i in 0..n {
                log.append(ev(i)).1.unwrap();
            }
            log.verify().unwrap();
            log.entries().unwrap().len() as u64
        };
        // Reopen, extend across yet another seam, verify from genesis.
        // Entries include checkpoints, so bound the segment count by the
        // real entry total, not the record count.
        let backend = FileBackend::with_rotation(&path, per_segment).unwrap();
        prop_assert!(
            (backend.segment_count() as u64) <= total_entries / per_segment + 2,
            "{} segments for {} entries at {} per segment",
            backend.segment_count(), total_entries, per_segment
        );
        if total_entries > per_segment {
            prop_assert!(backend.segment_count() > 1, "rotation must have happened");
        }
        let log = AuditLog::with_rng(
            key.clone(), Box::new(backend), interval, det("prop-sign-2"),
        ).unwrap();
        for i in 0..extra {
            log.append(ev(n + i)).1.unwrap();
        }
        let summary = log.verify().unwrap();
        prop_assert_eq!(summary.records, n + extra);
        let entries = log.entries().unwrap();
        verify_chain(&entries, &key.public, interval, log.head().as_ref())
            .map_err(|e| TestCaseError::Fail(format!("{e}")))?;
    }
}
