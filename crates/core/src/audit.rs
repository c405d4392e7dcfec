//! Audit record and emitter interface for authorization decisions.
//!
//! The paper's end-to-end argument is that the resource server sees the
//! *entire* delegation chain behind every request — which is precisely what
//! makes decisions reviewable after the fact.  This module defines the
//! record of one such decision ([`DecisionEvent`]) and the narrow interface
//! a decision point uses to report it ([`AuditEmitter`]).
//!
//! Only the *record and wire forms* live here, so every server crate (HTTP,
//! RMI, the applications, the revocation subsystem) can emit events without
//! depending on the audit log implementation; the chained, signed,
//! queryable log itself lives in `snowflake-audit`.

use crate::principal::Principal;
use crate::statement::Time;
use snowflake_crypto::HashVal;
use snowflake_sexpr::{ParseError, Sexp};
use std::fmt;

/// The verdict of one authorization decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The request was authorized and served.
    Grant,
    /// The request was refused (bad proof, missing proof, issuer mismatch,
    /// failed app-level check, or a challenge sent instead of service).
    Deny,
    /// The request was shed before any authorization ran (bounded runtime
    /// at capacity → 503 / `RmiFault::Busy`).  The request was *not*
    /// processed.
    Shed,
    /// A revocation event: a certificate was declared dead and warm state
    /// depending on it was invalidated.
    Revoke,
}

impl Decision {
    /// The wire name of the decision.
    pub fn name(self) -> &'static str {
        match self {
            Decision::Grant => "grant",
            Decision::Deny => "deny",
            Decision::Shed => "shed",
            Decision::Revoke => "revoke",
        }
    }

    /// Parses the form produced by [`Decision::name`].
    pub fn from_name(name: &str) -> Option<Decision> {
        match name {
            "grant" => Some(Decision::Grant),
            "deny" => Some(Decision::Deny),
            "shed" => Some(Decision::Shed),
            "revoke" => Some(Decision::Revoke),
            _ => None,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One authorization decision, with its full speaks-for provenance.
///
/// Every grant, deny, shed, and revocation across the serving surfaces
/// produces one of these.  `cert_hashes` is the proof's revocation
/// provenance ([`crate::Proof::cert_hashes`]): the exact set of signed
/// certificates the decision rested on, so any historical grant can be
/// re-examined — *which* delegations justified it, and whether any was
/// since revoked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionEvent {
    /// When the decision was made.
    pub time: Time,
    /// Which decision point: `http`, `http-mac`, `rmi`, `gateway`,
    /// `emaildb`, `web`, `revocation`, …
    pub surface: String,
    /// The principal the request was attributed to, when one was
    /// established (sheds and challenge denials have none).
    pub subject: Option<Principal>,
    /// The object the decision was about: a resource path, an RMI
    /// `object`, a certificate hash for revocations.
    pub object: String,
    /// The action requested: an HTTP method, an RMI method, a database op.
    pub action: String,
    /// The verdict.
    pub decision: Decision,
    /// Human-readable detail (the deny reason, the cache tier that
    /// answered, the shed cause).
    pub detail: String,
    /// Hashes of the signed certificates the decision depended on — the
    /// proof's speaks-for provenance (empty for sheds and proof-less
    /// denials).
    pub cert_hashes: Vec<HashVal>,
    /// The revocation epoch the decider held (the highest CRL serial its
    /// revocation source holds; 0 when it held none), recording *against
    /// which revocation state* the verdict was reached.
    pub revocation_epoch: u64,
}

impl DecisionEvent {
    /// A new event with empty provenance; use the builder methods to
    /// attach subject, certificates, and the revocation epoch.
    pub fn new(
        time: Time,
        surface: &str,
        decision: Decision,
        object: &str,
        action: &str,
        detail: &str,
    ) -> DecisionEvent {
        DecisionEvent {
            time,
            surface: surface.to_string(),
            subject: None,
            object: object.to_string(),
            action: action.to_string(),
            decision,
            detail: detail.to_string(),
            cert_hashes: Vec::new(),
            revocation_epoch: 0,
        }
    }

    /// Attaches the authenticated subject.
    pub fn with_subject(mut self, subject: Principal) -> DecisionEvent {
        self.subject = Some(subject);
        self
    }

    /// Attaches the proof's certificate provenance.
    pub fn with_certs(mut self, certs: Vec<HashVal>) -> DecisionEvent {
        self.cert_hashes = certs;
        self
    }

    /// Attaches the decider's revocation epoch.
    pub fn with_epoch(mut self, epoch: u64) -> DecisionEvent {
        self.revocation_epoch = epoch;
        self
    }

    /// Serializes to
    /// `(decision (time n) (surface s) (object o) (action a) (verdict v)
    ///   (detail d) (epoch n) (subject p)? (certs h…)?)`.
    pub fn to_sexp(&self) -> Sexp {
        let mut body = vec![
            Sexp::tagged("time", vec![Sexp::int(self.time.0)]),
            Sexp::tagged("surface", vec![Sexp::from(self.surface.as_str())]),
            Sexp::tagged("object", vec![Sexp::from(self.object.as_str())]),
            Sexp::tagged("action", vec![Sexp::from(self.action.as_str())]),
            Sexp::tagged("verdict", vec![Sexp::from(self.decision.name())]),
            Sexp::tagged("detail", vec![Sexp::from(self.detail.as_str())]),
            Sexp::tagged("epoch", vec![Sexp::int(self.revocation_epoch)]),
        ];
        if let Some(subject) = &self.subject {
            body.push(Sexp::tagged("subject", vec![subject.to_sexp()]));
        }
        if !self.cert_hashes.is_empty() {
            body.push(Sexp::tagged(
                "certs",
                self.cert_hashes.iter().map(HashVal::to_sexp).collect(),
            ));
        }
        Sexp::tagged("decision", body)
    }

    /// Parses the form produced by [`DecisionEvent::to_sexp`].
    pub fn from_sexp(e: &Sexp) -> Result<DecisionEvent, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("decision") {
            return Err(bad("expected (decision …)"));
        }
        let field_str = |name: &str| -> Result<String, ParseError> {
            e.find_value(name)
                .and_then(Sexp::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(name))
        };
        let field_int =
            |name: &str| -> Result<u64, ParseError> {
                e.find_value(name).and_then(Sexp::as_u64).ok_or_else(|| bad(name))
            };
        let decision = Decision::from_name(&field_str("verdict")?)
            .ok_or_else(|| bad("unknown verdict"))?;
        let subject = match e.find("subject") {
            Some(s) => Some(Principal::from_sexp(
                s.tag_body()
                    .and_then(<[Sexp]>::first)
                    .ok_or_else(|| bad("subject body"))?,
            )?),
            None => None,
        };
        let cert_hashes = match e.find("certs") {
            Some(c) => c
                .tag_body()
                .unwrap_or(&[])
                .iter()
                .map(HashVal::from_sexp)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(DecisionEvent {
            time: Time(field_int("time")?),
            surface: field_str("surface")?,
            subject,
            object: field_str("object")?,
            action: field_str("action")?,
            decision,
            detail: field_str("detail")?,
            cert_hashes,
            revocation_epoch: field_int("epoch")?,
        })
    }
}

/// The interface a decision point reports through.
///
/// Implementations must **never block**: decision points sit on request
/// hot paths and the contract is fire-and-forget.  The production
/// implementation (`snowflake-audit`'s `AuditSink`) enqueues on a bounded
/// queue and *counts* what it cannot accept, exactly like every other
/// queue in the serving path.
pub trait AuditEmitter: Send + Sync {
    /// Reports one decision.  Must not block; overflow is dropped and
    /// counted by the implementation.
    fn emit(&self, event: DecisionEvent);
}

/// An emitter that discards everything (the default when no audit
/// subsystem is attached).
pub struct NullEmitter;

impl AuditEmitter for NullEmitter {
    fn emit(&self, _event: DecisionEvent) {}
}

/// A late-bound emitter slot for decision points.
///
/// Every server that emits audit events holds one of these: the slot
/// starts empty (auditing off) and an emitter is attached at wiring
/// time.  [`EmitterSlot::emit_with`] builds the event only when one is
/// attached, so un-audited deployments pay one uncontended lock and
/// nothing else.
#[derive(Default)]
pub struct EmitterSlot(std::sync::RwLock<Option<std::sync::Arc<dyn AuditEmitter>>>);

impl EmitterSlot {
    /// An empty slot (auditing off).
    pub fn new() -> EmitterSlot {
        EmitterSlot::default()
    }

    /// Attaches (or replaces) the emitter.
    pub fn set(&self, emitter: std::sync::Arc<dyn AuditEmitter>) {
        use crate::sync::RwLockExt;
        *self.0.pwrite() = Some(emitter);
    }

    /// Emits `build()`'s event iff an emitter is attached; the closure
    /// (which may clone principals and provenance) runs only then, and
    /// outside the slot lock.  The slot is set-rarely/read-often: emits
    /// take the read lock, so concurrent requests never serialize here.
    pub fn emit_with(&self, build: impl FnOnce() -> DecisionEvent) {
        use crate::sync::RwLockExt;
        let emitter = self.0.pread().clone();
        if let Some(emitter) = emitter {
            emitter.emit(build());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_sexp_roundtrip() {
        let ev = DecisionEvent::new(
            Time(42),
            "rmi",
            Decision::Grant,
            "email-db",
            "select",
            "cache hit",
        )
        .with_subject(Principal::message(b"alice"))
        .with_certs(vec![HashVal::of(b"cert-1"), HashVal::of(b"cert-2")])
        .with_epoch(7);
        let back = DecisionEvent::from_sexp(&ev.to_sexp()).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn minimal_event_roundtrip() {
        let ev = DecisionEvent::new(Time(0), "http", Decision::Shed, "tcp-accept", "connect", "busy");
        let back = DecisionEvent::from_sexp(&ev.to_sexp()).unwrap();
        assert_eq!(back, ev);
        assert!(back.subject.is_none());
        assert!(back.cert_hashes.is_empty());
    }

    #[test]
    fn decision_names_roundtrip() {
        for d in [Decision::Grant, Decision::Deny, Decision::Shed, Decision::Revoke] {
            assert_eq!(Decision::from_name(d.name()), Some(d));
        }
        assert_eq!(Decision::from_name("maybe"), None);
    }

    #[test]
    fn malformed_events_rejected() {
        for src in [
            "(not-a-decision)",
            "(decision (time 1))",
            "(decision (time 1) (surface s) (object o) (action a) (verdict sideways) (detail d) (epoch 0))",
        ] {
            assert!(DecisionEvent::from_sexp(&Sexp::parse(src.as_bytes()).unwrap()).is_err());
        }
    }
}
