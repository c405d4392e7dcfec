//! Chained records, signed checkpoints, and the log-entry stream.
//!
//! A captured log is a sequence of [`LogEntry`]s: every decision becomes a
//! [`ChainedRecord`] whose hash covers its sequence number, the previous
//! record's hash, and the decision itself; every
//! [checkpoint interval](crate::AuditLog::checkpoint_interval) records the
//! log also emits a [`Checkpoint`] — the chain head signed by the log's
//! key.  The chain makes reordering and in-place edits detectable from the
//! entries alone; the signatures pin the chain to a key, so a tamperer
//! would have to forge a signature to re-seal an altered history; and a
//! trusted head (the live log's, or the latest checkpoint's) makes
//! truncation detectable too.

use snowflake_core::DecisionEvent;
use snowflake_crypto::{HashVal, KeyPair, PublicKey, Signature};
use snowflake_sexpr::{ParseError, Sexp};

/// The chain value before the first record (`prev` of record 0).
pub fn genesis_hash() -> HashVal {
    HashVal::of(b"snowflake-audit-genesis")
}

/// One decision, chained to its predecessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainedRecord {
    /// Position in the log (0-based, contiguous).
    pub seq: u64,
    /// The decision recorded.
    pub event: DecisionEvent,
    /// The previous record's hash ([`genesis_hash`] for record 0).
    pub prev: HashVal,
    /// `H(seq ‖ prev ‖ event)` — what the next record chains to.
    pub hash: HashVal,
}

impl ChainedRecord {
    fn hashed_form(seq: u64, prev: &HashVal, event: &DecisionEvent) -> Sexp {
        Sexp::tagged(
            "audit-record",
            vec![
                Sexp::tagged("seq", vec![Sexp::int(seq)]),
                Sexp::tagged("prev", vec![prev.to_sexp()]),
                event.to_sexp(),
            ],
        )
    }

    /// Chains `event` onto the record whose hash is `prev`.
    pub fn chain(seq: u64, prev: HashVal, event: DecisionEvent) -> ChainedRecord {
        let hash = HashVal::of_sexp(&Self::hashed_form(seq, &prev, &event));
        ChainedRecord {
            seq,
            event,
            prev,
            hash,
        }
    }

    /// Recomputes the hash from the carried fields (what verification
    /// compares against the stored [`ChainedRecord::hash`]).
    pub fn recompute_hash(&self) -> HashVal {
        HashVal::of_sexp(&Self::hashed_form(self.seq, &self.prev, &self.event))
    }

    /// Serializes to the hashed form plus the stored hash (so readers
    /// can follow the chain without recomputing).
    pub fn to_sexp(&self) -> Sexp {
        let Sexp::List(mut items) = Self::hashed_form(self.seq, &self.prev, &self.event) else {
            unreachable!("hashed form is a list");
        };
        items.push(Sexp::tagged("hash", vec![self.hash.to_sexp()]));
        Sexp::List(items)
    }

    /// Parses the form produced by [`ChainedRecord::to_sexp`].
    ///
    /// The stored hash is **not** trusted; [`crate::verify_chain`]
    /// recomputes it.
    pub fn from_sexp(e: &Sexp) -> Result<ChainedRecord, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("audit-record") {
            return Err(bad("expected (audit-record …)"));
        }
        let seq = e
            .find_value("seq")
            .and_then(Sexp::as_u64)
            .ok_or_else(|| bad("seq"))?;
        let prev = HashVal::from_sexp(e.find_value("prev").ok_or_else(|| bad("prev"))?)?;
        let event =
            DecisionEvent::from_sexp(e.find("decision").ok_or_else(|| bad("decision"))?)?;
        let hash = HashVal::from_sexp(e.find_value("hash").ok_or_else(|| bad("hash"))?)?;
        Ok(ChainedRecord {
            seq,
            event,
            prev,
            hash,
        })
    }
}

/// The chain head at one moment, signed by the log's key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The sequence number of the last record the signature covers.
    pub upto_seq: u64,
    /// That record's hash — and, through the chain, every record before it.
    pub head: HashVal,
    /// The signing key (checked against the expected log key on verify).
    pub signer: PublicKey,
    /// Schnorr signature over the to-be-signed form.
    pub signature: Signature,
}

impl Checkpoint {
    fn tbs(upto_seq: u64, head: &HashVal) -> Sexp {
        Sexp::tagged(
            "audit-checkpoint-tbs",
            vec![
                Sexp::tagged("upto", vec![Sexp::int(upto_seq)]),
                Sexp::tagged("head", vec![head.to_sexp()]),
            ],
        )
    }

    /// Signs the chain head `(upto_seq, head)` with `key`.
    pub fn issue(
        key: &KeyPair,
        upto_seq: u64,
        head: HashVal,
        rand_bytes: &mut dyn FnMut(&mut [u8]),
    ) -> Checkpoint {
        let signature = key.sign(&Self::tbs(upto_seq, &head).canonical(), rand_bytes);
        Checkpoint {
            upto_seq,
            head,
            signer: key.public.clone(),
            signature,
        }
    }

    /// Checks that the checkpoint was signed by `expected_signer`, then
    /// the signature.
    pub fn check(&self, expected_signer: &PublicKey) -> Result<(), String> {
        if &self.signer != expected_signer {
            return Err("checkpoint signed by the wrong key".into());
        }
        if !self.signer.verify(&self.signed_bytes(), &self.signature) {
            return Err("checkpoint signature verification failed".into());
        }
        Ok(())
    }

    /// The canonical to-be-signed bytes [`Checkpoint::signature`] covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        Self::tbs(self.upto_seq, &self.head).canonical()
    }

    /// Serializes to `(audit-checkpoint (upto n) (head …) <key> <sig>)`.
    pub fn to_sexp(&self) -> Sexp {
        Sexp::tagged(
            "audit-checkpoint",
            vec![
                Sexp::tagged("upto", vec![Sexp::int(self.upto_seq)]),
                Sexp::tagged("head", vec![self.head.to_sexp()]),
                self.signer.to_sexp(),
                self.signature.to_sexp(),
            ],
        )
    }

    /// Parses the form produced by [`Checkpoint::to_sexp`].  Parsing does
    /// not verify; call [`Checkpoint::check`].
    pub fn from_sexp(e: &Sexp) -> Result<Checkpoint, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("audit-checkpoint") {
            return Err(bad("expected (audit-checkpoint …)"));
        }
        let body = e.tag_body().unwrap_or(&[]);
        if body.len() != 4 {
            return Err(bad("audit-checkpoint takes upto + head + key + sig"));
        }
        let upto_seq = e
            .find_value("upto")
            .and_then(Sexp::as_u64)
            .ok_or_else(|| bad("upto"))?;
        let head = HashVal::from_sexp(e.find_value("head").ok_or_else(|| bad("head"))?)?;
        let signer = PublicKey::from_sexp(&body[2])?;
        let signature = Signature::from_sexp(&body[3])?;
        Ok(Checkpoint {
            upto_seq,
            head,
            signer,
            signature,
        })
    }
}

/// One entry in a captured log: a record or a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// A chained decision record.
    Record(ChainedRecord),
    /// A signed chain head.
    Checkpoint(Checkpoint),
}

impl LogEntry {
    /// Serializes the entry.
    pub fn to_sexp(&self) -> Sexp {
        match self {
            LogEntry::Record(r) => r.to_sexp(),
            LogEntry::Checkpoint(c) => c.to_sexp(),
        }
    }

    /// Parses either entry form.
    pub fn from_sexp(e: &Sexp) -> Result<LogEntry, ParseError> {
        match e.tag_name() {
            Some("audit-record") => Ok(LogEntry::Record(ChainedRecord::from_sexp(e)?)),
            Some("audit-checkpoint") => Ok(LogEntry::Checkpoint(Checkpoint::from_sexp(e)?)),
            _ => Err(ParseError {
                offset: 0,
                message: "unknown audit log entry form".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_core::{Decision, Time};
    use snowflake_crypto::{DetRng, Group};

    fn event(n: u64) -> DecisionEvent {
        DecisionEvent::new(Time(n), "rmi", Decision::Grant, "obj", "m", "d")
    }

    #[test]
    fn record_roundtrip_and_hash() {
        let r = ChainedRecord::chain(3, HashVal::of(b"prev"), event(9));
        assert_eq!(r.recompute_hash(), r.hash);
        let back = ChainedRecord::from_sexp(&r.to_sexp()).unwrap();
        assert_eq!(back, r);
        // Any field change breaks the hash.
        let mut tampered = r.clone();
        tampered.event.detail = "forged".into();
        assert_ne!(tampered.recompute_hash(), tampered.hash);
    }

    #[test]
    fn checkpoint_roundtrip_and_check() {
        let mut kr = DetRng::new(b"ckpt-key");
        let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
        let mut sr = DetRng::new(b"ckpt-sign");
        let c = Checkpoint::issue(&key, 7, HashVal::of(b"head"), &mut |b| sr.fill(b));
        c.check(&key.public).unwrap();
        let back = Checkpoint::from_sexp(&c.to_sexp()).unwrap();
        assert_eq!(back, c);
        // Wrong expected key and tampered head both fail.
        let mut or = DetRng::new(b"other-key");
        let other = KeyPair::generate(Group::test512(), &mut |b| or.fill(b));
        assert!(c.check(&other.public).is_err());
        let mut forged = c.clone();
        forged.head = HashVal::of(b"other-head");
        assert!(forged.check(&key.public).is_err());
    }

    #[test]
    fn entry_stream_roundtrip() {
        let mut kr = DetRng::new(b"entry-key");
        let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
        let r = ChainedRecord::chain(0, genesis_hash(), event(1));
        let mut sr = DetRng::new(b"entry-sign");
        let c = Checkpoint::issue(&key, 0, r.hash.clone(), &mut |b| sr.fill(b));
        for entry in [LogEntry::Record(r), LogEntry::Checkpoint(c)] {
            let framed = entry.to_sexp().canonical();
            let back =
                LogEntry::from_sexp(&snowflake_sexpr::Sexp::parse(&framed).unwrap()).unwrap();
            assert_eq!(back, entry);
        }
        assert!(LogEntry::from_sexp(&Sexp::parse(b"(mystery)").unwrap()).is_err());
    }
}
