//! Revocation as statements in the logic (paper §4.1).
//!
//! "Our semantics paper explains how SPKI's revocation mechanisms (lists and
//! one-time revalidations) can be expressed as statements in our logic."
//! A certificate may carry a [`RevocationPolicy`] naming a *validator*
//! principal; the verifier must then hold a current, validator-signed
//! [`Crl`] (that does not list the certificate) or a fresh
//! [`Revalidation`] for the certificate.  Both artifacts are themselves
//! signed statements — there is no out-of-band mechanism.
//!
//! Both artifacts have full signed wire forms ([`Crl::to_sexp`],
//! [`Revalidation::to_sexp`]) so a validator service can serve them over
//! the same transports every other Snowflake statement travels on.

use snowflake_crypto::{HashVal, KeyPair, PublicKey, Signature};
use snowflake_sexpr::{ParseError, Sexp};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use crate::statement::{Time, Validity};
use crate::verify::RevocationSource;

/// The revocation regime a certificate opts into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RevocationPolicy {
    /// Verifier must hold a current CRL signed by the named validator key
    /// hash, and the certificate must not appear on it.
    Crl {
        /// Hash of the validator's public key.
        validator: HashVal,
    },
    /// Verifier must hold a fresh one-time revalidation of this certificate
    /// signed by the named validator.
    Revalidate {
        /// Hash of the validator's public key.
        validator: HashVal,
    },
}

impl RevocationPolicy {
    /// Serializes to `(revocation (crl|revalidate) <validator>)`.
    pub fn to_sexp(&self) -> Sexp {
        let (kind, validator) = match self {
            RevocationPolicy::Crl { validator } => ("crl", validator),
            RevocationPolicy::Revalidate { validator } => ("revalidate", validator),
        };
        Sexp::tagged("revocation", vec![Sexp::from(kind), validator.to_sexp()])
    }

    /// Parses the form produced by [`RevocationPolicy::to_sexp`].
    pub fn from_sexp(e: &Sexp) -> Result<RevocationPolicy, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("revocation") {
            return Err(bad("expected (revocation …)"));
        }
        let body = e.tag_body().ok_or_else(|| bad("revocation body"))?;
        if body.len() != 2 {
            return Err(bad("revocation takes kind + validator"));
        }
        let validator = HashVal::from_sexp(&body[1])?;
        match body[0].as_str() {
            Some("crl") => Ok(RevocationPolicy::Crl { validator }),
            Some("revalidate") => Ok(RevocationPolicy::Revalidate { validator }),
            _ => Err(bad("unknown revocation kind")),
        }
    }

    /// The validator's key hash.
    pub fn validator(&self) -> &HashVal {
        match self {
            RevocationPolicy::Crl { validator } | RevocationPolicy::Revalidate { validator } => {
                validator
            }
        }
    }
}

/// A signed certificate revocation list.
///
/// The `serial` is part of the signed body and increases with every
/// reissue, so a verifier fed lists out of order (replayed push deltas,
/// raced fetches) can refuse to roll its knowledge backwards.
#[derive(Debug, Clone)]
pub struct Crl {
    /// Monotonically increasing issue number (signed).
    pub serial: u64,
    /// Hashes of revoked certificates.
    pub revoked: Vec<HashVal>,
    /// When this list is authoritative.
    pub validity: Validity,
    /// The validator key that signed the list.
    pub signer: PublicKey,
    /// Signature over the canonical list body.
    pub signature: Signature,
    /// Membership index, built once on first [`Crl::revokes`] call so the
    /// verify hot path is O(1) instead of a linear scan of the list.  Not
    /// part of the wire format or equality; mutating `revoked` after the
    /// first lookup is not supported (it would break the signature anyway).
    index: OnceLock<HashSet<HashVal>>,
    /// Lazily computed [`Crl::content_hash`]; same caveats as `index`.
    content_hash: OnceLock<HashVal>,
}

impl PartialEq for Crl {
    fn eq(&self, other: &Self) -> bool {
        self.serial == other.serial
            && self.revoked == other.revoked
            && self.validity == other.validity
            && self.signer == other.signer
            && self.signature == other.signature
    }
}

impl Eq for Crl {}

impl Crl {
    /// Issues a signed CRL with serial 0 (single-shot uses; services that
    /// reissue should use [`Crl::issue_with_serial`]).
    pub fn issue(
        validator: &KeyPair,
        revoked: Vec<HashVal>,
        validity: Validity,
        rand_bytes: &mut dyn FnMut(&mut [u8]),
    ) -> Crl {
        Self::issue_with_serial(validator, 0, revoked, validity, rand_bytes)
    }

    /// Issues a signed CRL carrying an explicit serial number.
    pub fn issue_with_serial(
        validator: &KeyPair,
        serial: u64,
        revoked: Vec<HashVal>,
        validity: Validity,
        rand_bytes: &mut dyn FnMut(&mut [u8]),
    ) -> Crl {
        let tbs = Self::tbs(serial, &revoked, &validity);
        let signature = validator.sign(&tbs.canonical(), rand_bytes);
        Crl {
            serial,
            revoked,
            validity,
            signer: validator.public.clone(),
            signature,
            index: OnceLock::new(),
            content_hash: OnceLock::new(),
        }
    }

    fn tbs(serial: u64, revoked: &[HashVal], validity: &Validity) -> Sexp {
        let mut body = vec![
            Sexp::tagged("serial", vec![Sexp::int(serial)]),
            validity.to_sexp(),
        ];
        body.extend(revoked.iter().map(HashVal::to_sexp));
        Sexp::tagged("crl", body)
    }

    /// Checks signer identity and currency, then the signature.
    pub fn check(&self, expected_validator: &HashVal, now: Time) -> Result<(), String> {
        if snowflake_crypto::HashVal::digest(
            expected_validator.alg,
            &self.signer.to_sexp().canonical(),
        ) != *expected_validator
        {
            return Err("CRL signed by wrong validator".into());
        }
        if !self.validity.contains(now) {
            return Err("CRL not current".into());
        }
        if !self.signer.verify(&self.signed_bytes(), &self.signature) {
            return Err("CRL signature invalid".into());
        }
        Ok(())
    }

    /// The canonical to-be-signed bytes [`Crl::signature`] covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        Self::tbs(self.serial, &self.revoked, &self.validity).canonical()
    }

    /// Hash of the full signed wire form ([`Crl::to_sexp`] canonical
    /// bytes: body, signer, *and* signature) — the identity caches key
    /// this exact artifact under.  Two lists that differ anywhere hash
    /// apart, including a reissue that reuses a serial and validity
    /// window over a different revoked set.  Computed once per instance.
    pub fn content_hash(&self) -> &HashVal {
        self.content_hash
            .get_or_init(|| HashVal::of(&self.to_sexp().canonical()))
    }

    /// Is `cert_hash` on the list?  O(1) after the first call builds the
    /// membership index (large CRLs sit on the verify hot path).
    pub fn revokes(&self, cert_hash: &HashVal) -> bool {
        self.index
            .get_or_init(|| self.revoked.iter().cloned().collect())
            .contains(cert_hash)
    }

    /// Serializes the full signed list:
    /// `(crl-signed <tbs> <signer> <signature>)`.
    pub fn to_sexp(&self) -> Sexp {
        Sexp::tagged(
            "crl-signed",
            vec![
                Self::tbs(self.serial, &self.revoked, &self.validity),
                self.signer.to_sexp(),
                self.signature.to_sexp(),
            ],
        )
    }

    /// Parses the form produced by [`Crl::to_sexp`].
    ///
    /// Parsing does **not** verify the signature; call [`Crl::check`].
    pub fn from_sexp(e: &Sexp) -> Result<Crl, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("crl-signed") {
            return Err(bad("expected (crl-signed …)"));
        }
        let body = e.tag_body().ok_or_else(|| bad("crl-signed body"))?;
        if body.len() != 3 {
            return Err(bad("crl-signed takes tbs, signer, signature"));
        }
        let tbs = &body[0];
        if tbs.tag_name() != Some("crl") {
            return Err(bad("expected (crl …) body"));
        }
        let tbs_body = tbs.tag_body().ok_or_else(|| bad("crl body"))?;
        if tbs_body.len() < 2 {
            return Err(bad("crl takes serial + validity + hashes"));
        }
        let serial = tbs
            .find_value("serial")
            .and_then(Sexp::as_u64)
            .ok_or_else(|| bad("missing serial"))?;
        let validity = Validity::from_sexp(&tbs_body[1])?;
        let revoked: Result<Vec<HashVal>, ParseError> =
            tbs_body[2..].iter().map(HashVal::from_sexp).collect();
        Ok(Crl {
            serial,
            revoked: revoked?,
            validity,
            signer: PublicKey::from_sexp(&body[1])?,
            signature: Signature::from_sexp(&body[2])?,
            index: OnceLock::new(),
            content_hash: OnceLock::new(),
        })
    }
}

/// A signed one-time revalidation of a specific certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Revalidation {
    /// Hash of the certificate being revalidated.
    pub cert_hash: HashVal,
    /// The (short) window during which the revalidation holds.
    pub validity: Validity,
    /// The validator key that signed.
    pub signer: PublicKey,
    /// Signature over the canonical body.
    pub signature: Signature,
}

impl Revalidation {
    /// Issues a signed revalidation for `cert_hash`.
    pub fn issue(
        validator: &KeyPair,
        cert_hash: HashVal,
        validity: Validity,
        rand_bytes: &mut dyn FnMut(&mut [u8]),
    ) -> Revalidation {
        let tbs = Self::tbs(&cert_hash, &validity);
        let signature = validator.sign(&tbs.canonical(), rand_bytes);
        Revalidation {
            cert_hash,
            validity,
            signer: validator.public.clone(),
            signature,
        }
    }

    fn tbs(cert_hash: &HashVal, validity: &Validity) -> Sexp {
        Sexp::tagged(
            "revalidation",
            vec![cert_hash.to_sexp(), validity.to_sexp()],
        )
    }

    /// Checks signature, currency, signer identity, and target certificate.
    pub fn check(
        &self,
        expected_validator: &HashVal,
        cert_hash: &HashVal,
        now: Time,
    ) -> Result<(), String> {
        if &self.cert_hash != cert_hash {
            return Err("revalidation covers a different certificate".into());
        }
        if snowflake_crypto::HashVal::digest(
            expected_validator.alg,
            &self.signer.to_sexp().canonical(),
        ) != *expected_validator
        {
            return Err("revalidation signed by wrong validator".into());
        }
        if !self.validity.contains(now) {
            return Err("revalidation expired".into());
        }
        let tbs = Self::tbs(&self.cert_hash, &self.validity);
        if !self.signer.verify(&tbs.canonical(), &self.signature) {
            return Err("revalidation signature invalid".into());
        }
        Ok(())
    }

    /// Hash of the full signed wire form ([`Revalidation::to_sexp`]
    /// canonical bytes) — see [`Crl::content_hash`].  Revalidation bodies
    /// are a few hundred bytes, so this is computed on demand.
    pub fn content_hash(&self) -> HashVal {
        HashVal::of(&self.to_sexp().canonical())
    }

    /// Serializes the full signed revalidation:
    /// `(revalidation-signed <tbs> <signer> <signature>)`.
    pub fn to_sexp(&self) -> Sexp {
        Sexp::tagged(
            "revalidation-signed",
            vec![
                Self::tbs(&self.cert_hash, &self.validity),
                self.signer.to_sexp(),
                self.signature.to_sexp(),
            ],
        )
    }

    /// Parses the form produced by [`Revalidation::to_sexp`].
    ///
    /// Parsing does **not** verify the signature; call [`Revalidation::check`].
    pub fn from_sexp(e: &Sexp) -> Result<Revalidation, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("revalidation-signed") {
            return Err(bad("expected (revalidation-signed …)"));
        }
        let body = e.tag_body().ok_or_else(|| bad("revalidation-signed body"))?;
        if body.len() != 3 {
            return Err(bad("revalidation-signed takes tbs, signer, signature"));
        }
        let tbs_body = body[0]
            .tag_body()
            .filter(|_| body[0].tag_name() == Some("revalidation"))
            .ok_or_else(|| bad("expected (revalidation …) body"))?;
        if tbs_body.len() != 2 {
            return Err(bad("revalidation takes cert-hash + validity"));
        }
        Ok(Revalidation {
            cert_hash: HashVal::from_sexp(&tbs_body[0])?,
            validity: Validity::from_sexp(&tbs_body[1])?,
            signer: PublicKey::from_sexp(&body[1])?,
            signature: Signature::from_sexp(&body[2])?,
        })
    }
}

/// Hand-installed revocation data: the [`RevocationSource`] of a verifier
/// that runs no freshness agent.
///
/// A plain value: build it with [`RevocationTable::install_crl`] and
/// [`RevocationTable::install_revalidation`], then attach it behind an
/// `Arc` ([`crate::VerifyCtx::set_revocation_source`]).  An attached table
/// is never mutated — changing the installed lists means attaching a new
/// table — so every decision shares its lists (and their built-once
/// membership indexes) instead of copying them, and a decision's memo
/// fingerprint and cold path resolve the same artifact.
#[derive(Debug, Clone, Default)]
pub struct RevocationTable {
    crls: HashMap<HashVal, Arc<Crl>>,
    revalidations: HashMap<HashVal, Revalidation>,
}

impl RevocationTable {
    /// Installs a CRL, replacing any previous list from the same validator.
    pub fn install_crl(&mut self, crl: impl Into<Arc<Crl>>) -> &mut RevocationTable {
        let crl = crl.into();
        self.crls.insert(crl.signer.hash(), crl);
        self
    }

    /// Installs a revalidation, replacing any previous one of the same
    /// certificate.
    pub fn install_revalidation(&mut self, r: Revalidation) -> &mut RevocationTable {
        self.revalidations.insert(r.cert_hash.clone(), r);
        self
    }
}

#[cfg(test)]
impl RevocationTable {
    /// A table holding one CRL and one revalidation.
    pub(crate) fn of(crl: Crl, reval: Revalidation) -> RevocationTable {
        let mut table = RevocationTable::default();
        table.install_crl(crl).install_revalidation(reval);
        table
    }
}

impl RevocationSource for RevocationTable {
    fn crl(&self, validator: &HashVal, now: Time) -> Option<Arc<Crl>> {
        self.crls
            .get(validator)
            .filter(|c| c.validity.contains(now))
            .cloned()
    }

    fn revalidation(&self, cert_hash: &HashVal, now: Time) -> Option<Revalidation> {
        self.revalidations
            .get(cert_hash)
            .filter(|r| r.validity.contains(now))
            .cloned()
    }

    fn epoch(&self) -> u64 {
        self.crls.values().map(|c| c.serial).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_crypto::{DetRng, Group};

    fn rng(seed: &str) -> impl FnMut(&mut [u8]) {
        let mut r = DetRng::new(seed.as_bytes());
        move |b: &mut [u8]| r.fill(b)
    }

    #[test]
    fn policy_sexp_roundtrip() {
        let v = HashVal::of(b"validator-key");
        for p in [
            RevocationPolicy::Crl {
                validator: v.clone(),
            },
            RevocationPolicy::Revalidate { validator: v },
        ] {
            assert_eq!(RevocationPolicy::from_sexp(&p.to_sexp()).unwrap(), p);
        }
    }

    #[test]
    fn crl_check() {
        let mut r = rng("crl");
        let validator = KeyPair::generate(Group::test512(), &mut r);
        let vhash = validator.public.hash();
        let bad_cert = HashVal::of(b"revoked cert");
        let crl = Crl::issue(
            &validator,
            vec![bad_cert.clone()],
            Validity::between(Time(100), Time(200)),
            &mut r,
        );
        assert!(crl.check(&vhash, Time(150)).is_ok());
        assert!(crl.check(&vhash, Time(250)).is_err(), "stale CRL");
        assert!(
            crl.check(&HashVal::of(b"other"), Time(150)).is_err(),
            "wrong validator"
        );
        assert!(crl.revokes(&bad_cert));
        assert!(!crl.revokes(&HashVal::of(b"innocent")));
    }

    #[test]
    fn crl_tamper_detected() {
        let mut r = rng("crl2");
        let validator = KeyPair::generate(Group::test512(), &mut r);
        let vhash = validator.public.hash();
        let mut crl = Crl::issue(&validator, vec![], Validity::always(), &mut r);
        // Adversary adds a revocation entry without re-signing.
        crl.revoked.push(HashVal::of(b"sneaky"));
        assert!(crl.check(&vhash, Time(1)).is_err());
    }

    #[test]
    fn crl_serial_is_signed() {
        let mut r = rng("crl-serial");
        let validator = KeyPair::generate(Group::test512(), &mut r);
        let vhash = validator.public.hash();
        let mut crl =
            Crl::issue_with_serial(&validator, 7, vec![], Validity::always(), &mut r);
        assert!(crl.check(&vhash, Time(1)).is_ok());
        // An adversary cannot replay the list under a newer serial.
        crl.serial = 8;
        assert!(crl.check(&vhash, Time(1)).is_err());
    }

    #[test]
    fn crl_membership_scales() {
        let mut r = rng("crl-big");
        let validator = KeyPair::generate(Group::test512(), &mut r);
        let revoked: Vec<HashVal> = (0..4_096u32)
            .map(|i| HashVal::of(&i.to_be_bytes()))
            .collect();
        let crl = Crl::issue(&validator, revoked, Validity::always(), &mut r);
        // Every listed hash answers true, absent ones false; the index is
        // built once, so this loop is O(n) total rather than O(n²).
        for i in 0..4_096u32 {
            assert!(crl.revokes(&HashVal::of(&i.to_be_bytes())));
        }
        assert!(!crl.revokes(&HashVal::of(b"innocent")));
    }

    #[test]
    fn crl_sexp_roundtrip() {
        let mut r = rng("crl-wire");
        let validator = KeyPair::generate(Group::test512(), &mut r);
        let vhash = validator.public.hash();
        let crl = Crl::issue_with_serial(
            &validator,
            42,
            vec![HashVal::of(b"a"), HashVal::of(b"b")],
            Validity::between(Time(5), Time(500)),
            &mut r,
        );
        let back = Crl::from_sexp(&crl.to_sexp()).unwrap();
        assert_eq!(back, crl);
        assert!(back.check(&vhash, Time(50)).is_ok());
        assert!(back.revokes(&HashVal::of(b"a")));
        // And through the transport encoding, as a header or frame would
        // carry it.
        let transported = Sexp::parse(crl.to_sexp().transport().as_bytes()).unwrap();
        assert_eq!(Crl::from_sexp(&transported).unwrap(), crl);
    }

    #[test]
    fn revalidation_check() {
        let mut r = rng("reval");
        let validator = KeyPair::generate(Group::test512(), &mut r);
        let vhash = validator.public.hash();
        let cert = HashVal::of(b"cert");
        let reval = Revalidation::issue(
            &validator,
            cert.clone(),
            Validity::between(Time(10), Time(20)),
            &mut r,
        );
        assert!(reval.check(&vhash, &cert, Time(15)).is_ok());
        assert!(reval.check(&vhash, &cert, Time(25)).is_err(), "expired");
        assert!(
            reval
                .check(&vhash, &HashVal::of(b"other"), Time(15))
                .is_err(),
            "wrong cert"
        );
    }

    #[test]
    fn revalidation_sexp_roundtrip() {
        let mut r = rng("reval-wire");
        let validator = KeyPair::generate(Group::test512(), &mut r);
        let vhash = validator.public.hash();
        let cert = HashVal::of(b"cert");
        let reval = Revalidation::issue(
            &validator,
            cert.clone(),
            Validity::between(Time(10), Time(20)),
            &mut r,
        );
        let back = Revalidation::from_sexp(&reval.to_sexp()).unwrap();
        assert_eq!(back, reval);
        assert!(back.check(&vhash, &cert, Time(15)).is_ok());
    }
}
