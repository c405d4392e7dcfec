//! Signed certificates: the `signed-certificate` proof leaves of Figure 1.
//!
//! "Logical assumptions represent statements that a principal believes based
//! on some verification (outside the logic), such as the result of a digital
//! signature verification" (paper §3).  A [`Certificate`] packages a
//! [`Delegation`] with the signature that justifies believing
//! `issuer says (subject =T⇒ issuer)`.

use crate::principal::Principal;
use crate::revocation::RevocationPolicy;
use crate::statement::Delegation;
use snowflake_crypto::{HashAlg, HashVal, KeyPair, PublicKey, Signature};
use snowflake_sexpr::{ParseError, Sexp};
use std::fmt;

/// A delegation signed by a key controlling its issuer.
#[derive(Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The signed statement.
    pub delegation: Delegation,
    /// The key that produced the signature.
    pub signer: PublicKey,
    /// Optional revocation policy the verifier must consult.
    pub revocation: Option<RevocationPolicy>,
    /// Schnorr signature over the to-be-signed S-expression.
    pub signature: Signature,
}

impl Certificate {
    /// Issues (signs) a certificate for `delegation` with `keypair`.
    ///
    /// # Panics
    ///
    /// Panics if `keypair` does not control `delegation.issuer` — issuing a
    /// certificate no verifier could ever accept is a programming error.
    pub fn issue(
        keypair: &KeyPair,
        delegation: Delegation,
        rand_bytes: &mut dyn FnMut(&mut [u8]),
    ) -> Certificate {
        Self::issue_with_revocation(keypair, delegation, None, rand_bytes)
    }

    /// Issues a certificate carrying a revocation policy.
    ///
    /// # Panics
    ///
    /// Panics if `keypair` does not control `delegation.issuer`.
    pub fn issue_with_revocation(
        keypair: &KeyPair,
        delegation: Delegation,
        revocation: Option<RevocationPolicy>,
        rand_bytes: &mut dyn FnMut(&mut [u8]),
    ) -> Certificate {
        assert!(
            key_controls(&keypair.public, &delegation.issuer),
            "signing key does not control issuer {:?}",
            delegation.issuer
        );
        let tbs = to_be_signed(&delegation, &revocation);
        let signature = keypair.sign(&tbs.canonical(), rand_bytes);
        Certificate {
            delegation,
            signer: keypair.public.clone(),
            revocation,
            signature,
        }
    }

    /// Checks the signature and the signer's control of the issuer.
    pub fn check(&self) -> Result<(), String> {
        self.check_structure()?;
        if !self.signer.verify(&self.signed_bytes(), &self.signature) {
            return Err("signature verification failed".into());
        }
        Ok(())
    }

    /// The structural half of [`Certificate::check`]: the signer must
    /// control the issuer.  Kept separate so [`Proof::verify`] can run
    /// every cheap check of a proof before any signature exponentiation.
    ///
    /// [`Proof::verify`]: crate::Proof::verify
    pub fn check_structure(&self) -> Result<(), String> {
        if !key_controls(&self.signer, &self.delegation.issuer) {
            return Err(format!(
                "signer {:?} does not control issuer {}",
                self.signer,
                self.delegation.issuer.describe()
            ));
        }
        Ok(())
    }

    /// The canonical to-be-signed bytes [`Certificate::signature`] covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        to_be_signed(&self.delegation, &self.revocation).canonical()
    }

    /// Hash identifying this certificate (used by revocation lists).
    pub fn hash(&self) -> HashVal {
        #[cfg(test)]
        HASHES.with(|n| n.set(n.get() + 1));
        HashVal::of_sexp(&to_be_signed(&self.delegation, &self.revocation))
    }

    /// Serializes to `(signed-cert <tbs> <signer> <signature>)`.
    pub fn to_sexp(&self) -> Sexp {
        Sexp::tagged(
            "signed-cert",
            vec![
                to_be_signed(&self.delegation, &self.revocation),
                self.signer.to_sexp(),
                self.signature.to_sexp(),
            ],
        )
    }

    /// Parses the form produced by [`Certificate::to_sexp`].
    ///
    /// Parsing does **not** verify the signature; call [`Certificate::check`]
    /// (or verify a containing proof) for that.
    pub fn from_sexp(e: &Sexp) -> Result<Certificate, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("signed-cert") {
            return Err(bad("expected (signed-cert …)"));
        }
        let body = e.tag_body().ok_or_else(|| bad("signed-cert body"))?;
        if body.len() != 3 {
            return Err(bad("signed-cert takes tbs, signer, signature"));
        }
        let (delegation, revocation) = from_to_be_signed(&body[0])?;
        let signer = PublicKey::from_sexp(&body[1])?;
        let signature = Signature::from_sexp(&body[2])?;
        Ok(Certificate {
            delegation,
            signer,
            revocation,
            signature,
        })
    }
}

/// The to-be-signed body: the delegation cert, extended with the revocation
/// policy when present.
fn to_be_signed(delegation: &Delegation, revocation: &Option<RevocationPolicy>) -> Sexp {
    let mut e = delegation.to_sexp();
    if let Some(policy) = revocation {
        if let Sexp::List(items) = &mut e {
            items.push(policy.to_sexp());
        }
    }
    e
}

fn from_to_be_signed(e: &Sexp) -> Result<(Delegation, Option<RevocationPolicy>), ParseError> {
    let delegation = Delegation::from_sexp(e)?;
    let revocation = e
        .find("revocation")
        .map(RevocationPolicy::from_sexp)
        .transpose()?;
    Ok((delegation, revocation))
}

/// Does `key` control (may it sign for) `issuer`?
///
/// A key controls itself, its hash (under any supported algorithm), and any
/// name rooted in a principal it controls — the SPKI issuer forms.
pub fn key_controls(key: &PublicKey, issuer: &Principal) -> bool {
    match issuer {
        Principal::Key(k) => k.as_ref() == key,
        Principal::KeyHash(h) => HashVal::digest(h.alg, &key.to_sexp().canonical()) == *h,
        Principal::Name { base, .. } => key_controls(key, base),
        _ => false,
    }
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Certificate[{:?}]", self.delegation)
    }
}

/// Computes the hash-principal of a key under a given algorithm.
///
/// Provided so `md5`-flavored SPKI identities (paper Figure 5) work: a key's
/// md5 hash principal and sha256 hash principal both denote the key.
pub fn key_hash_with(key: &PublicKey, alg: HashAlg) -> HashVal {
    HashVal::digest(alg, &key.to_sexp().canonical())
}

#[cfg(test)]
thread_local! {
    /// [`Certificate::hash`] calls made on this thread, for unit tests
    /// that pin which paths hash certificates.
    pub(crate) static HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::{Time, Validity};
    use snowflake_crypto::{DetRng, Group};
    use snowflake_tags::Tag;

    fn rng(seed: &str) -> impl FnMut(&mut [u8]) {
        let mut r = DetRng::new(seed.as_bytes());
        move |b: &mut [u8]| r.fill(b)
    }

    fn sample_delegation(issuer: &PublicKey, subject: &PublicKey) -> Delegation {
        Delegation {
            subject: Principal::key(subject),
            issuer: Principal::key(issuer),
            tag: Tag::named("web", vec![]),
            validity: Validity::until(Time(10_000)),
            delegable: true,
        }
    }

    #[test]
    fn issue_and_check() {
        let mut r = rng("issue");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        let cert = Certificate::issue(
            &alice,
            sample_delegation(&alice.public, &bob.public),
            &mut r,
        );
        assert!(cert.check().is_ok());
    }

    #[test]
    fn tampered_delegation_fails() {
        let mut r = rng("tamper");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        let mut cert = Certificate::issue(
            &alice,
            sample_delegation(&alice.public, &bob.public),
            &mut r,
        );
        cert.delegation.tag = Tag::Star; // escalate the restriction
        assert!(cert.check().is_err());
    }

    #[test]
    fn issuer_may_be_key_hash_or_name() {
        let mut r = rng("hash-issuer");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        // Hash-of-key issuer.
        let d = Delegation {
            issuer: Principal::key_hash(&alice.public),
            ..sample_delegation(&alice.public, &bob.public)
        };
        assert!(Certificate::issue(&alice, d, &mut r).check().is_ok());
        // Name rooted in the key: K_alice · "mail".
        let d = Delegation {
            issuer: Principal::name(Principal::key_hash(&alice.public), "mail"),
            ..sample_delegation(&alice.public, &bob.public)
        };
        assert!(Certificate::issue(&alice, d, &mut r).check().is_ok());
    }

    #[test]
    #[should_panic(expected = "does not control issuer")]
    fn issuing_for_foreign_issuer_panics() {
        let mut r = rng("foreign");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        // Bob tries to sign a delegation whose issuer is Alice.
        let _ = Certificate::issue(&bob, sample_delegation(&alice.public, &bob.public), &mut r);
    }

    #[test]
    fn wrong_signer_detected_on_check() {
        let mut r = rng("swap");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        let mut cert = Certificate::issue(
            &alice,
            sample_delegation(&alice.public, &bob.public),
            &mut r,
        );
        // An adversary replaces the signer field with their own key.
        cert.signer = bob.public.clone();
        assert!(cert.check().is_err());
    }

    #[test]
    fn sexp_roundtrip_preserves_verification() {
        let mut r = rng("roundtrip");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        let cert = Certificate::issue(
            &alice,
            sample_delegation(&alice.public, &bob.public),
            &mut r,
        );
        let e = cert.to_sexp();
        let back = Certificate::from_sexp(&e).unwrap();
        assert_eq!(back, cert);
        assert!(back.check().is_ok());
        // And through the transport encoding, as HTTP headers would carry it.
        let transported = Sexp::parse(e.transport().as_bytes()).unwrap();
        assert!(Certificate::from_sexp(&transported)
            .unwrap()
            .check()
            .is_ok());
    }

    #[test]
    fn key_controls_rules() {
        let mut r = rng("controls");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        assert!(key_controls(&alice.public, &Principal::key(&alice.public)));
        assert!(key_controls(
            &alice.public,
            &Principal::key_hash(&alice.public)
        ));
        assert!(!key_controls(
            &alice.public,
            &Principal::key_hash(&bob.public)
        ));
        assert!(!key_controls(&alice.public, &Principal::message(b"m")));
        // md5-flavored hash principal also denotes the key.
        let md5_hash = key_hash_with(&alice.public, HashAlg::Md5);
        assert!(key_controls(&alice.public, &Principal::KeyHash(md5_hash)));
        // Deeply named principals.
        let deep = Principal::name(
            Principal::name(Principal::key_hash(&alice.public), "a"),
            "b",
        );
        assert!(key_controls(&alice.public, &deep));
    }
}
