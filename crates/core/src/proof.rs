//! Structured, self-verifying proofs of authority (paper §4.3).
//!
//! "A proof of authority, like a proof of a mathematical theorem, is simply
//! a collection of statements that together convince the reader of the
//! veracity of the conclusion statement."  Snowflake transmits proofs in
//! *structured* form rather than as SPKI's linear stack-machine sequences,
//! for the paper's three reasons:
//!
//! 1. structured proofs "clearly exhibit their own meaning";
//! 2. each proof component maps one-to-one to the implementation object
//!    that verifies it (each [`Proof`] variant is one inference rule with
//!    one verifier arm);
//! 3. lemmas (subproofs) are trivially extractable for reuse
//!    ([`Proof::lemmas`]) — the Prover "digests" received proofs into
//!    reusable components.
//!
//! Proof objects "may be received from untrusted parties" but their methods
//! — this module — are "loaded from a local code base, so that the results
//! of verification are trustworthy."

use crate::cert::Certificate;
use crate::principal::Principal;
use crate::statement::{Delegation, Time, Validity};
use crate::verify::VerifyCtx;
use snowflake_crypto::{verify_batch, BatchEntry, BatchOutcome, HashAlg, HashVal, PublicKey};
use snowflake_sexpr::{ParseError, Sexp};
use snowflake_tags::Tag;
use std::fmt;

/// Why a proof failed to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A signature or certificate-level check failed.
    BadCertificate(String),
    /// An assumption leaf is not trusted by the verifying context.
    UntrustedAssumption(String),
    /// An inference step's side conditions do not hold.
    BadInference(String),
    /// The proof is fine but does not authorize the request at hand.
    NotAuthorizing(String),
    /// A revocation requirement was not satisfied.
    Revoked(String),
    /// Structural decode failure.
    Malformed(String),
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::BadCertificate(m) => write!(f, "bad certificate: {m}"),
            ProofError::UntrustedAssumption(m) => write!(f, "untrusted assumption: {m}"),
            ProofError::BadInference(m) => write!(f, "bad inference: {m}"),
            ProofError::NotAuthorizing(m) => write!(f, "not authorizing: {m}"),
            ProofError::Revoked(m) => write!(f, "revoked: {m}"),
            ProofError::Malformed(m) => write!(f, "malformed proof: {m}"),
        }
    }
}

impl std::error::Error for ProofError {}

/// A structured proof that `conclusion().subject` speaks for
/// `conclusion().issuer` regarding `conclusion().tag`.
#[derive(Clone, PartialEq, Eq)]
pub enum Proof {
    /// Leaf: a signed certificate validates `issuer says (subject ⇒ issuer)`.
    SignedCert(Box<Certificate>),
    /// Leaf: an assumption vouched for by the verifier's own machinery —
    /// "statements that a principal believes based on some verification
    /// outside the logic", e.g. a channel binding (`M ⇒ K_CH`) or a local
    /// broker's vouching.  `authority` names the mechanism for audit trails.
    Assumption {
        /// The assumed statement.
        stmt: Delegation,
        /// Which mechanism vouches (e.g. `ssh-channel`, `local-broker`,
        /// `mac-session`).
        authority: String,
    },
    /// Axiom: `A =(*)⇒ A`.
    Reflex(Principal),
    /// From `A =T⇒ B` and `B =U⇒ C` (delegable), conclude `A =T∩U⇒ C`.
    Transitivity(Box<Proof>, Box<Proof>),
    /// From `A =T⇒ B`, conclude `A =T'⇒ B` for any `T' ⊆ T` (and narrower
    /// validity, and delegable→non-delegable).
    Weaken {
        /// The stronger proof.
        inner: Box<Proof>,
        /// The weakened conclusion; must be implied by `inner`'s.
        conclusion: Delegation,
    },
    /// Quoting is monotone in the quotee: from `B =T⇒ A` conclude
    /// `Q|B =T⇒ Q|A`.
    QuoteQuotee {
        /// Proof of `B ⇒ A`.
        inner: Box<Proof>,
        /// The quoter `Q`.
        quoter: Principal,
    },
    /// Quoting is monotone in the quoter: from `B =T⇒ A` conclude
    /// `B|Q =T⇒ A|Q`.
    QuoteQuoter {
        /// Proof of `B ⇒ A`.
        inner: Box<Proof>,
        /// The quotee `Q`.
        quotee: Principal,
    },
    /// From `A =T₁⇒ B₁ … A =Tₙ⇒ Bₙ`, conclude `A =∩Tᵢ⇒ B₁∧…∧Bₙ`.
    ConjIntro(Vec<Proof>),
    /// Axiom: `B₁∧…∧Bₙ =(*)⇒ Bᵢ` (whatever the conjunction says, each
    /// conjunct said).
    ConjProj {
        /// The conjunction principal.
        conjunction: Principal,
        /// Which conjunct is projected out.
        index: usize,
    },
    /// From proofs `A ⇒ sᵢ` for `k` distinct subjects of a threshold
    /// principal, conclude `A ⇒ threshold`.
    ThresholdIntro {
        /// The threshold principal being satisfied.
        threshold: Principal,
        /// `(index, proof)` pairs; at least `k` with distinct indices.
        proofs: Vec<(usize, Proof)>,
    },
    /// Name monotonicity (Figure 1): from `P =T⇒ Q` conclude `P·N =T⇒ Q·N`.
    NameMono {
        /// Proof of `P ⇒ Q`.
        inner: Box<Proof>,
        /// The name `N` appended on both sides.
        name: String,
    },
    /// Hash identity (Figure 1): `H(K) ⇒ K` (or `K ⇒ H(K)`), checkable by
    /// recomputing the hash.
    HashIdent {
        /// The key.
        key: Box<PublicKey>,
        /// Hash algorithm of the hash-principal side.
        alg: HashAlg,
        /// Direction: `true` proves `H(K) ⇒ K`, `false` proves `K ⇒ H(K)`.
        hash_to_key: bool,
    },
}

impl Proof {
    /// Wraps a certificate as a leaf proof.
    pub fn signed_cert(cert: Certificate) -> Proof {
        Proof::SignedCert(Box::new(cert))
    }

    /// Composes two proofs by transitivity.
    pub fn then(self, next: Proof) -> Proof {
        Proof::Transitivity(Box::new(self), Box::new(next))
    }

    /// The statement this proof concludes.
    ///
    /// Purely structural — no verification happens here; an unverified
    /// conclusion is a *claim*.
    pub fn conclusion(&self) -> Delegation {
        match self {
            Proof::SignedCert(cert) => cert.delegation.clone(),
            Proof::Assumption { stmt, .. } => stmt.clone(),
            Proof::Reflex(p) => Delegation::axiom(p.clone(), p.clone()),
            Proof::Transitivity(left, right) => {
                let l = left.conclusion();
                let r = right.conclusion();
                let tag = l.tag.intersect(&r.tag).unwrap_or(Tag::Set(Vec::new()));
                let validity = l
                    .validity
                    .intersect(&r.validity)
                    .unwrap_or(Validity::between(Time(1), Time(0)));
                Delegation {
                    subject: l.subject,
                    issuer: r.issuer,
                    tag,
                    validity,
                    delegable: l.delegable && r.delegable,
                }
            }
            Proof::Weaken { conclusion, .. } => conclusion.clone(),
            Proof::QuoteQuotee { inner, quoter } => {
                let c = inner.conclusion();
                Delegation {
                    subject: Principal::quoting(quoter.clone(), c.subject),
                    issuer: Principal::quoting(quoter.clone(), c.issuer),
                    ..c
                }
            }
            Proof::QuoteQuoter { inner, quotee } => {
                let c = inner.conclusion();
                Delegation {
                    subject: Principal::quoting(c.subject, quotee.clone()),
                    issuer: Principal::quoting(c.issuer, quotee.clone()),
                    ..c
                }
            }
            Proof::ConjIntro(proofs) => {
                let concls: Vec<Delegation> = proofs.iter().map(Proof::conclusion).collect();
                let subject = concls
                    .first()
                    .map(|c| c.subject.clone())
                    .unwrap_or(Principal::Conjunction(Vec::new()));
                let mut tag = Tag::Star;
                let mut validity = Validity::always();
                let mut delegable = true;
                for c in &concls {
                    tag = tag.intersect(&c.tag).unwrap_or(Tag::Set(Vec::new()));
                    validity = validity
                        .intersect(&c.validity)
                        .unwrap_or(Validity::between(Time(1), Time(0)));
                    delegable &= c.delegable;
                }
                let issuer = Principal::conjunction(concls.into_iter().map(|c| c.issuer).collect());
                Delegation {
                    subject,
                    issuer,
                    tag,
                    validity,
                    delegable,
                }
            }
            Proof::ConjProj { conjunction, index } => {
                let member = match conjunction {
                    Principal::Conjunction(items) => {
                        items.get(*index).cloned().unwrap_or(conjunction.clone())
                    }
                    _ => conjunction.clone(),
                };
                Delegation::axiom(conjunction.clone(), member)
            }
            Proof::ThresholdIntro { threshold, proofs } => {
                let subject = proofs
                    .first()
                    .map(|(_, p)| p.conclusion().subject)
                    .unwrap_or(threshold.clone());
                let mut tag = Tag::Star;
                let mut validity = Validity::always();
                let mut delegable = true;
                for (_, p) in proofs {
                    let c = p.conclusion();
                    tag = tag.intersect(&c.tag).unwrap_or(Tag::Set(Vec::new()));
                    validity = validity
                        .intersect(&c.validity)
                        .unwrap_or(Validity::between(Time(1), Time(0)));
                    delegable &= c.delegable;
                }
                Delegation {
                    subject,
                    issuer: threshold.clone(),
                    tag,
                    validity,
                    delegable,
                }
            }
            Proof::NameMono { inner, name } => {
                let c = inner.conclusion();
                Delegation {
                    subject: Principal::name(c.subject, name.clone()),
                    issuer: Principal::name(c.issuer, name.clone()),
                    ..c
                }
            }
            Proof::HashIdent {
                key,
                alg,
                hash_to_key,
            } => {
                let key_p = Principal::key(key);
                let hash_p = Principal::KeyHash(crate::cert::key_hash_with(key, *alg));
                if *hash_to_key {
                    Delegation::axiom(hash_p, key_p)
                } else {
                    Delegation::axiom(key_p, hash_p)
                }
            }
        }
    }

    /// Verifies the proof: every leaf is justified and every inference step
    /// is correctly applied.
    ///
    /// Runs in two passes: a structural walk (inference side conditions,
    /// assumption vouching, revocation, signer/issuer control — all cheap)
    /// that collects the signed-certificate leaves, then one
    /// `schnorr::verify_batch` over every distinct certificate signature.
    /// A multi-certificate chain pays roughly one multi-exponentiation
    /// instead of one full verification per certificate.
    pub fn verify(&self, ctx: &VerifyCtx) -> Result<(), ProofError> {
        let mut certs: Vec<&Certificate> = Vec::new();
        self.verify_structure(ctx, &mut certs)?;
        Self::verify_cert_signatures(&certs)
    }

    /// The structural pass of [`Proof::verify`]: everything except
    /// certificate signature verification.  Distinct certificate leaves
    /// are appended to `certs` for the caller to signature-check (batched).
    fn verify_structure<'a>(
        &'a self,
        ctx: &VerifyCtx,
        certs: &mut Vec<&'a Certificate>,
    ) -> Result<(), ProofError> {
        match self {
            Proof::SignedCert(cert) => {
                cert.check_structure().map_err(ProofError::BadCertificate)?;
                ctx.check_revocation(cert)?;
                if !certs.iter().any(|c| *c == cert.as_ref()) {
                    certs.push(cert);
                }
                Ok(())
            }
            Proof::Assumption { stmt, authority } => {
                if ctx.assumes(stmt) {
                    Ok(())
                } else {
                    Err(ProofError::UntrustedAssumption(format!(
                        "{authority}: {stmt:?} not vouched by this verifier"
                    )))
                }
            }
            Proof::Reflex(_) => Ok(()),
            Proof::Transitivity(left, right) => {
                left.verify_structure(ctx, certs)?;
                right.verify_structure(ctx, certs)?;
                let l = left.conclusion();
                let r = right.conclusion();
                if l.issuer != r.subject {
                    return Err(ProofError::BadInference(format!(
                        "transitivity gap: {} vs {}",
                        l.issuer.describe(),
                        r.subject.describe()
                    )));
                }
                if !r.delegable {
                    return Err(ProofError::BadInference(
                        "transitivity through a non-delegable statement".into(),
                    ));
                }
                if l.tag.intersect(&r.tag).is_none() {
                    return Err(ProofError::BadInference("empty tag intersection".into()));
                }
                if l.validity.intersect(&r.validity).is_none() {
                    return Err(ProofError::BadInference("disjoint validity windows".into()));
                }
                Ok(())
            }
            Proof::Weaken { inner, conclusion } => {
                inner.verify_structure(ctx, certs)?;
                let strong = inner.conclusion();
                if strong.subject != conclusion.subject || strong.issuer != conclusion.issuer {
                    return Err(ProofError::BadInference(
                        "weakening may not change principals".into(),
                    ));
                }
                if !strong.tag.implies(&conclusion.tag) {
                    return Err(ProofError::BadInference(
                        "weakened tag is not a subset".into(),
                    ));
                }
                if !conclusion.validity.within(&strong.validity) {
                    return Err(ProofError::BadInference(
                        "weakened validity is not contained".into(),
                    ));
                }
                if conclusion.delegable && !strong.delegable {
                    return Err(ProofError::BadInference(
                        "weakening cannot add delegability".into(),
                    ));
                }
                Ok(())
            }
            Proof::QuoteQuotee { inner, .. } | Proof::QuoteQuoter { inner, .. } => {
                inner.verify_structure(ctx, certs)
            }
            Proof::ConjIntro(proofs) => {
                if proofs.len() < 2 {
                    return Err(ProofError::BadInference(
                        "conjunction introduction needs ≥2 proofs".into(),
                    ));
                }
                let subject = proofs[0].conclusion().subject;
                for p in proofs {
                    p.verify_structure(ctx, certs)?;
                    if p.conclusion().subject != subject {
                        return Err(ProofError::BadInference(
                            "conjunction introduction requires a common subject".into(),
                        ));
                    }
                }
                Ok(())
            }
            Proof::ConjProj { conjunction, index } => match conjunction {
                Principal::Conjunction(items) if *index < items.len() => Ok(()),
                _ => Err(ProofError::BadInference(
                    "conjunction projection out of range".into(),
                )),
            },
            Proof::ThresholdIntro { threshold, proofs } => {
                let Principal::Threshold { k, subjects } = threshold else {
                    return Err(ProofError::BadInference(
                        "threshold introduction needs a threshold principal".into(),
                    ));
                };
                let mut seen = std::collections::HashSet::new();
                let common_subject = proofs
                    .first()
                    .map(|(_, p)| p.conclusion().subject)
                    .ok_or_else(|| ProofError::BadInference("no threshold proofs".into()))?;
                for (i, p) in proofs {
                    p.verify_structure(ctx, certs)?;
                    let c = p.conclusion();
                    if c.subject != common_subject {
                        return Err(ProofError::BadInference(
                            "threshold proofs require a common subject".into(),
                        ));
                    }
                    let target = subjects.get(*i).ok_or_else(|| {
                        ProofError::BadInference("threshold index out of range".into())
                    })?;
                    if &c.issuer != target {
                        return Err(ProofError::BadInference(format!(
                            "threshold proof {i} concludes for {} not {}",
                            c.issuer.describe(),
                            target.describe()
                        )));
                    }
                    seen.insert(*i);
                }
                if seen.len() < *k {
                    return Err(ProofError::BadInference(format!(
                        "threshold needs {k} distinct subjects, got {}",
                        seen.len()
                    )));
                }
                Ok(())
            }
            Proof::NameMono { inner, .. } => inner.verify_structure(ctx, certs),
            Proof::HashIdent { key, alg, .. } => {
                // The hash is recomputed in `conclusion()`; nothing can be
                // forged here, but check the digest length invariant anyway.
                let h = crate::cert::key_hash_with(key, *alg);
                if h.bytes.len() != alg.digest_len() {
                    return Err(ProofError::BadInference("hash length mismatch".into()));
                }
                Ok(())
            }
        }
    }

    /// The signature pass of [`Proof::verify`]: checks every collected
    /// certificate's Schnorr signature, batched into one random-linear-
    /// combination multi-exponentiation when the chain holds several.
    /// On batch failure the individual fallback inside `verify_batch`
    /// pinpoints the culprits, so the error names the first bad leaf.
    fn verify_cert_signatures(certs: &[&Certificate]) -> Result<(), ProofError> {
        match certs {
            [] => Ok(()),
            [cert] => {
                if cert.signer.verify(&cert.signed_bytes(), &cert.signature) {
                    Ok(())
                } else {
                    Err(ProofError::BadCertificate(
                        "signature verification failed".into(),
                    ))
                }
            }
            certs => {
                let messages: Vec<Vec<u8>> = certs.iter().map(|c| c.signed_bytes()).collect();
                let entries: Vec<BatchEntry<'_>> = certs
                    .iter()
                    .zip(&messages)
                    .map(|(c, m)| BatchEntry {
                        key: &c.signer,
                        message: m,
                        sig: &c.signature,
                    })
                    .collect();
                match verify_batch(&entries) {
                    BatchOutcome::AllValid => Ok(()),
                    BatchOutcome::Invalid(bad) => {
                        let which = bad
                            .iter()
                            .map(|&i| format!("{:?}", certs[i].delegation))
                            .collect::<Vec<_>>()
                            .join("; ");
                        Err(ProofError::BadCertificate(format!(
                            "signature verification failed for: {which}"
                        )))
                    }
                }
            }
        }
    }

    /// Verifies and then checks that the conclusion authorizes `speaker` to
    /// perform `request` on behalf of `issuer` at time `now`.
    ///
    /// "The step of matching a request to a proof automatically disregards
    /// expired conclusions."
    #[allow(
        clippy::disallowed_methods,
        reason = "the unmemoized reference `VerifyCtx::authorize` is proven against"
    )]
    pub fn authorizes(
        &self,
        speaker: &Principal,
        issuer: &Principal,
        request: &Tag,
        ctx: &VerifyCtx,
    ) -> Result<(), ProofError> {
        self.verify(ctx)?;
        self.check_conclusion(speaker, issuer, request, ctx.now)
    }

    /// The conclusion-matching half of [`Proof::authorizes`]: purely
    /// structural (no signature work), so `VerifyCtx::authorize` re-runs
    /// it on every request even when the chain verification itself was a
    /// memo hit — expiry of the *conclusion* is never cached.
    pub fn check_conclusion(
        &self,
        speaker: &Principal,
        issuer: &Principal,
        request: &Tag,
        now: Time,
    ) -> Result<(), ProofError> {
        let c = self.conclusion();
        if &c.subject != speaker {
            return Err(ProofError::NotAuthorizing(format!(
                "proof subject {} is not the speaker {}",
                c.subject.describe(),
                speaker.describe()
            )));
        }
        if &c.issuer != issuer {
            return Err(ProofError::NotAuthorizing(format!(
                "proof issuer {} is not the resource issuer {}",
                c.issuer.describe(),
                issuer.describe()
            )));
        }
        if !c.tag.permits(request) {
            return Err(ProofError::NotAuthorizing(format!(
                "restriction {:?} does not permit request {:?}",
                c.tag, request
            )));
        }
        if !c.validity.contains(now) {
            return Err(ProofError::NotAuthorizing("conclusion expired".into()));
        }
        Ok(())
    }

    /// Enumerates all subproofs (lemmas), outermost first.
    ///
    /// "It is simple to extract lemmas (subproofs) from structured proofs,
    /// allowing the prover to digest proofs into reusable components."
    pub fn lemmas(&self) -> Vec<&Proof> {
        let mut out = Vec::new();
        self.collect_lemmas(&mut out);
        out
    }

    fn collect_lemmas<'a>(&'a self, out: &mut Vec<&'a Proof>) {
        out.push(self);
        match self {
            Proof::Transitivity(l, r) => {
                l.collect_lemmas(out);
                r.collect_lemmas(out);
            }
            Proof::Weaken { inner, .. }
            | Proof::QuoteQuotee { inner, .. }
            | Proof::QuoteQuoter { inner, .. }
            | Proof::NameMono { inner, .. } => inner.collect_lemmas(out),
            Proof::ConjIntro(ps) => {
                for p in ps {
                    p.collect_lemmas(out);
                }
            }
            Proof::ThresholdIntro { proofs, .. } => {
                for (_, p) in proofs {
                    p.collect_lemmas(out);
                }
            }
            Proof::SignedCert(_)
            | Proof::Assumption { .. }
            | Proof::Reflex(_)
            | Proof::ConjProj { .. }
            | Proof::HashIdent { .. } => {}
        }
    }

    /// The number of nodes in the proof tree.
    pub fn size(&self) -> usize {
        self.lemmas().len()
    }

    /// The hashes of every signed certificate this proof depends on
    /// (deduplicated) — the proof's *revocation provenance*.
    ///
    /// Caches that retain conclusions derived from a proof (prover shortcut
    /// edges, MAC sessions, verified-request entries, RMI proof caches)
    /// record these hashes so that revoking one certificate can evict
    /// exactly the state that depended on it.
    pub fn cert_hashes(&self) -> Vec<HashVal> {
        let mut out = Vec::new();
        for lemma in self.lemmas() {
            if let Proof::SignedCert(cert) = lemma {
                let h = cert.hash();
                if !out.contains(&h) {
                    out.push(h);
                }
            }
        }
        out
    }

    /// Renders an indented, human-readable audit trail of the proof.
    pub fn audit_trail(&self) -> String {
        let mut s = String::new();
        self.render_audit(&mut s, 0);
        s
    }

    fn rule_name(&self) -> &'static str {
        match self {
            Proof::SignedCert(_) => "signed-certificate",
            Proof::Assumption { .. } => "assumption",
            Proof::Reflex(_) => "reflexivity",
            Proof::Transitivity(_, _) => "transitivity",
            Proof::Weaken { .. } => "weakening",
            Proof::QuoteQuotee { .. } => "quote-monotonicity(quotee)",
            Proof::QuoteQuoter { .. } => "quote-monotonicity(quoter)",
            Proof::ConjIntro(_) => "conjunction-introduction",
            Proof::ConjProj { .. } => "conjunction-projection",
            Proof::ThresholdIntro { .. } => "threshold-introduction",
            Proof::NameMono { .. } => "name-monotonicity",
            Proof::HashIdent { .. } => "hash-identity",
        }
    }

    fn render_audit(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let c = self.conclusion();
        out.push_str(&format!(
            "{}: {} ⇒ {}",
            self.rule_name(),
            c.subject.describe(),
            c.issuer.describe()
        ));
        if let Proof::Assumption { authority, .. } = self {
            out.push_str(&format!(" [vouched by {authority}]"));
        }
        out.push('\n');
        match self {
            Proof::Transitivity(l, r) => {
                l.render_audit(out, depth + 1);
                r.render_audit(out, depth + 1);
            }
            Proof::Weaken { inner, .. }
            | Proof::QuoteQuotee { inner, .. }
            | Proof::QuoteQuoter { inner, .. }
            | Proof::NameMono { inner, .. } => inner.render_audit(out, depth + 1),
            Proof::ConjIntro(ps) => {
                for p in ps {
                    p.render_audit(out, depth + 1);
                }
            }
            Proof::ThresholdIntro { proofs, .. } => {
                for (_, p) in proofs {
                    p.render_audit(out, depth + 1);
                }
            }
            _ => {}
        }
    }

    /// Serializes the proof tree to an S-expression.
    pub fn to_sexp(&self) -> Sexp {
        match self {
            Proof::SignedCert(cert) => cert.to_sexp(),
            Proof::Assumption { stmt, authority } => Sexp::tagged(
                "assumption",
                vec![Sexp::from(authority.as_str()), stmt.to_sexp()],
            ),
            Proof::Reflex(p) => Sexp::tagged("reflex", vec![p.to_sexp()]),
            Proof::Transitivity(l, r) => {
                Sexp::tagged("transitivity", vec![l.to_sexp(), r.to_sexp()])
            }
            Proof::Weaken { inner, conclusion } => {
                Sexp::tagged("weaken", vec![inner.to_sexp(), conclusion.to_sexp()])
            }
            Proof::QuoteQuotee { inner, quoter } => {
                Sexp::tagged("quote-quotee", vec![quoter.to_sexp(), inner.to_sexp()])
            }
            Proof::QuoteQuoter { inner, quotee } => {
                Sexp::tagged("quote-quoter", vec![quotee.to_sexp(), inner.to_sexp()])
            }
            Proof::ConjIntro(ps) => {
                Sexp::tagged("conj-intro", ps.iter().map(Proof::to_sexp).collect())
            }
            Proof::ConjProj { conjunction, index } => Sexp::tagged(
                "conj-proj",
                vec![conjunction.to_sexp(), Sexp::int(*index as u64)],
            ),
            Proof::ThresholdIntro { threshold, proofs } => {
                let mut body = vec![threshold.to_sexp()];
                for (i, p) in proofs {
                    body.push(Sexp::list(vec![Sexp::int(*i as u64), p.to_sexp()]));
                }
                Sexp::tagged("threshold-intro", body)
            }
            Proof::NameMono { inner, name } => Sexp::tagged(
                "name-mono",
                vec![Sexp::from(name.as_str()), inner.to_sexp()],
            ),
            Proof::HashIdent {
                key,
                alg,
                hash_to_key,
            } => Sexp::tagged(
                "hash-ident",
                vec![
                    key.to_sexp(),
                    Sexp::from(alg.name()),
                    Sexp::from(if *hash_to_key {
                        "hash-to-key"
                    } else {
                        "key-to-hash"
                    }),
                ],
            ),
        }
    }

    /// Parses the form produced by [`Proof::to_sexp`].
    pub fn from_sexp(e: &Sexp) -> Result<Proof, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        let body = e.tag_body().unwrap_or(&[]);
        match e.tag_name() {
            Some("signed-cert") => Ok(Proof::SignedCert(Box::new(Certificate::from_sexp(e)?))),
            Some("assumption") => {
                if body.len() != 2 {
                    return Err(bad("assumption takes authority + stmt"));
                }
                let authority = body[0]
                    .as_str()
                    .ok_or_else(|| bad("authority"))?
                    .to_string();
                let stmt = Delegation::from_sexp(&body[1])?;
                Ok(Proof::Assumption { stmt, authority })
            }
            Some("reflex") => {
                let p = body.first().ok_or_else(|| bad("reflex principal"))?;
                Ok(Proof::Reflex(Principal::from_sexp(p)?))
            }
            Some("transitivity") => {
                if body.len() != 2 {
                    return Err(bad("transitivity takes two proofs"));
                }
                Ok(Proof::Transitivity(
                    Box::new(Proof::from_sexp(&body[0])?),
                    Box::new(Proof::from_sexp(&body[1])?),
                ))
            }
            Some("weaken") => {
                if body.len() != 2 {
                    return Err(bad("weaken takes proof + conclusion"));
                }
                Ok(Proof::Weaken {
                    inner: Box::new(Proof::from_sexp(&body[0])?),
                    conclusion: Delegation::from_sexp(&body[1])?,
                })
            }
            Some("quote-quotee") => {
                if body.len() != 2 {
                    return Err(bad("quote-quotee takes quoter + proof"));
                }
                Ok(Proof::QuoteQuotee {
                    quoter: Principal::from_sexp(&body[0])?,
                    inner: Box::new(Proof::from_sexp(&body[1])?),
                })
            }
            Some("quote-quoter") => {
                if body.len() != 2 {
                    return Err(bad("quote-quoter takes quotee + proof"));
                }
                Ok(Proof::QuoteQuoter {
                    quotee: Principal::from_sexp(&body[0])?,
                    inner: Box::new(Proof::from_sexp(&body[1])?),
                })
            }
            Some("conj-intro") => {
                let ps: Result<Vec<Proof>, ParseError> =
                    body.iter().map(Proof::from_sexp).collect();
                Ok(Proof::ConjIntro(ps?))
            }
            Some("conj-proj") => {
                if body.len() != 2 {
                    return Err(bad("conj-proj takes conjunction + index"));
                }
                Ok(Proof::ConjProj {
                    conjunction: Principal::from_sexp(&body[0])?,
                    index: body[1].as_u64().ok_or_else(|| bad("index"))? as usize,
                })
            }
            Some("threshold-intro") => {
                let threshold =
                    Principal::from_sexp(body.first().ok_or_else(|| bad("threshold"))?)?;
                let mut proofs = Vec::new();
                for pair in &body[1..] {
                    let items = pair.as_list().ok_or_else(|| bad("threshold pair"))?;
                    if items.len() != 2 {
                        return Err(bad("threshold pair arity"));
                    }
                    let i = items[0].as_u64().ok_or_else(|| bad("threshold index"))? as usize;
                    proofs.push((i, Proof::from_sexp(&items[1])?));
                }
                Ok(Proof::ThresholdIntro { threshold, proofs })
            }
            Some("name-mono") => {
                if body.len() != 2 {
                    return Err(bad("name-mono takes name + proof"));
                }
                Ok(Proof::NameMono {
                    name: body[0].as_str().ok_or_else(|| bad("name"))?.to_string(),
                    inner: Box::new(Proof::from_sexp(&body[1])?),
                })
            }
            Some("hash-ident") => {
                if body.len() != 3 {
                    return Err(bad("hash-ident takes key + alg + direction"));
                }
                let key = PublicKey::from_sexp(&body[0])?;
                let alg = body[1]
                    .as_str()
                    .and_then(HashAlg::from_name)
                    .ok_or_else(|| bad("alg"))?;
                let hash_to_key = match body[2].as_str() {
                    Some("hash-to-key") => true,
                    Some("key-to-hash") => false,
                    _ => return Err(bad("direction")),
                };
                Ok(Proof::HashIdent {
                    key: Box::new(key),
                    alg,
                    hash_to_key,
                })
            }
            _ => Err(bad("unknown proof form")),
        }
    }

    /// The hash of the canonical proof encoding (cache keys etc.).
    pub fn hash(&self) -> HashVal {
        HashVal::of_sexp(&self.to_sexp())
    }
}

impl fmt::Debug for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Proof[{} ⊢ {:?}]", self.rule_name(), self.conclusion())
    }
}
