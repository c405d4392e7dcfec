//! The verifier's local trusted state.
//!
//! Proofs arrive from untrusted parties; what makes verification meaningful
//! is the verifier's own knowledge: the current time, which live channels it
//! has itself authenticated, which local identities its in-process broker
//! vouches for, and what revocation data it holds.  [`VerifyCtx`] carries
//! exactly that knowledge, keeping the proof-checking engine minimal — the
//! paper's "minimal verification engine" design goal.
//!
//! Revocation data reaches the context one way: an attached
//! [`RevocationSource`] — a verifier-side freshness agent, or a
//! [`RevocationTable`] of hand-installed lists.  Sources answer from local
//! state only — a freshness agent refreshes its cache *outside* the verify
//! path, so proof checking never blocks on a network fetch.

use crate::cert::Certificate;
use crate::memo::ChainMemo;
use crate::principal::Principal;
use crate::proof::{Proof, ProofError};
use crate::revocation::{Crl, Revalidation, RevocationPolicy, RevocationTable};
use crate::statement::{Delegation, Time, Validity};
use snowflake_crypto::HashVal;
use snowflake_tags::Tag;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A cache-backed supplier of revocation artifacts.
///
/// Implementations must answer **without blocking on I/O**: they return
/// whatever current artifact they already hold (a freshness agent keeps
/// that cache warm from its own refresh loop and push subscriptions).
/// Returned artifacts are still fully re-checked — signature, signer
/// identity, currency — by [`VerifyCtx::check_revocation`], so a buggy or
/// hostile source can cause spurious denials but never spurious approvals.
pub trait RevocationSource: Send + Sync {
    /// The current CRL from the validator with this key hash, if one is
    /// cached and valid at `now`.  Returned behind an `Arc` so the hot
    /// path shares the cached list (and its built-once membership index)
    /// instead of cloning it per verification.
    fn crl(&self, validator: &HashVal, now: Time) -> Option<Arc<Crl>>;

    /// A current revalidation of the certificate with this hash, if one is
    /// cached and valid at `now`.
    fn revalidation(&self, cert_hash: &HashVal, now: Time) -> Option<Revalidation>;

    /// The revocation epoch: the highest CRL serial this source holds
    /// (0 when it holds none).  Audit records carry it, and the memo
    /// fingerprint folds it.
    fn epoch(&self) -> u64;
}

/// Trusted local state used while verifying proofs.
#[derive(Clone)]
pub struct VerifyCtx {
    /// The verification time (conclusions must be valid at this instant).
    pub now: Time,
    /// Assumption statements this verifier's own machinery vouches for
    /// (channel bindings, utterances witnessed on channels, local-broker
    /// vouchers, MAC-session bindings).
    assumptions: HashSet<HashVal>,
    /// Where every revocation artifact comes from; an empty
    /// [`RevocationTable`] until one is attached.
    revocation: Arc<dyn RevocationSource>,
    /// Verified-chain memo consulted by [`VerifyCtx::verify_cached`];
    /// absent, every verification runs cold.
    memo: Option<Arc<ChainMemo>>,
}

impl Default for VerifyCtx {
    fn default() -> VerifyCtx {
        static EMPTY: OnceLock<Arc<RevocationTable>> = OnceLock::new();
        VerifyCtx {
            now: Time::default(),
            assumptions: HashSet::new(),
            revocation: EMPTY.get_or_init(Default::default).clone(),
            memo: None,
        }
    }
}

impl fmt::Debug for VerifyCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyCtx")
            .field("now", &self.now)
            .field("assumptions", &self.assumptions.len())
            .field("revocation_epoch", &self.revocation_epoch())
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

impl Default for Time {
    fn default() -> Self {
        Time(0)
    }
}

impl VerifyCtx {
    /// An empty context at time `now` (no assumptions, no revocation data).
    pub fn at(now: Time) -> VerifyCtx {
        VerifyCtx {
            now,
            ..Default::default()
        }
    }

    /// An empty context at the current wall-clock time.
    pub fn now() -> VerifyCtx {
        Self::at(Time::now())
    }

    /// Records that this verifier's own machinery vouches for `stmt`.
    ///
    /// Channel layers call this when a handshake binds a channel to a peer
    /// key, when a message is witnessed emanating from a channel, or when a
    /// local broker vouches an identity.
    pub fn assume(&mut self, stmt: &Delegation) {
        self.assumptions.insert(stmt.hash());
    }

    /// Does this verifier vouch for `stmt`?
    pub fn assumes(&self, stmt: &Delegation) -> bool {
        self.assumptions.contains(&stmt.hash())
    }

    /// Attaches the revocation source (a freshness agent, or a
    /// [`RevocationTable`]), replacing any previous one.
    pub fn set_revocation_source(&mut self, source: Arc<dyn RevocationSource>) {
        self.revocation = source;
    }

    /// Builder form of [`VerifyCtx::set_revocation_source`].
    pub fn with_revocation_source(mut self, source: Arc<dyn RevocationSource>) -> VerifyCtx {
        self.set_revocation_source(source);
        self
    }

    /// The attached revocation source.
    pub fn revocation_source(&self) -> &Arc<dyn RevocationSource> {
        &self.revocation
    }

    /// Enforces a certificate's revocation policy, if any.
    pub fn check_revocation(&self, cert: &Certificate) -> Result<(), ProofError> {
        let Some(policy) = &cert.revocation else {
            return Ok(());
        };
        match policy {
            RevocationPolicy::Crl { validator } => {
                let Some(crl) = self.revocation.crl(validator, self.now) else {
                    return Err(ProofError::Revoked(
                        "no current CRL from required validator".into(),
                    ));
                };
                crl.check(validator, self.now)
                    .map_err(ProofError::Revoked)?;
                if crl.revokes(&cert.hash()) {
                    return Err(ProofError::Revoked("certificate is on the CRL".into()));
                }
                Ok(())
            }
            RevocationPolicy::Revalidate { validator } => {
                let hash = cert.hash();
                let Some(reval) = self.revocation.revalidation(&hash, self.now) else {
                    return Err(ProofError::Revoked(
                        "no current revalidation for certificate".into(),
                    ));
                };
                reval
                    .check(validator, &hash, self.now)
                    .map_err(ProofError::Revoked)?;
                Ok(())
            }
        }
    }

    /// Attaches a verified-chain memo (shared across contexts/threads).
    pub fn set_chain_memo(&mut self, memo: Arc<ChainMemo>) {
        self.memo = Some(memo);
    }

    /// Builder form of [`VerifyCtx::set_chain_memo`].
    pub fn with_chain_memo(mut self, memo: Arc<ChainMemo>) -> VerifyCtx {
        self.set_chain_memo(memo);
        self
    }

    /// The attached verified-chain memo, if any.
    pub fn chain_memo(&self) -> Option<&Arc<ChainMemo>> {
        self.memo.as_ref()
    }

    /// Verifies `proof`, answering from the attached [`ChainMemo`] when a
    /// prior successful verification of the same chain under the same
    /// revocation/assumption state is still valid.  Semantically identical
    /// to [`Proof::verify`] — only successes are memoized, and the memo
    /// key pins everything the cold path would consult (see
    /// [`VerifyCtx::memo_fingerprint`]).
    ///
    /// On success returns the proof's certificate provenance
    /// ([`Proof::cert_hashes`]): on a hit, the memo slot's own `Arc`; on a
    /// miss, computed once and shared with the slot just recorded.
    #[allow(
        clippy::disallowed_methods,
        reason = "the memo's own cold path: the one sanctioned caller of `Proof::verify`"
    )]
    pub fn verify_cached(&self, proof: &Proof) -> Result<Arc<[HashVal]>, ProofError> {
        let Some(memo) = &self.memo else {
            proof.verify(self)?;
            return Ok(proof.cert_hashes().into());
        };
        let (fingerprint, valid_until) = self.memo_fingerprint(proof);
        let proof_hash = proof.hash();
        if let Some(certs) = memo.lookup(&proof_hash, &fingerprint, self.now) {
            return Ok(certs);
        }
        let token = memo.epoch();
        proof.verify(self)?;
        let certs: Arc<[HashVal]> = proof.cert_hashes().into();
        memo.record(
            token,
            &proof_hash,
            &fingerprint,
            self.now,
            valid_until,
            Arc::clone(&certs),
        );
        Ok(certs)
    }

    /// The memoized entry point server surfaces use: verifies `proof`
    /// (via the memo when one is attached) and then always re-checks the
    /// conclusion against the request — subject, issuer, tag, and expiry
    /// are never answered from the cache.  On success returns the
    /// proof's certificate provenance (see [`VerifyCtx::verify_cached`]),
    /// which callers record and audit instead of re-hashing the chain.
    pub fn authorize(
        &self,
        proof: &Proof,
        speaker: &Principal,
        issuer: &Principal,
        request: &Tag,
    ) -> Result<Arc<[HashVal]>, ProofError> {
        let certs = self.verify_cached(proof)?;
        proof.check_conclusion(speaker, issuer, request, self.now)?;
        Ok(certs)
    }

    /// Fingerprints everything [`Proof::verify`] would consult from this
    /// context for `proof`, plus a conservative `valid_until`.
    ///
    /// The fingerprint folds the revocation epoch, each assumption leaf's
    /// vouched/unvouched bit, and for each signed-certificate leaf its
    /// revocation-policy tag, its validator, and the **content hash**
    /// (the full signed wire bytes — body, signer, and signature) of the
    /// revocation artifact [`VerifyCtx::check_revocation`] would resolve
    /// — by the *same* query to the attached source, so fingerprint and
    /// cold path agree about which artifact governs (an attached
    /// [`RevocationTable`] never changes under them).  Hashing the
    /// artifact's *content*, not its
    /// (signer, serial, window) identity, is load-bearing: a validator
    /// that reissues a different revoked-set under a reused serial and
    /// window (or a source that swaps a same-serial list) must change the
    /// fingerprint, or a memo hit would keep answering for the old list
    /// while the cold path enforces the new one.  `valid_until` is the
    /// minimum validity end of every consulted artifact: past it, a
    /// then-current artifact may have lapsed (and the cold path would
    /// fail), so a memo hit must not outlive it.  Certificate-conclusion expiry needs no folding —
    /// `Proof::verify` is time-dependent only through artifact currency,
    /// and conclusion expiry is re-checked on every request by
    /// [`Proof::check_conclusion`].
    ///
    /// Certificate hashes are *not* folded, except for a `Revalidate`
    /// leaf, whose hash names the artifact to resolve: the fingerprint is
    /// only ever compared alongside the proof hash, which already pins
    /// every certificate (see the `memo` module docs).  A memo hit on a
    /// chain without revalidation leaves therefore hashes no certificate.
    pub fn memo_fingerprint(&self, proof: &Proof) -> (HashVal, Option<Time>) {
        fn min_end(valid_until: &mut Option<Time>, v: &Validity) {
            if let Some(end) = v.not_after {
                *valid_until = Some(match *valid_until {
                    Some(cur) if cur <= end => cur,
                    _ => end,
                });
            }
        }
        let mut buf = Vec::new();
        let mut valid_until: Option<Time> = None;
        buf.extend_from_slice(&self.revocation_epoch().to_be_bytes());
        for lemma in proof.lemmas() {
            match lemma {
                Proof::Assumption { stmt, .. } => {
                    let hash = stmt.hash();
                    buf.push(b'A');
                    buf.extend_from_slice(&hash.bytes);
                    buf.push(self.assumptions.contains(&hash) as u8);
                }
                Proof::SignedCert(cert) => match &cert.revocation {
                    None => buf.push(b'-'),
                    Some(RevocationPolicy::Crl { validator }) => {
                        buf.push(b'L');
                        buf.extend_from_slice(&validator.bytes);
                        match self.revocation.crl(validator, self.now) {
                            Some(crl) => {
                                buf.extend_from_slice(&crl.content_hash().bytes);
                                min_end(&mut valid_until, &crl.validity);
                            }
                            None => buf.push(b'?'),
                        }
                    }
                    Some(RevocationPolicy::Revalidate { validator }) => {
                        buf.push(b'R');
                        buf.extend_from_slice(&validator.bytes);
                        let hash = cert.hash();
                        buf.extend_from_slice(&hash.bytes);
                        match self.revocation.revalidation(&hash, self.now) {
                            Some(reval) => {
                                buf.extend_from_slice(&reval.content_hash().bytes);
                                min_end(&mut valid_until, &reval.validity);
                            }
                            None => buf.push(b'?'),
                        }
                    }
                },
                _ => {}
            }
        }
        (HashVal::of(&buf), valid_until)
    }

    /// Number of assumption statements currently vouched.
    pub fn assumption_count(&self) -> usize {
        self.assumptions.len()
    }

    /// The revocation epoch this verifier decides against: the highest
    /// CRL serial its source holds ([`RevocationSource::epoch`]).  Audit
    /// records carry this so a historical decision can be matched to the
    /// revocation state it was made against.
    pub fn revocation_epoch(&self) -> u64 {
        self.revocation.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::HASHES;
    use snowflake_crypto::{DetRng, Group, KeyPair};

    fn hashes_during(f: impl FnOnce()) -> u64 {
        let before = HASHES.with(|n| n.get());
        f();
        HASHES.with(|n| n.get()) - before
    }

    /// A memo hit hashes no certificate except a `Revalidate` leaf's,
    /// whose hash names the artifact the fingerprint must resolve — and
    /// still hands back the chain's full provenance.
    #[test]
    fn memo_hit_hashes_only_revalidation_leaves() {
        let mut rng = DetRng::new(b"memo-hit-hashes");
        let mut r = move |b: &mut [u8]| rng.fill(b);
        let [alice, bob, carol, validator] =
            [(); 4].map(|()| KeyPair::generate(Group::test512(), &mut r));
        let deleg = |subject: &KeyPair, issuer: &KeyPair| Delegation {
            subject: Principal::key(&subject.public),
            issuer: Principal::key(&issuer.public),
            tag: Tag::Star,
            validity: Validity::until(Time(10_000)),
            delegable: true,
        };
        let window = Validity::until(Time(10_000));
        let validator_hash = validator.public.hash();
        let crl_policy = RevocationPolicy::Crl {
            validator: validator_hash.clone(),
        };
        let reval_policy = RevocationPolicy::Revalidate {
            validator: validator_hash,
        };
        let plain = Certificate::issue(&bob, deleg(&carol, &bob), &mut r);
        let on_crl =
            Certificate::issue_with_revocation(&alice, deleg(&bob, &alice), Some(crl_policy), &mut r);
        let revalidated =
            Certificate::issue_with_revocation(&alice, deleg(&bob, &alice), Some(reval_policy), &mut r);

        let table = RevocationTable::of(
            Crl::issue(&validator, vec![], window, &mut r),
            Revalidation::issue(&validator, revalidated.hash(), window, &mut r),
        );
        let ctx = VerifyCtx::at(Time(100))
            .with_chain_memo(Arc::new(ChainMemo::new(64)))
            .with_revocation_source(Arc::new(table));
        let (speaker, issuer) = (Principal::key(&carol.public), Principal::key(&alice.public));

        for (top, revalidation_leaves) in [(on_crl, 0), (revalidated, 1)] {
            let proof = Proof::signed_cert(plain.clone()).then(Proof::signed_cert(top));
            ctx.authorize(&proof, &speaker, &issuer, &Tag::Star).expect("cold");
            let mut certs = None;
            let hashed = hashes_during(|| {
                certs = Some(ctx.authorize(&proof, &speaker, &issuer, &Tag::Star).expect("hit"));
            });
            assert_eq!(hashed, revalidation_leaves, "certificate hashes on a memo hit");
            assert_eq!(certs.unwrap()[..], proof.cert_hashes()[..]);
        }
        assert_eq!(ctx.chain_memo().unwrap().stats().hits, 2);
    }
}
