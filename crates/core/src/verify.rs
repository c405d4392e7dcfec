//! The verifier's local trusted state.
//!
//! Proofs arrive from untrusted parties; what makes verification meaningful
//! is the verifier's own knowledge: the current time, which live channels it
//! has itself authenticated, which local identities its in-process broker
//! vouches for, and what revocation data it holds.  [`VerifyCtx`] carries
//! exactly that knowledge, keeping the proof-checking engine minimal — the
//! paper's "minimal verification engine" design goal.
//!
//! Revocation data reaches the context two ways: artifacts can be
//! *installed* directly ([`VerifyCtx::install_crl`],
//! [`VerifyCtx::install_revalidation`]), or a pluggable
//! [`RevocationSource`] can be attached whose cache the context consults on
//! demand.  Sources answer from local state only — a verifier-side
//! freshness agent refreshes them *outside* the verify path, so proof
//! checking never blocks on a network fetch.

use crate::cert::Certificate;
use crate::memo::ChainMemo;
use crate::principal::Principal;
use crate::proof::{Proof, ProofError};
use crate::revocation::{Crl, Revalidation, RevocationPolicy};
use crate::statement::{Delegation, Time, Validity};
use snowflake_crypto::HashVal;
use snowflake_tags::Tag;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

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
}

/// Trusted local state used while verifying proofs.
#[derive(Default, Clone)]
pub struct VerifyCtx {
    /// The verification time (conclusions must be valid at this instant).
    pub now: Time,
    /// Assumption statements this verifier's own machinery vouches for
    /// (channel bindings, utterances witnessed on channels, local-broker
    /// vouchers, MAC-session bindings).
    assumptions: HashSet<HashVal>,
    /// Current CRLs, keyed by validator key hash.
    crls: HashMap<HashVal, Crl>,
    /// Current revalidations, keyed by certificate hash.
    revalidations: HashMap<HashVal, Revalidation>,
    /// Pluggable supplier consulted when no (current) artifact is installed.
    source: Option<Arc<dyn RevocationSource>>,
    /// Verified-chain memo consulted by [`VerifyCtx::verify_cached`];
    /// absent, every verification runs cold.
    memo: Option<Arc<ChainMemo>>,
}

/// A resolved CRL: either borrowed from the context's installed map or
/// shared out of a [`RevocationSource`] cache.  One resolution routine
/// feeds *both* [`VerifyCtx::check_revocation`] and the memo fingerprint,
/// so the artifact the fingerprint names is exactly the artifact the cold
/// path would consult — any divergence there would let a memo hit answer
/// for a different revocation state than a cold verify.
enum CrlRef<'a> {
    Installed(&'a Crl),
    Fetched(Arc<Crl>),
}

impl CrlRef<'_> {
    fn get(&self) -> &Crl {
        match self {
            CrlRef::Installed(c) => c,
            CrlRef::Fetched(c) => c,
        }
    }
}

/// A resolved revalidation (see [`CrlRef`]).
enum RevalRef<'a> {
    Installed(&'a Revalidation),
    Fetched(Revalidation),
}

impl RevalRef<'_> {
    fn get(&self) -> &Revalidation {
        match self {
            RevalRef::Installed(r) => r,
            RevalRef::Fetched(r) => r,
        }
    }
}

impl fmt::Debug for VerifyCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyCtx")
            .field("now", &self.now)
            .field("assumptions", &self.assumptions.len())
            .field("crls", &self.crls.len())
            .field("revalidations", &self.revalidations.len())
            .field("source", &self.source.is_some())
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

    /// Installs a CRL (replacing any previous list from the same validator).
    pub fn install_crl(&mut self, crl: Crl) {
        self.crls.insert(crl.signer.hash(), crl);
    }

    /// Installs a revalidation.
    pub fn install_revalidation(&mut self, r: Revalidation) {
        self.revalidations.insert(r.cert_hash.clone(), r);
    }

    /// Attaches a pluggable revocation source (e.g. a freshness agent)
    /// consulted when no current artifact is installed directly.
    pub fn set_revocation_source(&mut self, source: Arc<dyn RevocationSource>) {
        self.source = Some(source);
    }

    /// Builder form of [`VerifyCtx::set_revocation_source`].
    pub fn with_revocation_source(mut self, source: Arc<dyn RevocationSource>) -> VerifyCtx {
        self.set_revocation_source(source);
        self
    }

    /// Resolves which CRL from `validator` governs verification right now.
    ///
    /// Between a directly installed, still-current list and one the
    /// pluggable source holds, the *newer* (higher-serial) list wins: a
    /// pushed revocation must not be shadowed by a hand-installed list
    /// that happens to still be inside its window.  A stale installed
    /// list only surfaces when nothing current exists (its currency check
    /// will then fail downstream with an error naming currency, not
    /// absence).  Shared by [`VerifyCtx::check_revocation`] and the memo
    /// fingerprint — see [`CrlRef`].
    fn resolve_crl(&self, validator: &HashVal) -> Option<CrlRef<'_>> {
        let installed = self.crls.get(validator);
        let fetched = self
            .source
            .as_ref()
            .and_then(|s| s.crl(validator, self.now));
        let installed_current = installed.filter(|c| c.validity.contains(self.now));
        let fetched_current = fetched
            .clone()
            .filter(|c| c.validity.contains(self.now));
        match (installed_current, fetched_current) {
            (Some(i), Some(f)) => Some(if f.serial > i.serial {
                CrlRef::Fetched(f)
            } else {
                CrlRef::Installed(i)
            }),
            (Some(i), None) => Some(CrlRef::Installed(i)),
            (None, Some(f)) => Some(CrlRef::Fetched(f)),
            (None, None) => installed.map(CrlRef::Installed),
        }
    }

    /// Resolves which revalidation of the certificate hashed `hash`
    /// governs verification right now (installed-and-current first, then
    /// the source, then a stale installed one for its currency error).
    fn resolve_revalidation(&self, hash: &HashVal) -> Option<RevalRef<'_>> {
        let installed = self.revalidations.get(hash);
        if let Some(r) = installed.filter(|r| r.validity.contains(self.now)) {
            return Some(RevalRef::Installed(r));
        }
        if let Some(f) = self
            .source
            .as_ref()
            .and_then(|s| s.revalidation(hash, self.now))
        {
            return Some(RevalRef::Fetched(f));
        }
        installed.map(RevalRef::Installed)
    }

    /// Enforces a certificate's revocation policy, if any.
    pub fn check_revocation(&self, cert: &Certificate) -> Result<(), ProofError> {
        let Some(policy) = &cert.revocation else {
            return Ok(());
        };
        match policy {
            RevocationPolicy::Crl { validator } => {
                let Some(resolved) = self.resolve_crl(validator) else {
                    return Err(ProofError::Revoked(
                        "no current CRL from required validator".into(),
                    ));
                };
                let crl = resolved.get();
                crl.check(validator, self.now)
                    .map_err(ProofError::Revoked)?;
                if crl.revokes(&cert.hash()) {
                    return Err(ProofError::Revoked("certificate is on the CRL".into()));
                }
                Ok(())
            }
            RevocationPolicy::Revalidate { validator } => {
                let hash = cert.hash();
                let Some(resolved) = self.resolve_revalidation(&hash) else {
                    return Err(ProofError::Revoked(
                        "no current revalidation for certificate".into(),
                    ));
                };
                resolved
                    .get()
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
    #[allow(
        clippy::disallowed_methods,
        reason = "the memo's own cold path: the one sanctioned caller of `Proof::verify`"
    )]
    pub fn verify_cached(&self, proof: &Proof) -> Result<(), ProofError> {
        let Some(memo) = &self.memo else {
            return proof.verify(self);
        };
        let (fingerprint, valid_until) = self.memo_fingerprint(proof);
        let proof_hash = proof.hash();
        if memo.lookup(&proof_hash, &fingerprint, self.now) {
            return Ok(());
        }
        let token = memo.epoch();
        proof.verify(self)?;
        memo.record(
            token,
            &proof_hash,
            &fingerprint,
            self.now,
            valid_until,
            proof.cert_hashes(),
        );
        Ok(())
    }

    /// The memoized entry point server surfaces use: verifies `proof`
    /// (via the memo when one is attached) and then always re-checks the
    /// conclusion against the request — subject, issuer, tag, and expiry
    /// are never answered from the cache.
    pub fn authorize(
        &self,
        proof: &Proof,
        speaker: &Principal,
        issuer: &Principal,
        request: &Tag,
    ) -> Result<(), ProofError> {
        self.verify_cached(proof)?;
        proof.check_conclusion(speaker, issuer, request, self.now)
    }

    /// Fingerprints everything [`Proof::verify`] would consult from this
    /// context for `proof`, plus a conservative `valid_until`.
    ///
    /// The fingerprint folds the revocation epoch, each assumption leaf's
    /// vouched/unvouched bit, and for each signed-certificate leaf the
    /// **content hash** (the full signed wire bytes — body, signer, and
    /// signature) of the revocation artifact
    /// [`VerifyCtx::check_revocation`] would resolve — through the *same*
    /// `VerifyCtx::resolve_crl` / `VerifyCtx::resolve_revalidation`
    /// helpers, so fingerprint and cold path can never disagree about
    /// which artifact governs.  Hashing the artifact's *content*, not its
    /// (signer, serial, window) identity, is load-bearing: a validator
    /// that reissues a different revoked-set under a reused serial and
    /// window (or a source that swaps a same-serial list) must change the
    /// fingerprint, or a memo hit would keep answering for the old list
    /// while the cold path enforces the new one.  `valid_until` is the
    /// minimum validity end of every consulted artifact: past it, a
    /// then-current artifact may have lapsed (and the cold path would
    /// fail or fall back to a stale list), so a memo hit must not outlive
    /// it.  Certificate-conclusion expiry needs no folding —
    /// `Proof::verify` is time-dependent only through artifact currency,
    /// and conclusion expiry is re-checked on every request by
    /// [`Proof::check_conclusion`].
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
                    buf.push(b'A');
                    buf.extend_from_slice(&stmt.hash().bytes);
                    buf.push(self.assumes(stmt) as u8);
                }
                Proof::SignedCert(cert) => match &cert.revocation {
                    None => {
                        buf.push(b'-');
                        buf.extend_from_slice(&cert.hash().bytes);
                    }
                    Some(RevocationPolicy::Crl { validator }) => {
                        buf.push(b'L');
                        buf.extend_from_slice(&validator.bytes);
                        buf.extend_from_slice(&cert.hash().bytes);
                        match self.resolve_crl(validator) {
                            Some(resolved) => {
                                let crl = resolved.get();
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
                        match self.resolve_revalidation(&hash) {
                            Some(resolved) => {
                                let reval = resolved.get();
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

    /// The revocation epoch this verifier holds: the highest serial among
    /// its directly installed CRLs (0 when none are installed).  Audit
    /// records carry this so a historical decision can be matched to the
    /// revocation state it was made against.  CRLs held only by a
    /// pluggable [`RevocationSource`] are not enumerable here; deciders
    /// that rely on a source exclusively record epoch 0.
    pub fn revocation_epoch(&self) -> u64 {
        self.crls.values().map(|c| c.serial).max().unwrap_or(0)
    }
}
