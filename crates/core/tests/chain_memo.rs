//! The verified-chain memo must be invisible except for speed.
//!
//! Claims under test: a context with a memo attached returns answers
//! byte-identical to a cold context on the same inputs (honest and
//! tampered, warm and cold); revoking a certificate — by push eviction,
//! by a newly installed CRL, or by the governing artifact lapsing —
//! makes the memo fail closed; and the exported counters prove that a
//! warm re-presented chain was answered without re-verification.

use proptest::prelude::*;
use snowflake_core::{
    Certificate, ChainMemo, Crl, Delegation, Principal, Proof, ProofError, Revalidation,
    RevocationPolicy, RevocationTable, Tag, Time, Validity, VerifyCtx,
};
use snowflake_crypto::{DetRng, Group, KeyPair};
use std::sync::{Arc, OnceLock};

fn rng(seed: &str) -> impl FnMut(&mut [u8]) {
    let mut r = DetRng::new(seed.as_bytes());
    move |b: &mut [u8]| r.fill(b)
}

/// Deterministic signer pool (key generation dominates test time).
fn keys() -> &'static Vec<KeyPair> {
    static K: OnceLock<Vec<KeyPair>> = OnceLock::new();
    K.get_or_init(|| {
        let mut r = rng("chain-memo-keys");
        (0..4).map(|_| KeyPair::generate(Group::test512(), &mut r)).collect()
    })
}

fn deleg(subject: &KeyPair, issuer: &KeyPair, delegable: bool) -> Delegation {
    Delegation {
        subject: Principal::key(&subject.public),
        issuer: Principal::key(&issuer.public),
        tag: Tag::named("web", vec![]),
        validity: Validity::until(Time(10_000)),
        delegable,
    }
}

/// carol ⇒ bob ⇒ alice as a two-certificate transitivity chain, with an
/// optional tamper: 1 breaks the first signature, 2 breaks the second.
fn two_cert_chain(seed: u64, tamper: usize) -> Proof {
    let [alice, bob, carol, _] = &keys()[..] else { unreachable!() };
    let mut r = rng(&format!("chain-{seed}"));
    let mut c1 = Certificate::issue(bob, deleg(carol, bob, false), &mut r);
    let mut c2 = Certificate::issue(alice, deleg(bob, alice, true), &mut r);
    if tamper == 1 {
        c1.delegation.tag = Tag::Star;
    } else if tamper == 2 {
        c2.delegation.tag = Tag::Star;
    }
    Proof::signed_cert(c1).then(Proof::signed_cert(c2))
}

/// Attaches a table holding just `crl` (a new table replaces the old one:
/// an attached table is never mutated).
fn attach_crl(ctx: &mut VerifyCtx, crl: Crl) {
    let mut table = RevocationTable::default();
    table.install_crl(crl);
    ctx.set_revocation_source(Arc::new(table));
}

/// Attaches a table holding just `reval`.
fn attach_revalidation(ctx: &mut VerifyCtx, reval: Revalidation) {
    let mut table = RevocationTable::default();
    table.install_revalidation(reval);
    ctx.set_revocation_source(Arc::new(table));
}

fn authorize_result(ctx: &VerifyCtx, proof: &Proof) -> String {
    let [alice, _, carol, _] = &keys()[..] else { unreachable!() };
    let request = Tag::named("web", vec![]);
    format!(
        "{:?}",
        ctx.authorize(
            proof,
            &Principal::key(&carol.public),
            &Principal::key(&alice.public),
            &request,
        )
    )
}

proptest! {
    /// Memoized answers are byte-identical to cold ones — on the cold
    /// (inserting) pass, on the warm (hit) pass, honest or tampered.
    #[test]
    fn memoized_answers_match_cold(seed in any::<u64>(), tamper in 0usize..3, at in 1u64..20_000) {
        let proof = two_cert_chain(seed, tamper);
        let cold_ctx = VerifyCtx::at(Time(at));
        let memo = Arc::new(ChainMemo::new(64));
        let warm_ctx = VerifyCtx::at(Time(at)).with_chain_memo(memo.clone());
        let cold = authorize_result(&cold_ctx, &proof);
        let first = authorize_result(&warm_ctx, &proof);
        let second = authorize_result(&warm_ctx, &proof);
        prop_assert_eq!(&first, &cold, "cold-insert pass diverged");
        prop_assert_eq!(&second, &cold, "warm pass diverged");
        if tamper == 0 {
            // The chain itself is valid, so its verification memoizes even
            // when the conclusion is expired — expiry is re-checked on
            // every request by check_conclusion, never from the cache.
            prop_assert_eq!(cold.starts_with("Ok"), at <= 10_000, "{}", cold);
            let stats = memo.stats();
            prop_assert_eq!(stats.hits, 1, "second authorize must be a memo hit");
            prop_assert_eq!(stats.inserts, 1);
        } else {
            prop_assert!(cold.starts_with("Err"));
            prop_assert_eq!(memo.stats().inserts, 0, "failed verifications are never memoized");
        }
    }
}

/// carol ⇒ bob ⇒ alice whose second certificate carries `policy`
/// (0: none, 1: a CRL, 2: revalidation) from the fourth key, in a memoized
/// context holding a current artifact for it.
fn governed_chain(seed: u64, policy: usize) -> (Proof, VerifyCtx) {
    let [alice, bob, carol, validator] = &keys()[..] else { unreachable!() };
    let mut r = rng(&format!("governed-{seed}"));
    let validator_hash = validator.public.hash();
    let revocation = match policy {
        1 => Some(RevocationPolicy::Crl { validator: validator_hash }),
        2 => Some(RevocationPolicy::Revalidate { validator: validator_hash }),
        _ => None,
    };
    let c1 = Certificate::issue(bob, deleg(carol, bob, false), &mut r);
    let c2 = Certificate::issue_with_revocation(alice, deleg(bob, alice, true), revocation, &mut r);
    let window = Validity::until(Time(10_000));
    let mut ctx = VerifyCtx::at(Time(100)).with_chain_memo(Arc::new(ChainMemo::new(64)));
    match policy {
        1 => attach_crl(&mut ctx, Crl::issue_with_serial(validator, 3, vec![], window, &mut r)),
        2 => attach_revalidation(&mut ctx, Revalidation::issue(validator, c2.hash(), window, &mut r)),
        _ => {}
    }
    (Proof::signed_cert(c1).then(Proof::signed_cert(c2)), ctx)
}

proptest! {
    /// `authorize` hands back the chain's provenance on both paths — the
    /// miss computes it once and shares it with the memo slot, the hit
    /// returns that slot's `Arc` — and it always equals
    /// `Proof::cert_hashes`.  Dropping certificate hashes from the
    /// fingerprint leaves it tracking the governing artifacts: a
    /// same-serial CRL reissue or a revalidation swap still changes it
    /// (and misses), while an unchanged context keeps it stable.
    #[test]
    fn provenance_is_shared_and_fingerprint_tracks_artifacts(seed in any::<u64>(), policy in 0usize..3) {
        let [alice, _, carol, validator] = &keys()[..] else { unreachable!() };
        let (proof, mut ctx) = governed_chain(seed, policy);
        let memo = Arc::clone(ctx.chain_memo().unwrap());
        let speaker = Principal::key(&carol.public);
        let issuer = Principal::key(&alice.public);
        let request = Tag::named("web", vec![]);
        let expected = proof.cert_hashes();

        let miss = ctx.authorize(&proof, &speaker, &issuer, &request).unwrap();
        let hit = ctx.authorize(&proof, &speaker, &issuer, &request).unwrap();
        prop_assert_eq!((memo.stats().misses, memo.stats().hits), (1, 1));
        prop_assert_eq!(&miss[..], &expected[..]);
        prop_assert_eq!(&hit[..], &expected[..]);
        prop_assert!(Arc::ptr_eq(&miss, &hit), "a hit hands back the slot's own provenance");

        let (before, _) = ctx.memo_fingerprint(&proof);
        let mut r = rng(&format!("swap-{seed}"));
        let window = Validity::until(Time(10_000));
        match policy {
            // Same serial and window, a different revoked set (one that
            // still spares this chain).
            1 => attach_crl(&mut ctx, Crl::issue_with_serial(
                validator,
                3,
                vec![snowflake_crypto::HashVal::of(&seed.to_be_bytes())],
                window,
                &mut r,
            )),
            // A fresh revalidation of the same certificate, same window.
            2 => attach_revalidation(&mut ctx, Revalidation::issue(
                validator,
                expected[1].clone(),
                window,
                &mut r,
            )),
            _ => {}
        }
        let (after, _) = ctx.memo_fingerprint(&proof);
        if policy == 0 {
            prop_assert_eq!(before, after);
        } else {
            prop_assert_ne!(before, after);
            let again = ctx.authorize(&proof, &speaker, &issuer, &request).unwrap();
            prop_assert_eq!(memo.stats().misses, 2, "the new artifact misses");
            prop_assert_eq!(&again[..], &expected[..]);
        }
    }
}

#[test]
fn warm_hit_skips_verification_and_counters_prove_it() {
    let proof = two_cert_chain(1, 0);
    let memo = Arc::new(ChainMemo::new(64));
    let ctx = VerifyCtx::at(Time(100)).with_chain_memo(memo.clone());
    assert!(ctx.verify_cached(&proof).is_ok());
    let after_cold = memo.stats();
    assert_eq!((after_cold.hits, after_cold.misses, after_cold.inserts), (0, 1, 1));
    for _ in 0..10 {
        assert!(ctx.verify_cached(&proof).is_ok());
    }
    let s = memo.stats();
    assert_eq!(s.hits, 10, "every re-presentation is a hit");
    assert_eq!(s.inserts, 1, "nothing was re-verified or re-inserted");
}

#[test]
fn push_eviction_fails_closed_mid_session() {
    // A servlet-style session: proof verified warm, then the issuer's
    // certificate is revoked and pushed. The memo entry dies with the
    // push, and a context holding the new CRL denies — the memo cannot
    // resurrect the pre-revocation answer.
    let [alice, bob, carol, validator] = &keys()[..] else { unreachable!() };
    let mut r = rng("push-evict");
    let policy = RevocationPolicy::Crl { validator: validator.public.hash() };
    let c1 = Certificate::issue(bob, deleg(carol, bob, false), &mut r);
    let c2 = Certificate::issue_with_revocation(
        alice,
        deleg(bob, alice, true),
        Some(policy),
        &mut r,
    );
    let c2_hash = c2.hash();
    let proof = Proof::signed_cert(c1).then(Proof::signed_cert(c2.clone()));

    let memo = Arc::new(ChainMemo::new(64));
    let empty_crl = Crl::issue(validator, vec![], Validity::until(Time(10_000)), &mut r);
    let mut ctx = VerifyCtx::at(Time(100)).with_chain_memo(memo.clone());
    attach_crl(&mut ctx, empty_crl);
    assert!(ctx.verify_cached(&proof).is_ok());
    assert!(ctx.verify_cached(&proof).is_ok());
    assert_eq!(memo.stats().hits, 1);

    // Revocation push: the bus evicts by cert hash...
    assert_eq!(memo.evict_cert(&c2_hash), 1);
    assert_eq!(memo.stats().revocation_evictions, 1);
    // ...and the freshness machinery installs the revoking CRL.
    let revoking =
        Crl::issue_with_serial(validator, 1, vec![c2_hash], Validity::until(Time(10_000)), &mut r);
    attach_crl(&mut ctx, revoking);
    match ctx.verify_cached(&proof) {
        Err(ProofError::Revoked(_)) => {}
        other => panic!("revoked chain must be denied, got {other:?}"),
    }
    assert_eq!(memo.stats().hits, 1, "no hit after revocation");
}

#[test]
fn new_crl_serial_misses_even_without_push() {
    // Defense in depth: even if the push eviction were lost, installing a
    // higher-serial CRL changes the fingerprint (and the revocation
    // epoch), so the stale entry can never answer.
    let [alice, bob, carol, validator] = &keys()[..] else { unreachable!() };
    let mut r = rng("serial-miss");
    let policy = RevocationPolicy::Crl { validator: validator.public.hash() };
    let c1 = Certificate::issue(bob, deleg(carol, bob, false), &mut r);
    let c2 = Certificate::issue_with_revocation(alice, deleg(bob, alice, true), Some(policy), &mut r);
    let c2_hash = c2.hash();
    let proof = Proof::signed_cert(c1).then(Proof::signed_cert(c2));

    let memo = Arc::new(ChainMemo::new(64));
    let mut ctx = VerifyCtx::at(Time(100)).with_chain_memo(memo.clone());
    attach_crl(&mut ctx, Crl::issue(validator, vec![], Validity::until(Time(10_000)), &mut r));
    assert!(ctx.verify_cached(&proof).is_ok());

    // No evict_cert call — only the context learns of the revocation.
    let revoking =
        Crl::issue_with_serial(validator, 7, vec![c2_hash], Validity::until(Time(10_000)), &mut r);
    attach_crl(&mut ctx, revoking);
    assert!(ctx.verify_cached(&proof).is_err(), "stale memo entry must not answer");
}

#[test]
fn same_serial_reissue_misses() {
    // The fingerprint pins the governing CRL by *content*, not identity:
    // a validator that reissues a different revoked-set under the same
    // serial and validity window (so neither the serial fold nor the
    // revocation epoch moves) must still change the fingerprint — the
    // cold path now enforces the new list, and a memo hit answering for
    // the old one would survive a revocation until the window lapsed.
    let [alice, bob, carol, validator] = &keys()[..] else { unreachable!() };
    let mut r = rng("same-serial-reissue");
    let policy = RevocationPolicy::Crl { validator: validator.public.hash() };
    let c1 = Certificate::issue(bob, deleg(carol, bob, false), &mut r);
    let c2 = Certificate::issue_with_revocation(alice, deleg(bob, alice, true), Some(policy), &mut r);
    let c2_hash = c2.hash();
    let proof = Proof::signed_cert(c1).then(Proof::signed_cert(c2));

    let memo = Arc::new(ChainMemo::new(64));
    let mut ctx = VerifyCtx::at(Time(100)).with_chain_memo(memo.clone());
    let window = Validity::until(Time(10_000));
    attach_crl(&mut ctx, Crl::issue_with_serial(validator, 5, vec![], window.clone(), &mut r));
    assert!(ctx.verify_cached(&proof).is_ok());
    assert!(ctx.verify_cached(&proof).is_ok());
    assert_eq!(memo.stats().hits, 1);

    // Reissue under the *same* serial and window, now revoking c2.
    attach_crl(&mut ctx, Crl::issue_with_serial(validator, 5, vec![c2_hash], window, &mut r));
    match ctx.verify_cached(&proof) {
        Err(ProofError::Revoked(_)) => {}
        other => panic!("reissued list must govern, got {other:?}"),
    }
    assert_eq!(memo.stats().hits, 1, "stale entry must not answer for the reissued list");
}

#[test]
fn memo_hit_cannot_outlive_consulted_artifact() {
    // The stale-CRL hazard: a CRL valid on [0, 100] governs the chain and
    // the chain verifies (and is memoized) at t=50. At t=150 a cold
    // verify fails — the only CRL available is no longer current — so the
    // memo hit must expire with the artifact, not with the entry.
    let [alice, bob, carol, validator] = &keys()[..] else { unreachable!() };
    let mut r = rng("artifact-window");
    let policy = RevocationPolicy::Crl { validator: validator.public.hash() };
    let c1 = Certificate::issue(bob, deleg(carol, bob, false), &mut r);
    let c2 = Certificate::issue_with_revocation(alice, deleg(bob, alice, true), Some(policy), &mut r);
    let proof = Proof::signed_cert(c1).then(Proof::signed_cert(c2));

    let memo = Arc::new(ChainMemo::new(64));
    let mut ctx = VerifyCtx::at(Time(50)).with_chain_memo(memo.clone());
    attach_crl(&mut ctx, Crl::issue(
        validator,
        vec![],
        Validity::between(Time(0), Time(100)),
        &mut r,
    ));
    assert!(ctx.verify_cached(&proof).is_ok());
    assert!(ctx.verify_cached(&proof).is_ok(), "warm inside the window");
    assert_eq!(memo.stats().hits, 1);

    ctx.now = Time(150);
    let res = ctx.verify_cached(&proof);
    assert!(res.is_err(), "past the CRL window the chain must be re-denied, got {res:?}");
    assert_eq!(memo.stats().hits, 1, "no hit past the artifact's validity end");
}

#[test]
fn assumption_vouching_is_part_of_the_key() {
    // Same proof, two contexts sharing one memo: only the context that
    // vouches the assumption may hit.
    let [alice, _, carol, _] = &keys()[..] else { unreachable!() };
    let stmt = deleg(carol, alice, false);
    let proof = Proof::Assumption { stmt: stmt.clone(), authority: "mac-session".into() };

    let memo = Arc::new(ChainMemo::new(64));
    let mut vouching = VerifyCtx::at(Time(10)).with_chain_memo(memo.clone());
    vouching.assume(&stmt);
    let silent = VerifyCtx::at(Time(10)).with_chain_memo(memo.clone());

    assert!(vouching.verify_cached(&proof).is_ok());
    assert!(vouching.verify_cached(&proof).is_ok());
    assert_eq!(memo.stats().hits, 1);
    assert!(silent.verify_cached(&proof).is_err(), "unvouched context must not hit");
    assert_eq!(memo.stats().hits, 1);
}
