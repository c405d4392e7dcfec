//! Property: a `VerifyCtx` fed by a [`FreshnessAgent`] (attached as its
//! `RevocationSource`) answers `check_revocation` identically to one fed
//! a hand-installed [`RevocationTable`] of the validator's own artifacts —
//! for every mix of revoked/live certificates, both policy kinds, and
//! instants inside and outside the freshness windows.

use proptest::prelude::*;
use snowflake_core::{
    Certificate, Delegation, Principal, RevocationPolicy, RevocationTable, Time, Validity,
    VerifyCtx,
};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_revocation::{AgentSink, FreshnessAgent, InProcessValidator, ValidatorService};
use snowflake_tags::Tag;
use std::sync::{Arc, OnceLock};

fn fixed_clock() -> Time {
    Time(1_000_000)
}

/// Key generation dominates test time; share one owner/validator pair.
fn owner() -> &'static KeyPair {
    static K: OnceLock<KeyPair> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = DetRng::new(b"props-owner");
        KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
    })
}

fn validator_key() -> &'static KeyPair {
    static K: OnceLock<KeyPair> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = DetRng::new(b"props-validator");
        KeyPair::generate(Group::test512(), &mut |b| rng.fill(b))
    })
}

/// Issues cert `i` with the requested policy kind.
fn cert(i: usize, crl_policy: bool) -> Certificate {
    let mut rng = DetRng::new(format!("props-cert-{i}").as_bytes());
    let policy = if crl_policy {
        RevocationPolicy::Crl {
            validator: validator_key().public.hash(),
        }
    } else {
        RevocationPolicy::Revalidate {
            validator: validator_key().public.hash(),
        }
    };
    Certificate::issue_with_revocation(
        owner(),
        Delegation {
            subject: Principal::message(format!("subject-{i}").as_bytes()),
            issuer: Principal::key(&owner().public),
            tag: Tag::Star,
            validity: Validity::always(),
            delegable: false,
        },
        Some(policy),
        &mut |b| rng.fill(b),
    )
}

/// A push that lands after the agent is attached is seen by the same
/// context: the context holds the agent, not a copy of its lists.
#[test]
fn push_after_attach_is_seen_by_the_same_ctx() {
    let validator = ValidatorService::with_clock(validator_key().clone(), fixed_clock, {
        let mut r = DetRng::new(b"shadow-rng");
        Box::new(move |b: &mut [u8]| r.fill(b))
    });
    let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
    agent.register_validator(
        validator.validator_hash(),
        Arc::new(InProcessValidator(Arc::clone(&validator))),
    );
    validator.subscribe(Box::new(AgentSink::new(&agent)));

    let c = cert(0, true);
    let ctx = VerifyCtx::at(fixed_clock()).with_revocation_source(agent.clone());
    assert!(ctx.check_revocation(&c).is_ok());
    let before = ctx.revocation_epoch();

    validator.revoke(c.hash());
    assert!(
        ctx.check_revocation(&c).is_err(),
        "the pushed CRL must govern the already-attached context"
    );
    assert!(ctx.revocation_epoch() > before, "the epoch follows the push");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn agent_fed_ctx_equals_hand_loaded_ctx(
        crl_flags in proptest::collection::vec(any::<bool>(), 6usize..7),
        revoke_flags in proptest::collection::vec(any::<bool>(), 6usize..7),
        reval_flags in proptest::collection::vec(any::<bool>(), 6usize..7),
        time_skew in 0u64..600,
    ) {
        let validator = ValidatorService::with_clock(
            validator_key().clone(),
            fixed_clock,
            {
                let mut r = DetRng::new(b"props-svc-rng");
                Box::new(move |b: &mut [u8]| r.fill(b))
            },
        );
        let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
        agent.register_validator(
            validator.validator_hash(),
            Arc::new(InProcessValidator(Arc::clone(&validator))),
        );
        validator.subscribe(Box::new(AgentSink::new(&agent)));

        // Build the world: certs with either policy, a random subset
        // revoked, a random subset pre-fetched as revalidations.  The
        // hand-installed table gets the validator's own artifacts: the
        // revalidations it minted for certificates it has not revoked
        // since, and its current CRL.
        let certs: Vec<Certificate> =
            (0..crl_flags.len()).map(|i| cert(i, crl_flags[i])).collect();
        let mut table = RevocationTable::default();
        for (i, c) in certs.iter().enumerate() {
            // Fetch revalidations before revoking (a revoked cert cannot
            // be revalidated), mirroring a verifier that cached them.
            if reval_flags[i] && !crl_flags[i] {
                agent
                    .fetch_revalidation(&validator.validator_hash(), &c.hash())
                    .unwrap();
                if !revoke_flags[i] {
                    table.install_revalidation(validator.revalidate(&c.hash()).unwrap());
                }
            }
        }
        for (i, c) in certs.iter().enumerate() {
            if revoke_flags[i] {
                validator.revoke(c.hash());
            }
        }
        table.install_crl(validator.current_crl());

        // The two contexts under comparison, at an instant possibly past
        // the freshness windows (time_skew pushes beyond the 300 s CRL
        // window and 30 s revalidation window in some cases).
        let now = Time(fixed_clock().0 + time_skew);
        let sourced = VerifyCtx::at(now).with_revocation_source(agent.clone());
        let hand_loaded = VerifyCtx::at(now).with_revocation_source(Arc::new(table));
        prop_assert_eq!(sourced.revocation_epoch(), hand_loaded.revocation_epoch());

        for c in &certs {
            let a = sourced.check_revocation(c);
            let b = hand_loaded.check_revocation(c);
            prop_assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "sourced {:?} vs hand-loaded {:?} for {:?}",
                a,
                b,
                c
            );
        }
    }
}
