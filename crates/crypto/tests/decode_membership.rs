//! Decoding a public key proves subgroup membership once per key per
//! process, and never counts as a verify sighting.
//!
//! One test in its own binary: the key cache and its counters are
//! process-wide, so concurrent tests would blur the build counts this
//! asserts exactly.

use snowflake_crypto::{key_table_stats, DetRng, Group, KeyPair, PublicKey};

fn decode(key: &PublicKey) -> Result<PublicKey, String> {
    PublicKey::from_sexp(&key.to_sexp()).map_err(|e| e.message)
}

#[test]
fn decode_checks_membership_once_and_is_not_a_sighting() {
    let mut rng = DetRng::new(b"decode-membership");
    let mut r = move |b: &mut [u8]| rng.fill(b);
    let group = Group::test512();
    let kp = KeyPair::generate(group, &mut r);
    // −y has order 2q: outside the order-q subgroup, yet it satisfies
    // the verification equation for every signature with an even
    // challenge, so only the membership check keeps it out.
    let off_subgroup = PublicKey {
        group,
        y: group.p.sub(&kp.public.y),
    };
    let keys_before = key_table_stats().keys;

    // Cold cache: the off-subgroup key is rejected and never tracked.
    assert!(decode(&off_subgroup).is_err());
    assert_eq!(key_table_stats().keys, keys_before);

    // A valid key decodes (and is now tracked)...
    let builds_before = key_table_stats().builds;
    for _ in 0..10 {
        assert_eq!(decode(&kp.public).unwrap(), kp.public);
    }
    assert_eq!(key_table_stats().keys, keys_before + 1);
    // ...and the off-subgroup key is still rejected next to it.
    assert!(decode(&off_subgroup).is_err());
    assert_eq!(key_table_stats().keys, keys_before + 1);

    // Ten decodes built no table and counted no sighting: the table is
    // still built on the second *verify*, exactly as without decoding.
    assert_eq!(key_table_stats().builds, builds_before);
    let sig = kp.sign(b"message", &mut r);
    assert!(kp.public.verify(b"message", &sig));
    assert_eq!(
        key_table_stats().builds,
        builds_before,
        "first verify builds nothing"
    );
    assert!(kp.public.verify(b"message", &sig));
    assert_eq!(
        key_table_stats().builds,
        builds_before + 1,
        "second verify builds the table"
    );

    // Verification still refuses the off-subgroup key even for a
    // signature whose equation it satisfies.
    let even = loop {
        let sig = kp.sign(b"message", &mut r);
        if sig.e.is_even() {
            break sig;
        }
    };
    let r = even.r.as_ref().expect("signatures carry r");
    assert_eq!(
        group.power(&even.s),
        r.mulm(&off_subgroup.y.modpow(&even.e, &group.p), &group.p),
        "premise: the equation holds for the off-subgroup key"
    );
    assert!(!off_subgroup.verify(b"message", &even));
    assert!(!off_subgroup.verify_uncached(b"message", &even));
}
