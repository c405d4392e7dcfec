//! Property tests for Schnorr verification.
//!
//! The load-bearing claims: flipping any single bit of a member's
//! `(e, s)`, commitment, or message makes both `PublicKey::verify` and
//! `verify_uncached` reject exactly that member of a signed burst; and
//! the table/cache-accelerated `verify` agrees with the
//! precomputation-free `verify_uncached` on every input.

use proptest::prelude::*;
use snowflake_bigint::Ubig;
use snowflake_crypto::{DetRng, Group, KeyPair, Signature};
use std::sync::OnceLock;

/// A small pool of deterministic signers (key generation is the
/// expensive part; the properties range over messages and tampering).
fn signers() -> &'static Vec<KeyPair> {
    static K: OnceLock<Vec<KeyPair>> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = DetRng::new(b"batch-props-signers");
        let mut r = move |buf: &mut [u8]| rng.fill(buf);
        (0..4)
            .map(|_| KeyPair::generate(Group::test512(), &mut r))
            .collect()
    })
}

fn det(seed: u64) -> impl FnMut(&mut [u8]) {
    let mut rng = DetRng::new(&seed.to_be_bytes());
    move |buf: &mut [u8]| rng.fill(buf)
}

/// Builds a signed burst: (messages, signatures, key index per member).
fn burst(seed: u64, n: usize) -> (Vec<Vec<u8>>, Vec<Signature>, Vec<usize>) {
    let mut r = det(seed);
    let keys = signers();
    let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("stmt {seed} {i}").into_bytes()).collect();
    let key_idx: Vec<usize> = (0..n).map(|i| i % keys.len()).collect();
    let sigs: Vec<Signature> = msgs
        .iter()
        .zip(&key_idx)
        .map(|(m, &k)| keys[k].sign(m, &mut r))
        .collect();
    (msgs, sigs, key_idx)
}

/// Flips bit `bit` of a big-endian-encoded scalar.
fn flip_ubig(v: &Ubig, bit: usize) -> Ubig {
    let mut bytes = v.to_bytes_be();
    if bytes.is_empty() {
        bytes.push(0);
    }
    let i = (bit / 8) % bytes.len();
    bytes[i] ^= 1 << (bit % 8);
    Ubig::from_bytes_be(&bytes)
}

proptest! {
    #[test]
    fn bitflip_rejects_and_pinpoints_culprit(
        seed in any::<u64>(),
        n in 2usize..10,
        victim_sel in any::<usize>(),
        field in 0usize..4,
        bit in 0usize..256,
    ) {
        let (mut msgs, mut sigs, key_idx) = burst(seed, n);
        let victim = victim_sel % n;
        match field {
            0 => sigs[victim].e = flip_ubig(&sigs[victim].e, bit),
            1 => sigs[victim].s = flip_ubig(&sigs[victim].s, bit),
            2 => {
                let r = sigs[victim].r.clone().expect("signatures carry r");
                sigs[victim].r = Some(flip_ubig(&r, bit));
            }
            _ => {
                let m = &mut msgs[victim];
                let i = bit % (m.len() * 8);
                m[i / 8] ^= 1 << (i % 8);
            }
        }
        // Exactly the victim fails, on both verify paths.
        let keys = signers();
        for (i, ((m, sig), &k)) in msgs.iter().zip(&sigs).zip(&key_idx).enumerate() {
            let key = &keys[k].public;
            prop_assert_eq!(key.verify(m, sig), i != victim, "verify, member {}", i);
            prop_assert_eq!(
                key.verify_uncached(m, sig),
                i != victim,
                "verify_uncached, member {}",
                i
            );
        }
    }

    #[test]
    fn fast_verify_agrees_with_uncached(
        seed in any::<u64>(),
        tamper in 0usize..5,
        bit in 0usize..256,
    ) {
        let mut r = det(seed);
        let keys = signers();
        let key = &keys[(seed as usize) % keys.len()];
        let msg = format!("agreement {seed}").into_bytes();
        let mut sig = key.sign(&msg, &mut r);
        match tamper {
            0 => {} // honest
            1 => sig.e = flip_ubig(&sig.e, bit),
            2 => sig.s = flip_ubig(&sig.s, bit),
            3 => sig.r = Some(flip_ubig(sig.r.as_ref().unwrap(), bit)),
            _ => sig.r = None, // legacy wire form
        }
        prop_assert_eq!(
            key.public.verify(&msg, &sig),
            key.public.verify_uncached(&msg, &sig)
        );
    }
}
