//! Schnorr signatures over a prime-order subgroup.
//!
//! Signing: pick `k ← [1,q)`, compute `r = g^k mod p`,
//! `e = H(r ‖ m) mod q`, `s = k + x·e mod q`; the signature is
//! `(e, s, r)`.  Verification checks `e == H(r ‖ m) mod q` and
//! `g^s == r · y^e mod p`; a legacy signature carrying only `(e, s)` is
//! verified by recomputing `r' = g^s · y^{q−e} mod p` (no modular inverse
//! needed — `y` has order `q`) and comparing challenges.  The two forms
//! accept exactly the same `(e, s)` pairs; carrying `r` is what makes the
//! fast path possible: both verification exponentiations become
//! **fixed-base** (`g` from the group's static table, `y` from the
//! per-key cache in `key_cache`).  Every signature is verified on its own;
//! `docs/authz.md` says why there is no batch path.
//!
//! Keys serialize as SPKI-style S-expressions:
//! `(public-key (snowflake-schnorr (group <name>) (y |…|)))`, and a key's
//! *principal hash* is the SHA-256 of that canonical form — this is the
//! `(hash sha256 |…|)` that names a key in certificates, mirroring SPKI's
//! hashed-key principals.

use crate::group::Group;
use crate::hash::HashVal;
use crate::key_cache;
use crate::sha256::Sha256;
use snowflake_bigint::Ubig;
use snowflake_sexpr::{ParseError, Sexp};
use std::fmt;

/// A Schnorr public key: group parameters plus `y = g^x`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey {
    /// The group this key lives in.
    pub group: &'static Group,
    /// The public element `y = g^x mod p`.
    pub y: Ubig,
}

/// A Schnorr key pair (public key plus secret exponent).
#[derive(Clone)]
pub struct KeyPair {
    /// The public half.
    pub public: PublicKey,
    /// The secret exponent `x ∈ [1, q)`.
    x: Ubig,
}

/// A Schnorr signature `(e, s)` with an optional commitment `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Challenge scalar `e = H(r ‖ m) mod q`.
    pub e: Ubig,
    /// Response scalar `s = k + x·e mod q`.
    pub s: Ubig,
    /// The commitment `r = g^k mod p`.
    ///
    /// Redundant given `(e, s)` — verifiers recompute it when absent —
    /// but carrying it turns verification into two fixed-base
    /// exponentiations and lets a wrong `r` fail on the hash binding
    /// before any exponentiation.  A signature whose
    /// carried `r` disagrees with the recomputed commitment is rejected,
    /// so the field cannot widen what verifies.
    pub r: Option<Ubig>,
}

impl KeyPair {
    /// Generates a key pair in `group` using the supplied entropy source.
    pub fn generate(group: &'static Group, rand_bytes: &mut dyn FnMut(&mut [u8])) -> Self {
        let x = group.random_exponent(rand_bytes);
        let y = group.power(&x);
        KeyPair {
            public: PublicKey { group, y },
            x,
        }
    }

    /// Generates a key pair with OS entropy.
    pub fn generate_os(group: &'static Group) -> Self {
        Self::generate(group, &mut crate::rand_bytes)
    }

    /// Signs `message` (typically the canonical encoding of a statement).
    pub fn sign(&self, message: &[u8], rand_bytes: &mut dyn FnMut(&mut [u8])) -> Signature {
        let group = self.public.group;
        loop {
            let k = group.random_exponent(rand_bytes);
            let r = group.power(&k);
            let e = challenge(group, &r, message);
            if e.is_zero() {
                continue; // astronomically unlikely; resample for cleanliness
            }
            let s = k.addm(&self.x.mulm(&e, &group.q), &group.q);
            return Signature { e, s, r: Some(r) };
        }
    }

    /// Signs with OS entropy.
    pub fn sign_os(&self, message: &[u8]) -> Signature {
        self.sign(message, &mut crate::rand_bytes)
    }

    /// Computes the static Diffie–Hellman point `peer^x mod p` (used by the
    /// sealed-box construction to open payloads sealed to this key).
    pub fn dh(&self, peer_point: &Ubig) -> Ubig {
        peer_point.modpow(&self.x, &self.public.group.p)
    }
}

impl PublicKey {
    /// Verifies `sig` over `message`.
    ///
    /// The fast path: the generator exponentiation uses the group's
    /// static fixed-base table, the `y` exponentiation uses the per-key
    /// table cache (built on a key's second sighting), the subgroup
    /// membership check on `y` is done once per key and remembered, and a
    /// signature carrying its commitment `r` skips the full recompute
    /// when the cheap hash binding check already fails.  Accepts exactly
    /// the same signatures as [`PublicKey::verify_uncached`] (proptested).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let group = self.group;
        if sig.e.is_zero() || sig.e >= group.q || sig.s >= group.q {
            return false;
        }
        let sighting = key_cache::observe(self);
        let mut y_table = sighting.table;
        if !sighting.element_valid && !group.is_element(&self.y) {
            return false;
        }
        if y_table.is_none() {
            // The first *validated* sighting registers the key in the
            // cache; a later one promotes it to a fixed-base table.
            y_table = key_cache::confirm_element(self);
        }
        let y_pow = |exp: &Ubig| match &y_table {
            Some(t) => t.power(exp),
            None => self.y.modpow(exp, &group.p),
        };
        match &sig.r {
            Some(rc) => {
                // Hash binding first — it is the cheap check, and a
                // mismatched r can never verify (r is bound by e).
                if rc.is_zero() || rc >= &group.p || challenge(group, rc, message) != sig.e {
                    return false;
                }
                // g^s == r · y^e mod p  ⇔  r == g^s · y^(−e).
                group.power(&sig.s) == rc.mulm(&y_pow(&sig.e), &group.p)
            }
            None => {
                // r' = g^s * y^(q - e) mod p  (y has order q).
                let r = group.power(&sig.s).mulm(&y_pow(&group.q.sub(&sig.e)), &group.p);
                challenge(group, &r, message) == sig.e
            }
        }
    }

    /// Verifies `sig` over `message` with no precomputation, no caches,
    /// and plain square-and-multiply exponentiation.
    ///
    /// The reference implementation: proptests assert [`PublicKey::verify`]
    /// agrees with it on every input, and the crypto benches use it as the
    /// "before" baseline the fast paths are measured against.
    pub fn verify_uncached(&self, message: &[u8], sig: &Signature) -> bool {
        let group = self.group;
        if sig.e.is_zero() || sig.e >= group.q || sig.s >= group.q {
            return false;
        }
        let y = &self.y;
        if y.is_zero()
            || y.is_one()
            || y >= &group.p
            || !y.modpow_basic(&group.q, &group.p).is_one()
        {
            return false;
        }
        // r' = g^s * y^(q - e) mod p  (y has order q, so y^(q-e) = y^(-e)).
        let gs = group.g.modpow_basic(&sig.s, &group.p);
        let y_neg_e = y.modpow_basic(&group.q.sub(&sig.e), &group.p);
        let r = gs.mulm(&y_neg_e, &group.p);
        if let Some(rc) = &sig.r {
            if *rc != r {
                return false;
            }
        }
        challenge(group, &r, message) == sig.e
    }

    /// Serializes to `(public-key (snowflake-schnorr (group …) (y |…|)))`.
    pub fn to_sexp(&self) -> Sexp {
        Sexp::tagged(
            "public-key",
            vec![Sexp::tagged(
                "snowflake-schnorr",
                vec![
                    Sexp::tagged("group", vec![Sexp::from(self.group.name)]),
                    Sexp::tagged("y", vec![Sexp::atom(self.y.to_bytes_be())]),
                ],
            )],
        )
    }

    /// Parses the S-expression form produced by [`PublicKey::to_sexp`].
    ///
    /// Every key returned is a proven order-`q` subgroup element.  The
    /// proof runs once per key per process: a key the verifier's key
    /// cache already tracks is not re-exponentiated (see `key_cache`).
    pub fn from_sexp(e: &Sexp) -> Result<Self, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("public-key") {
            return Err(bad("expected (public-key …)"));
        }
        let alg = e
            .tag_body()
            .and_then(|b| b.first())
            .ok_or_else(|| bad("public-key body missing"))?;
        if alg.tag_name() != Some("snowflake-schnorr") {
            return Err(bad("unsupported key algorithm"));
        }
        let group_name = alg
            .find_value("group")
            .and_then(Sexp::as_str)
            .ok_or_else(|| bad("missing group name"))?;
        let group = Group::by_name(group_name).ok_or_else(|| bad("unknown group"))?;
        let y_bytes = alg
            .find_value("y")
            .and_then(Sexp::as_atom)
            .ok_or_else(|| bad("missing y"))?;
        let key = PublicKey {
            group,
            y: Ubig::from_bytes_be(y_bytes),
        };
        if !key_cache::check_element(&key) {
            return Err(bad("y is not a valid group element"));
        }
        Ok(key)
    }

    /// The key's principal hash: SHA-256 of its canonical S-expression.
    pub fn hash(&self) -> HashVal {
        HashVal::of_sexp(&self.to_sexp())
    }
}

impl Signature {
    /// Serializes to `(signature (e |…|) (s |…|) (r |…|))`; the `(r …)`
    /// element is omitted for a signature not carrying its commitment.
    pub fn to_sexp(&self) -> Sexp {
        let mut body = vec![
            Sexp::tagged("e", vec![Sexp::atom(self.e.to_bytes_be())]),
            Sexp::tagged("s", vec![Sexp::atom(self.s.to_bytes_be())]),
        ];
        if let Some(r) = &self.r {
            body.push(Sexp::tagged("r", vec![Sexp::atom(r.to_bytes_be())]));
        }
        Sexp::tagged("signature", body)
    }

    /// Parses the form produced by [`Signature::to_sexp`]; `(r …)` is
    /// optional, so signatures from before commitments were carried still
    /// parse.
    pub fn from_sexp(e: &Sexp) -> Result<Self, ParseError> {
        let bad = |m: &str| ParseError {
            offset: 0,
            message: m.into(),
        };
        if e.tag_name() != Some("signature") {
            return Err(bad("expected (signature …)"));
        }
        let ev = e
            .find_value("e")
            .and_then(Sexp::as_atom)
            .ok_or_else(|| bad("missing e"))?;
        let sv = e
            .find_value("s")
            .and_then(Sexp::as_atom)
            .ok_or_else(|| bad("missing s"))?;
        let rv = e.find_value("r").and_then(Sexp::as_atom);
        Ok(Signature {
            e: Ubig::from_bytes_be(ev),
            s: Ubig::from_bytes_be(sv),
            r: rv.map(Ubig::from_bytes_be),
        })
    }
}

/// `H(r ‖ m) mod q` with `r` in fixed-width big-endian form.
fn challenge(group: &Group, r: &Ubig, message: &[u8]) -> Ubig {
    let p_len = group.p.to_bytes_be().len();
    let mut h = Sha256::new();
    h.update(&r.to_bytes_be_padded(p_len));
    h.update(message);
    Ubig::from_bytes_be(&h.finish()).rem(&group.q)
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PublicKey({}, {})",
            self.group.name,
            self.hash().short_hex()
        )
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret exponent.
        write!(f, "KeyPair({:?})", self.public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    fn det(seed: &str) -> impl FnMut(&mut [u8]) {
        let mut rng = DetRng::new(seed.as_bytes());
        move |buf: &mut [u8]| rng.fill(buf)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut r = det("alice");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let msg = b"it would be good to read file X";
        let sig = kp.sign(msg, &mut r);
        assert!(kp.public.verify(msg, &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut r = det("alice");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let sig = kp.sign(b"message one", &mut r);
        assert!(!kp.public.verify(b"message two", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut r = det("alice");
        let alice = KeyPair::generate(Group::test512(), &mut r);
        let bob = KeyPair::generate(Group::test512(), &mut r);
        let sig = alice.sign(b"msg", &mut r);
        assert!(!bob.public.verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut r = det("alice");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let sig = kp.sign(b"msg", &mut r);
        for r in [sig.r.clone(), None] {
            let bad_e = Signature {
                e: sig.e.add(&Ubig::one()),
                s: sig.s.clone(),
                r: r.clone(),
            };
            let bad_s = Signature {
                e: sig.e.clone(),
                s: sig.s.add(&Ubig::one()),
                r: r.clone(),
            };
            assert!(!kp.public.verify(b"msg", &bad_e));
            assert!(!kp.public.verify(b"msg", &bad_s));
            assert!(!kp.public.verify_uncached(b"msg", &bad_e));
            assert!(!kp.public.verify_uncached(b"msg", &bad_s));
        }
        let bad_r = Signature {
            e: sig.e.clone(),
            s: sig.s.clone(),
            r: Some(sig.r.clone().unwrap().add(&Ubig::one())),
        };
        assert!(!kp.public.verify(b"msg", &bad_r));
        assert!(!kp.public.verify_uncached(b"msg", &bad_r));
    }

    #[test]
    fn commitment_stripped_signature_still_verifies() {
        // The legacy (e, s)-only wire form accepts the same pairs.
        let mut r = det("alice");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let sig = kp.sign(b"msg", &mut r);
        let stripped = Signature {
            e: sig.e.clone(),
            s: sig.s.clone(),
            r: None,
        };
        assert!(kp.public.verify(b"msg", &stripped));
        assert!(kp.public.verify_uncached(b"msg", &stripped));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let mut r = det("alice");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let q = &kp.public.group.q;
        let sig = Signature {
            e: q.clone(),
            s: Ubig::one(),
            r: None,
        };
        assert!(!kp.public.verify(b"msg", &sig));
        let sig = Signature {
            e: Ubig::zero(),
            s: Ubig::one(),
            r: None,
        };
        assert!(!kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn key_sexp_roundtrip() {
        let mut r = det("carol");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let e = kp.public.to_sexp();
        let back = PublicKey::from_sexp(&e).unwrap();
        assert_eq!(back, kp.public);
        assert_eq!(back.hash(), kp.public.hash());
    }

    #[test]
    fn key_sexp_rejects_invalid_element() {
        let mut r = det("carol");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let mut e = kp.public.to_sexp();
        // Corrupt y to 1 (the identity, not a valid public element).
        if let Sexp::List(items) = &mut e {
            if let Sexp::List(alg) = &mut items[1] {
                alg[2] = Sexp::tagged("y", vec![Sexp::atom(vec![1u8])]);
            }
        }
        assert!(PublicKey::from_sexp(&e).is_err());
    }

    #[test]
    fn signature_sexp_roundtrip() {
        let mut r = det("dave");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let sig = kp.sign(b"hello", &mut r);
        let back = Signature::from_sexp(&sig.to_sexp()).unwrap();
        assert_eq!(back, sig);
        assert!(kp.public.verify(b"hello", &back));
    }

    #[test]
    fn group1024_works() {
        let mut r = det("big");
        let kp = KeyPair::generate(Group::group1024(), &mut r);
        let sig = kp.sign(b"expensive", &mut r);
        assert!(kp.public.verify(b"expensive", &sig));
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        let mut r = det("many");
        let a = KeyPair::generate(Group::test512(), &mut r);
        let b = KeyPair::generate(Group::test512(), &mut r);
        assert_ne!(a.public.hash(), b.public.hash());
    }

    #[test]
    fn small_order_commitment_rejected() {
        // A malicious signer who knows x can publish (r' = −g^k mod p,
        // e = H(r' ‖ m), s = k + x·e): the hash binding holds, but
        // g^s == r'·y^e fails on the sign, so both verify paths must
        // reject it — with and without a fixed-base table for y.
        let mut r = det("small-order");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let group = kp.public.group;
        let msg = b"forged under cofactor cover".to_vec();
        let mut trials = 0;
        while trials < 16 {
            let k = group.random_exponent(&mut r);
            let neg_r = group.p.sub(&group.power(&k)); // −g^k mod p
            let e = challenge(group, &neg_r, &msg);
            if e.is_zero() {
                continue;
            }
            trials += 1;
            let s = k.addm(&kp.x.mulm(&e, &group.q), &group.q);
            let forged = Signature {
                e,
                s,
                r: Some(neg_r),
            };
            assert!(!kp.public.verify(&msg, &forged));
            assert!(!kp.public.verify_uncached(&msg, &forged));
        }
    }

    #[test]
    fn debug_hides_secret() {
        let mut r = det("secret");
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let dbg = format!("{kp:?}");
        assert!(
            !dbg.contains(&kp.x.to_hex()),
            "secret exponent must not leak via Debug"
        );
    }
}
