//! Tests for every inference rule of the proof engine, including a faithful
//! reconstruction of the paper's Figure 1 structured proof.

use snowflake_bigint::Ubig;
use snowflake_core::*;
use snowflake_crypto::{sha256, DetRng, Group, HashAlg, KeyPair, Signature};
use snowflake_sexpr::Sexp;
use snowflake_tags::Tag;

fn rng(seed: &str) -> impl FnMut(&mut [u8]) {
    let mut r = DetRng::new(seed.as_bytes());
    move |b: &mut [u8]| r.fill(b)
}

fn kp(r: &mut impl FnMut(&mut [u8])) -> KeyPair {
    KeyPair::generate(Group::test512(), r)
}

fn tag(src: &str) -> Tag {
    Tag::parse(&Sexp::parse(src.as_bytes()).unwrap()).unwrap()
}

fn grant(
    from: &KeyPair,
    to: &KeyPair,
    t: &str,
    delegable: bool,
    r: &mut impl FnMut(&mut [u8]),
) -> Proof {
    let d = Delegation {
        subject: Principal::key(&to.public),
        issuer: Principal::key(&from.public),
        tag: tag(t),
        validity: Validity::always(),
        delegable,
    };
    Proof::signed_cert(Certificate::issue(from, d, r))
}

#[test]
fn transitivity_chains_and_narrows() {
    let mut r = rng("chain");
    let (alice, bob, carol) = (kp(&mut r), kp(&mut r), kp(&mut r));
    // Alice ⇒ grants Bob (web), delegable; Bob grants Carol (web (method GET)).
    let a_to_b = grant(&alice, &bob, "(web)", true, &mut r);
    let b_to_c = grant(&bob, &carol, "(web (method GET))", false, &mut r);
    // carol ⇒ bob ⇒ alice: left is the subject-side proof.
    let chain = b_to_c.then(a_to_b);
    let ctx = VerifyCtx::at(Time(100));
    chain.verify(&ctx).unwrap();

    let c = chain.conclusion();
    assert_eq!(c.subject, Principal::key(&carol.public));
    assert_eq!(c.issuer, Principal::key(&alice.public));
    // The composed tag is the intersection.
    assert!(c
        .tag
        .permits(&tag("(web (method GET) (resourcePath \"/x\"))")));
    assert!(!c.tag.permits(&tag("(web (method POST))")));
    assert!(!c.delegable, "non-delegable link poisons the chain");
}

#[test]
fn transitivity_requires_delegable_tail() {
    let mut r = rng("nodelegate");
    let (alice, bob, carol) = (kp(&mut r), kp(&mut r), kp(&mut r));
    // Alice grants Bob WITHOUT the propagate bit.
    let a_to_b = grant(&alice, &bob, "(web)", false, &mut r);
    let b_to_c = grant(&bob, &carol, "(web)", true, &mut r);
    let chain = b_to_c.then(a_to_b);
    let err = chain.verify(&VerifyCtx::at(Time(0))).unwrap_err();
    assert!(matches!(err, ProofError::BadInference(_)), "{err}");
}

#[test]
fn transitivity_rejects_principal_gap() {
    let mut r = rng("gap");
    let (alice, bob, carol, dave) = (kp(&mut r), kp(&mut r), kp(&mut r), kp(&mut r));
    let a_to_b = grant(&alice, &bob, "(web)", true, &mut r);
    // Proof about dave ⇒ carol cannot chain onto bob ⇒ alice.
    let c_to_d = grant(&carol, &dave, "(web)", true, &mut r);
    let broken = c_to_d.then(a_to_b);
    assert!(broken.verify(&VerifyCtx::at(Time(0))).is_err());
}

/// A key pair together with its secret exponent: `KeyPair::generate`
/// draws `x` first, so replaying the same seed through
/// `Group::random_exponent` recovers it.
fn kp_with_secret(seed: &str) -> (KeyPair, Ubig) {
    let group = Group::test512();
    let pair = KeyPair::generate(group, &mut rng(seed));
    let x = group.random_exponent(&mut rng(seed));
    assert_eq!(group.power(&x), pair.public.y, "replayed secret");
    (pair, x)
}

/// Re-signs a certificate leaf with the small-order forgery
/// `r' = −g^k`, `e = H(r' ‖ m)`, `s = k + x·e`: the hash binding holds,
/// but `g^s == r'·y^e` fails on the sign, so only the signature check
/// itself can reject it.
fn forge_small_order(leaf: Proof, x: &Ubig, r: &mut impl FnMut(&mut [u8])) -> Proof {
    let Proof::SignedCert(mut cert) = leaf else {
        panic!("not a certificate leaf")
    };
    let group = cert.signer.group;
    let message = cert.signed_bytes();
    loop {
        let k = group.random_exponent(r);
        let neg_r = group.p.sub(&group.power(&k));
        let mut hashed = neg_r.to_bytes_be_padded(group.p.to_bytes_be().len());
        hashed.extend_from_slice(&message);
        let e = Ubig::from_bytes_be(&sha256(&hashed)).rem(&group.q);
        if e.is_zero() {
            continue;
        }
        let s = k.addm(&x.mulm(&e, &group.q), &group.q);
        cert.signature = Signature {
            e,
            s,
            r: Some(neg_r),
        };
        assert!(
            cert.check_structure().is_ok(),
            "the signer still controls the issuer"
        );
        return Proof::SignedCert(cert);
    }
}

#[test]
fn forged_second_leaf_is_named() {
    let mut r = rng("forged-leaf");
    let (alice, x) = kp_with_secret("forged-leaf-alice");
    let (bob, carol) = (kp(&mut r), kp(&mut r));
    let a_to_b = grant(&alice, &bob, "(web)", true, &mut r);
    let b_to_c = grant(&bob, &carol, "(web (method GET))", false, &mut r);
    b_to_c
        .clone()
        .then(a_to_b.clone())
        .verify(&VerifyCtx::at(Time(0)))
        .unwrap();
    // Walk order is subject side first: b_to_c, then the forged a_to_b.
    let forged = forge_small_order(a_to_b, &x, &mut r);
    let named = format!("{:?}", forged.conclusion());
    let err = b_to_c
        .clone()
        .then(forged)
        .verify(&VerifyCtx::at(Time(0)))
        .unwrap_err();
    match err {
        ProofError::BadCertificate(msg) => {
            assert!(msg.contains(&named), "{msg}");
            assert!(
                !msg.contains(&format!("{:?}", b_to_c.conclusion())),
                "{msg}"
            );
        }
        other => panic!("expected BadCertificate, got {other}"),
    }
}

#[test]
fn structural_errors_outrank_forged_signatures() {
    // A transitivity gap and a forged leaf in one proof: the structural
    // pass runs before any signature work, so the gap is what is reported.
    let mut r = rng("gap-and-forgery");
    let (alice, x) = kp_with_secret("gap-and-forgery-alice");
    let (bob, carol, dave) = (kp(&mut r), kp(&mut r), kp(&mut r));
    let a_to_b = forge_small_order(grant(&alice, &bob, "(web)", true, &mut r), &x, &mut r);
    let c_to_d = grant(&carol, &dave, "(web)", true, &mut r);
    let err = c_to_d
        .then(a_to_b)
        .verify(&VerifyCtx::at(Time(0)))
        .unwrap_err();
    assert!(matches!(err, ProofError::BadInference(_)), "{err}");
}

#[test]
fn transitivity_rejects_disjoint_tags() {
    let mut r = rng("disjoint");
    let (alice, bob, carol) = (kp(&mut r), kp(&mut r), kp(&mut r));
    let a_to_b = grant(&alice, &bob, "(web (method GET))", true, &mut r);
    let b_to_c = grant(&bob, &carol, "(db (op select))", true, &mut r);
    let chain = b_to_c.then(a_to_b);
    assert!(chain.verify(&VerifyCtx::at(Time(0))).is_err());
}

#[test]
fn weakening_restricts_but_never_escalates() {
    let mut r = rng("weaken");
    let (alice, bob) = (kp(&mut r), kp(&mut r));
    let full = grant(&alice, &bob, "(web)", true, &mut r);
    let weak_concl = Delegation {
        subject: Principal::key(&bob.public),
        issuer: Principal::key(&alice.public),
        tag: tag("(web (method GET))"),
        validity: Validity::until(Time(500)),
        delegable: false,
    };
    let weak = Proof::Weaken {
        inner: Box::new(full.clone()),
        conclusion: weak_concl.clone(),
    };
    weak.verify(&VerifyCtx::at(Time(100))).unwrap();

    // Escalating the tag is rejected.
    let escalated = Proof::Weaken {
        inner: Box::new(grant(&alice, &bob, "(web (method GET))", true, &mut r)),
        conclusion: Delegation {
            tag: tag("(web)"),
            ..weak_concl.clone()
        },
    };
    assert!(escalated.verify(&VerifyCtx::at(Time(100))).is_err());

    // Changing principals is rejected.
    let swapped = Proof::Weaken {
        inner: Box::new(full),
        conclusion: Delegation {
            subject: Principal::key(&alice.public),
            ..weak_concl
        },
    };
    assert!(swapped.verify(&VerifyCtx::at(Time(100))).is_err());
}

#[test]
fn quoting_monotonicity_both_sides() {
    let mut r = rng("quote");
    let (alice, bob) = (kp(&mut r), kp(&mut r));
    let gateway = Principal::Local {
        broker: HashVal::of(b"host"),
        id: "gateway".into(),
    };
    let b_to_a = grant(&alice, &bob, "(db)", true, &mut r);

    // Quotee side: G|Bob ⇒ G|Alice.
    let q = Proof::QuoteQuotee {
        inner: Box::new(b_to_a.clone()),
        quoter: gateway.clone(),
    };
    q.verify(&VerifyCtx::at(Time(0))).unwrap();
    let c = q.conclusion();
    assert_eq!(
        c.subject,
        Principal::quoting(gateway.clone(), Principal::key(&bob.public))
    );
    assert_eq!(
        c.issuer,
        Principal::quoting(gateway.clone(), Principal::key(&alice.public))
    );

    // Quoter side: Bob|G ⇒ Alice|G.
    let q2 = Proof::QuoteQuoter {
        inner: Box::new(b_to_a),
        quotee: gateway.clone(),
    };
    q2.verify(&VerifyCtx::at(Time(0))).unwrap();
    let c2 = q2.conclusion();
    assert_eq!(
        c2.subject,
        Principal::quoting(Principal::key(&bob.public), gateway.clone())
    );
    assert_eq!(
        c2.issuer,
        Principal::quoting(Principal::key(&alice.public), gateway)
    );
}

#[test]
fn conjunction_intro_and_projection() {
    let mut r = rng("conj");
    let (alice, fs, client) = (kp(&mut r), kp(&mut r), kp(&mut r));
    // The §2.3 disk-block scenario: client ⇒ Alice and client ⇒ FS give
    // client ⇒ Alice ∧ FS.
    let to_alice = grant(&alice, &client, "(disk)", true, &mut r);
    let to_fs = grant(&fs, &client, "(disk (op read))", true, &mut r);
    let conj = Proof::ConjIntro(vec![to_alice, to_fs]);
    conj.verify(&VerifyCtx::at(Time(0))).unwrap();
    let c = conj.conclusion();
    assert_eq!(
        c.issuer,
        Principal::conjunction(vec![
            Principal::key(&alice.public),
            Principal::key(&fs.public)
        ])
    );
    // Tag is the intersection of both grants.
    assert!(c.tag.permits(&tag("(disk (op read))")));
    assert!(!c.tag.permits(&tag("(disk (op write))")));

    // Projection axiom: Alice∧FS ⇒ Alice.
    let conj_p = Principal::conjunction(vec![
        Principal::key(&alice.public),
        Principal::key(&fs.public),
    ]);
    let proj = Proof::ConjProj {
        conjunction: conj_p.clone(),
        index: 0,
    };
    proj.verify(&VerifyCtx::at(Time(0))).unwrap();
    let pc = proj.conclusion();
    assert_eq!(pc.subject, conj_p);
    // Out-of-range projection fails.
    let bad = Proof::ConjProj {
        conjunction: conj_p,
        index: 9,
    };
    assert!(bad.verify(&VerifyCtx::at(Time(0))).is_err());
}

#[test]
fn conjunction_intro_requires_common_subject() {
    let mut r = rng("conj2");
    let (alice, fs, c1, c2) = (kp(&mut r), kp(&mut r), kp(&mut r), kp(&mut r));
    let p1 = grant(&alice, &c1, "(disk)", true, &mut r);
    let p2 = grant(&fs, &c2, "(disk)", true, &mut r);
    let conj = Proof::ConjIntro(vec![p1, p2]);
    assert!(conj.verify(&VerifyCtx::at(Time(0))).is_err());
}

#[test]
fn threshold_k_of_n() {
    let mut r = rng("threshold");
    let (s1, s2, s3, client) = (kp(&mut r), kp(&mut r), kp(&mut r), kp(&mut r));
    let threshold = Principal::Threshold {
        k: 2,
        subjects: vec![
            Principal::key(&s1.public),
            Principal::key(&s2.public),
            Principal::key(&s3.public),
        ],
    };
    let p1 = grant(&s1, &client, "(vault)", true, &mut r);
    let p2 = grant(&s2, &client, "(vault)", true, &mut r);

    let ok = Proof::ThresholdIntro {
        threshold: threshold.clone(),
        proofs: vec![(0, p1.clone()), (1, p2.clone())],
    };
    ok.verify(&VerifyCtx::at(Time(0))).unwrap();
    assert_eq!(ok.conclusion().issuer, threshold);

    // Only one distinct subject: fails.
    let dup = Proof::ThresholdIntro {
        threshold: threshold.clone(),
        proofs: vec![(0, p1.clone()), (0, p1.clone())],
    };
    assert!(dup.verify(&VerifyCtx::at(Time(0))).is_err());

    // Proof targets the wrong subject slot: fails.
    let misplaced = Proof::ThresholdIntro {
        threshold,
        proofs: vec![(1, p1), (0, p2)],
    };
    assert!(misplaced.verify(&VerifyCtx::at(Time(0))).is_err());
}

/// The paper's Figure 1: a structured proof that document D is the object
/// client C associates with the name N.
///
/// ```text
/// transitivity
/// ├─ transitivity
/// │  ├─ signed-certificate  H_D ⇒ K_S
/// │  └─ signed-certificate  K_S ⇒ H_{K_C}·N
/// └─ name-monotonicity      H_{K_C}·N ⇒ K_C·N
///    └─ hash-identity       H_{K_C} ⇒ K_C
/// ```
#[test]
fn figure1_structured_proof() {
    let mut r = rng("figure1");
    let server = kp(&mut r); // K_S
    let client = kp(&mut r); // K_C
    let document = b"the content of document D";
    let h_d = Principal::message(document); // H_D

    // signed-certificate: H_D ⇒ K_S (the server vouches for the document).
    let cert1 = Certificate::issue(
        &server,
        Delegation {
            subject: h_d.clone(),
            issuer: Principal::key(&server.public),
            tag: Tag::Star,
            // The short-lived statement the paper mentions.
            validity: Validity::until(Time(1_000)),
            delegable: true,
        },
        &mut r,
    );

    // signed-certificate: K_S ⇒ H_{K_C}·N (the client's name cert, issued
    // under the hash of the client's key).
    let hkc = Principal::key_hash(&client.public);
    let name_n = Principal::name(hkc.clone(), "N");
    let cert2 = Certificate::issue(
        &client,
        Delegation {
            subject: Principal::key(&server.public),
            issuer: name_n.clone(),
            tag: Tag::Star,
            validity: Validity::always(),
            delegable: true,
        },
        &mut r,
    );

    // hash-identity: H_{K_C} ⇒ K_C, then name-monotonicity lifts it to
    // H_{K_C}·N ⇒ K_C·N.
    let hash_ident = Proof::HashIdent {
        key: Box::new(client.public.clone()),
        alg: HashAlg::Sha256,
        hash_to_key: true,
    };
    let name_mono = Proof::NameMono {
        inner: Box::new(hash_ident),
        name: "N".into(),
    };

    // Assemble exactly the Figure 1 tree.
    let ks_to_name = Proof::signed_cert(cert2).then(name_mono);
    let full = Proof::signed_cert(cert1).then(ks_to_name.clone());

    let ctx = VerifyCtx::at(Time(500));
    full.verify(&ctx).unwrap();
    let c = full.conclusion();
    assert_eq!(c.subject, h_d);
    assert_eq!(
        c.issuer,
        Principal::name(Principal::key(&client.public), "N")
    );

    // The topmost statement expires with the short-lived H_D ⇒ K_S…
    assert!(!c.validity.contains(Time(2_000)));
    let expired_ctx = VerifyCtx::at(Time(2_000));
    assert!(full
        .authorizes(&c.subject, &c.issuer, &Tag::Star, &expired_ctx)
        .is_err());

    // …but the still-useful lemma K_S ⇒ K_C·N can be extracted and reused.
    let lemma = ks_to_name;
    lemma.verify(&expired_ctx).unwrap();
    let lc = lemma.conclusion();
    assert_eq!(lc.subject, Principal::key(&server.public));
    assert_eq!(
        lc.issuer,
        Principal::name(Principal::key(&client.public), "N")
    );
    assert!(lc.validity.contains(Time(2_000)));

    // The lemma also appears in the full proof's lemma enumeration.
    let lemmas = full.lemmas();
    assert!(lemmas.iter().any(|l| l.conclusion() == lc));
    assert_eq!(full.size(), 6, "Figure 1 has six proof nodes");
}

#[test]
fn expiry_is_part_of_the_restriction() {
    let mut r = rng("expiry");
    let (alice, bob) = (kp(&mut r), kp(&mut r));
    let d = Delegation {
        subject: Principal::key(&bob.public),
        issuer: Principal::key(&alice.public),
        tag: tag("(web)"),
        validity: Validity::between(Time(100), Time(200)),
        delegable: false,
    };
    let proof = Proof::signed_cert(Certificate::issue(&alice, d, &mut r));
    let subject = Principal::key(&bob.public);
    let issuer = Principal::key(&alice.public);
    let req = tag("(web (method GET))");

    // Valid in-window, rejected outside — with no re-verification needed:
    // matching disregards expired conclusions.
    assert!(proof
        .authorizes(&subject, &issuer, &req, &VerifyCtx::at(Time(150)))
        .is_ok());
    assert!(proof
        .authorizes(&subject, &issuer, &req, &VerifyCtx::at(Time(50)))
        .is_err());
    assert!(proof
        .authorizes(&subject, &issuer, &req, &VerifyCtx::at(Time(250)))
        .is_err());
}

#[test]
fn authorizes_checks_speaker_issuer_and_tag() {
    let mut r = rng("authz");
    let (alice, bob, eve) = (kp(&mut r), kp(&mut r), kp(&mut r));
    let proof = grant(&alice, &bob, "(web (method GET))", false, &mut r);
    let ctx = VerifyCtx::at(Time(0));
    let bob_p = Principal::key(&bob.public);
    let alice_p = Principal::key(&alice.public);

    assert!(proof
        .authorizes(&bob_p, &alice_p, &tag("(web (method GET))"), &ctx)
        .is_ok());
    // Wrong speaker.
    assert!(proof
        .authorizes(
            &Principal::key(&eve.public),
            &alice_p,
            &tag("(web (method GET))"),
            &ctx
        )
        .is_err());
    // Wrong issuer.
    assert!(proof
        .authorizes(
            &bob_p,
            &Principal::key(&eve.public),
            &tag("(web (method GET))"),
            &ctx
        )
        .is_err());
    // Request outside the restriction.
    assert!(proof
        .authorizes(&bob_p, &alice_p, &tag("(web (method DELETE))"), &ctx)
        .is_err());
}

#[test]
fn assumptions_require_verifier_vouching() {
    let ch = Principal::Channel(ChannelId {
        kind: "ssh".into(),
        id: HashVal::of(b"sess"),
    });
    let key_p = Principal::message(b"peer-key-stand-in");
    let stmt = Delegation::axiom(ch, key_p);
    let proof = Proof::Assumption {
        stmt: stmt.clone(),
        authority: "ssh-channel".into(),
    };

    // Unvouched: rejected.
    assert!(matches!(
        proof.verify(&VerifyCtx::at(Time(0))),
        Err(ProofError::UntrustedAssumption(_))
    ));
    // Vouched by the verifier's own channel machinery: accepted.
    let mut ctx = VerifyCtx::at(Time(0));
    ctx.assume(&stmt);
    proof.verify(&ctx).unwrap();
    // The audit trail names the vouching mechanism.
    assert!(proof.audit_trail().contains("ssh-channel"));
}

#[test]
fn proof_sexp_roundtrip_all_rules() {
    let mut r = rng("roundtrip");
    let (alice, bob) = (kp(&mut r), kp(&mut r));
    let base = grant(&alice, &bob, "(web)", true, &mut r);
    let gateway = Principal::Local {
        broker: HashVal::of(b"b"),
        id: "gw".into(),
    };
    let conj = Principal::conjunction(vec![Principal::message(b"x"), Principal::message(b"y")]);
    let threshold = Principal::Threshold {
        k: 1,
        subjects: vec![Principal::key(&alice.public)],
    };

    let samples: Vec<Proof> = vec![
        base.clone(),
        Proof::Assumption {
            stmt: Delegation::axiom(Principal::message(b"m"), Principal::message(b"k")),
            authority: "local-broker".into(),
        },
        Proof::Reflex(Principal::message(b"self")),
        base.clone()
            .then(grant(&bob, &alice, "(web)", true, &mut r)),
        Proof::Weaken {
            inner: Box::new(base.clone()),
            conclusion: Delegation {
                subject: Principal::key(&bob.public),
                issuer: Principal::key(&alice.public),
                tag: tag("(web (method GET))"),
                validity: Validity::always(),
                delegable: false,
            },
        },
        Proof::QuoteQuotee {
            inner: Box::new(base.clone()),
            quoter: gateway.clone(),
        },
        Proof::QuoteQuoter {
            inner: Box::new(base.clone()),
            quotee: gateway,
        },
        Proof::ConjIntro(vec![base.clone(), base.clone()]),
        Proof::ConjProj {
            conjunction: conj,
            index: 1,
        },
        Proof::ThresholdIntro {
            threshold,
            proofs: vec![(0, grant(&alice, &bob, "(x)", true, &mut r))],
        },
        Proof::NameMono {
            inner: Box::new(base.clone()),
            name: "mail".into(),
        },
        Proof::HashIdent {
            key: Box::new(alice.public.clone()),
            alg: HashAlg::Sha256,
            hash_to_key: true,
        },
        Proof::HashIdent {
            key: Box::new(alice.public.clone()),
            alg: HashAlg::Md5,
            hash_to_key: false,
        },
    ];

    for p in samples {
        let e = p.to_sexp();
        let back = Proof::from_sexp(&e).unwrap_or_else(|err| panic!("{p:?}: {err}"));
        assert_eq!(back, p);
        // Conclusions survive the round trip.
        assert_eq!(back.conclusion(), p.conclusion());
        // And the transport encoding (HTTP header form) as well.
        let transported = Sexp::parse(e.transport().as_bytes()).unwrap();
        assert_eq!(Proof::from_sexp(&transported).unwrap(), p);
    }
}

#[test]
fn knowledge_of_proof_bestows_nothing() {
    // "While they prove that a given principal has authority, knowledge of
    // the proof by an adversary does not bestow authority on the adversary."
    let mut r = rng("adversary");
    let (alice, bob, eve) = (kp(&mut r), kp(&mut r), kp(&mut r));
    let proof = grant(&alice, &bob, "(web)", false, &mut r);
    let ctx = VerifyCtx::at(Time(0));

    // Eve holds the proof bytes; replaying them names Bob, not Eve.
    let stolen = Proof::from_sexp(&proof.to_sexp()).unwrap();
    assert!(stolen
        .authorizes(
            &Principal::key(&eve.public),
            &Principal::key(&alice.public),
            &tag("(web)"),
            &ctx
        )
        .is_err());

    // Eve cannot rewrite the subject — with only her own key, the best she
    // can mint is a statement about *Eve's* authority space.
    let replacement = Certificate::issue(
        &eve,
        Delegation {
            subject: Principal::key(&eve.public),
            issuer: Principal::key(&eve.public),
            tag: tag("(web)"),
            validity: Validity::always(),
            delegable: false,
        },
        &mut r,
    );
    let forged = Proof::from_sexp(&replacement.to_sexp()).unwrap();
    assert!(forged
        .authorizes(
            &Principal::key(&eve.public),
            &Principal::key(&alice.public),
            &tag("(web)"),
            &ctx
        )
        .is_err());
}

#[test]
fn revocation_crl_flow() {
    let mut r = rng("crl-flow");
    let (alice, bob, validator) = (kp(&mut r), kp(&mut r), kp(&mut r));
    let d = Delegation {
        subject: Principal::key(&bob.public),
        issuer: Principal::key(&alice.public),
        tag: tag("(web)"),
        validity: Validity::always(),
        delegable: false,
    };
    let cert = Certificate::issue_with_revocation(
        &alice,
        d,
        Some(RevocationPolicy::Crl {
            validator: validator.public.hash(),
        }),
        &mut r,
    );
    let cert_hash = cert.hash();
    let proof = Proof::signed_cert(cert);

    // No CRL installed: cannot verify.
    let ctx = VerifyCtx::at(Time(100));
    assert!(matches!(proof.verify(&ctx), Err(ProofError::Revoked(_))));

    // Clean CRL: verifies.
    let ctx_ok = ctx_with(
        Time(100),
        RevocationTable::default().install_crl(Crl::issue(
            &validator,
            vec![],
            Validity::until(Time(1_000)),
            &mut r,
        )),
    );
    proof.verify(&ctx_ok).unwrap();

    // CRL listing the cert: revoked.
    let ctx_revoked = ctx_with(
        Time(100),
        RevocationTable::default().install_crl(Crl::issue(
            &validator,
            vec![cert_hash],
            Validity::until(Time(1_000)),
            &mut r,
        )),
    );
    assert!(matches!(
        proof.verify(&ctx_revoked),
        Err(ProofError::Revoked(_))
    ));

    // Stale CRL: not acceptable.
    let ctx_stale = ctx_with(
        Time(5_000),
        RevocationTable::default().install_crl(Crl::issue(
            &validator,
            vec![],
            Validity::until(Time(1_000)),
            &mut r,
        )),
    );
    assert!(matches!(
        proof.verify(&ctx_stale),
        Err(ProofError::Revoked(_))
    ));
}

/// A context at `now` with `table` attached as its revocation source.
fn ctx_with(now: Time, table: &RevocationTable) -> VerifyCtx {
    VerifyCtx::at(now).with_revocation_source(std::sync::Arc::new(table.clone()))
}

#[test]
fn revocation_revalidation_flow() {
    let mut r = rng("reval-flow");
    let (alice, bob, validator) = (kp(&mut r), kp(&mut r), kp(&mut r));
    let d = Delegation {
        subject: Principal::key(&bob.public),
        issuer: Principal::key(&alice.public),
        tag: tag("(web)"),
        validity: Validity::always(),
        delegable: false,
    };
    let cert = Certificate::issue_with_revocation(
        &alice,
        d,
        Some(RevocationPolicy::Revalidate {
            validator: validator.public.hash(),
        }),
        &mut r,
    );
    let cert_hash = cert.hash();
    let proof = Proof::signed_cert(cert);

    // Without a fresh revalidation: rejected.
    assert!(proof.verify(&VerifyCtx::at(Time(100))).is_err());

    // With a fresh one-time revalidation of this certificate: accepted
    // inside its window…
    let mut table = RevocationTable::default();
    table.install_revalidation(Revalidation::issue(
        &validator,
        cert_hash,
        Validity::between(Time(90), Time(110)),
        &mut r,
    ));
    proof.verify(&ctx_with(Time(100), &table)).unwrap();

    // …and refused once the same artifact's window has passed.
    assert!(matches!(
        proof.verify(&ctx_with(Time(200), &table)),
        Err(ProofError::Revoked(_))
    ));
}

#[test]
fn audit_trail_shows_end_to_end_chain() {
    let mut r = rng("audit");
    let (alice, bob, carol) = (kp(&mut r), kp(&mut r), kp(&mut r));
    let chain =
        grant(&bob, &carol, "(web)", true, &mut r).then(grant(&alice, &bob, "(web)", true, &mut r));
    let trail = chain.audit_trail();
    assert!(trail.contains("transitivity"));
    assert_eq!(trail.matches("signed-certificate").count(), 2);
}

#[test]
fn reflexivity_holds() {
    let p = Principal::message(b"self");
    let proof = Proof::Reflex(p.clone());
    proof.verify(&VerifyCtx::at(Time(0))).unwrap();
    let c = proof.conclusion();
    assert_eq!(c.subject, p);
    assert_eq!(c.issuer, p);
}
