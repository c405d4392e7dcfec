//! Table 1: the per-phase cost breakdown of the MAC authorization protocol.
//!
//! Paper columns (ms): SSL request = 5 + 20 + 22 = 47; Snowflake MAC
//! request = 5 + 20 + ~20 + ~20 + 17 + 28 = 110.  Each phase below is one
//! paper row; the criterion IDs match the row labels.
//!
//! Row 6 comes in two speeds: the cold verify (every request re-proves the
//! chain) and the memoized verify (the verified-chain memo answers a
//! re-presented proof without redoing the exponentiations) — the servlet
//! steady state once a client's chain has been seen.  Row 6c is that
//! memo hit as a server takes it — through a `Surface`'s per-decision
//! context — on a chain governed by a CRL with 10,000 revoked entries
//! attached: the per-decision context shares the list, so the row must
//! not grow with its length.
//!
//! Set `SF_BENCH_SMOKE=1` to run each phase once (CI smoke mode: proves
//! the rigs still build and verify, measures nothing).

use criterion::{criterion_group, criterion_main, Criterion};
use snowflake_bench::rigs::{self, HttpKind, Tier};
use snowflake_bench::{report_json, time_it};
use snowflake_core::{
    Certificate, ChainMemo, Crl, Delegation, HashVal, Principal, Proof, RevocationPolicy,
    RevocationTable, Tag, Time, Validity, VerifyCtx,
};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_crypto::hmac::hmac_sha256;
use snowflake_http::HttpRequest;
use snowflake_sexpr::Sexp;
use std::sync::Arc;

fn phases(c: &mut Criterion) {
    let smoke = std::env::var_os("SF_BENCH_SMOKE").is_some();

    // The proof-processing rows time a representative two-certificate
    // chain — the same shape a servlet parses and verifies per request.
    let proof_wire = representative_wire();
    let tree = Sexp::parse(&proof_wire).expect("parse");
    let proof = Proof::from_sexp(&tree).expect("decode");
    let ctx = VerifyCtx::at(Time(1_000_000));
    // The memo row: the same proof re-presented to a context holding a
    // verified-chain memo.  The first call verifies and records; every
    // timed call is a hit that skips the exponentiations.
    let memo = Arc::new(ChainMemo::new(64));
    let memo_ctx = VerifyCtx::at(Time(1_000_000)).with_chain_memo(Arc::clone(&memo));
    memo_ctx.verify_cached(&proof).expect("warm the memo");
    let crl_rig = CrlRig::new(10_000);
    crl_rig.hit();

    if smoke {
        let mut mini = rigs::http_rig(HttpKind::Mini);
        mini.get();
        let mut framework = rigs::http_rig(HttpKind::Framework);
        framework.get();
        let mut ssl = rigs::ssl_rig(Tier::Framework, false);
        ssl.get();
        proof.verify(&ctx).expect("cold verify");
        memo_ctx.verify_cached(&proof).expect("memo hit");
        assert!(memo.stats().hits >= 1, "memo hit counter must move");
        crl_rig.hit();
        assert!(crl_rig.surface.chain_memo().stats().hits >= 1, "CRL row must hit");
        let now = crl_rig.surface.now();
        let resolved = crl_rig
            .surface
            .verify_ctx(now)
            .revocation_source()
            .crl(&crl_rig.validator, now)
            .expect("the attached list is current");
        assert!(
            Arc::ptr_eq(&resolved, &crl_rig.list),
            "the per-decision context shares the attached list"
        );
        println!("table1/smoke ok (rigs, cold verify, memo hit and CRL memo hit all pass)");
        return;
    }

    let mut group = c.benchmark_group("table1");

    let mut mini = rigs::http_rig(HttpKind::Mini);
    group.bench_function("row1_minimum_http_get", |b| {
        b.iter(|| mini.get());
    });

    let mut framework = rigs::http_rig(HttpKind::Framework);
    group.bench_function("row2_framework_http_get", |b| {
        b.iter(|| framework.get());
    });

    let mut ssl = rigs::ssl_rig(Tier::Framework, false);
    group.bench_function("row3_ssl_http_get", |b| {
        b.iter(|| ssl.get());
    });

    group.bench_function("row4_sexp_parsing", |b| {
        b.iter(|| Sexp::parse(&proof_wire).expect("parse"));
    });

    group.bench_function("row5_spki_unmarshalling", |b| {
        b.iter(|| Proof::from_sexp(&tree).expect("decode"));
    });

    group.bench_function("row6_other_snowflake_verify_marshal", |b| {
        b.iter(|| {
            proof.verify(&ctx).expect("verify");
            proof.to_sexp()
        });
    });

    group.bench_function("row6b_memoized_verify", |b| {
        b.iter(|| memo_ctx.verify_cached(&proof).expect("memo hit"));
    });

    group.bench_function("row6c_memo_hit_crl10k", |b| {
        b.iter(|| crl_rig.hit());
    });

    let mut req = HttpRequest::get("/doc");
    req.set_header("Connection", "keep-alive");
    let secret = [7u8; 32];
    group.bench_function("row7_mac_costs", |b| {
        b.iter(|| {
            let h = snowflake_http::request_hash(&req, snowflake_core::HashAlg::Sha256);
            hmac_sha256(&secret, &h.bytes)
        });
    });

    group.finish();

    // One measured pass per proof-path row for the JSON-lines report,
    // with the memo counters proving the hit path is what was timed.
    let ns = |d: std::time::Duration| d.as_nanos().to_string();
    let parse = time_it(10, 500, || {
        Sexp::parse(&proof_wire).expect("parse");
    });
    let unmarshal = time_it(10, 500, || {
        Proof::from_sexp(&tree).expect("decode");
    });
    let cold = time_it(3, 100, || proof.verify(&ctx).expect("verify"));
    let hit = time_it(10, 2000, || {
        memo_ctx.verify_cached(&proof).expect("memo hit");
    });
    let hit_crl = time_it(10, 2000, || crl_rig.hit());
    let stats = memo.stats();
    report_json(
        "table1_breakdown",
        &[
            ("sexp_parse_ns", ns(parse)),
            ("unmarshal_ns", ns(unmarshal)),
            ("cold_verify_ns", ns(cold)),
            ("memo_hit_verify_ns", ns(hit)),
            ("memo_hit_crl10k_ns", ns(hit_crl)),
            ("memo_hits", stats.hits.to_string()),
            ("memo_misses", stats.misses.to_string()),
        ],
    );
}

/// Row 6c's rig: a surface with a CRL of `revoked` entries attached, and
/// a one-certificate chain that list governs (and spares).
struct CrlRig {
    surface: snowflake_runtime::Surface,
    proof: Proof,
    subject: Principal,
    issuer: Principal,
    validator: HashVal,
    list: Arc<Crl>,
}

impl CrlRig {
    fn new(revoked: u64) -> CrlRig {
        fn at_1m() -> Time {
            Time(1_000_000)
        }
        let mut rng = DetRng::new(b"bench-crl");
        let mut rb = move |b: &mut [u8]| rng.fill(b);
        let owner = KeyPair::generate(Group::test512(), &mut rb);
        let validator = KeyPair::generate(Group::test512(), &mut rb);
        let subject = Principal::message(b"the request");
        let issuer = Principal::key(&owner.public);
        let cert = Certificate::issue_with_revocation(
            &owner,
            Delegation {
                subject: subject.clone(),
                issuer: issuer.clone(),
                tag: Tag::Star,
                validity: Validity::always(),
                delegable: false,
            },
            Some(RevocationPolicy::Crl {
                validator: validator.public.hash(),
            }),
            &mut rb,
        );
        let entries = (0..revoked).map(|i| HashVal::of(&i.to_be_bytes())).collect();
        let list = Arc::new(Crl::issue(&validator, entries, Validity::until(Time(2_000_000)), &mut rb));
        let mut table = RevocationTable::default();
        table.install_crl(Arc::clone(&list));
        let surface = snowflake_runtime::Surface::new("table1-crl").with_clock(at_1m);
        surface.set_revocation_source(Arc::new(table));
        CrlRig {
            surface,
            proof: Proof::signed_cert(cert),
            subject,
            issuer,
            validator: validator.public.hash(),
            list,
        }
    }

    /// One decision as a server takes it: a fresh per-decision context,
    /// then the memoized authorization.
    fn hit(&self) {
        let ctx = self.surface.verify_ctx(self.surface.now());
        ctx.authorize(&self.proof, &self.subject, &self.issuer, &Tag::Star)
            .expect("the list spares the chain");
    }
}

/// A two-certificate chain like the one a server verifies per request.
fn representative_wire() -> Vec<u8> {
    let mut rng = DetRng::new(b"bench-wire");
    let mut rb = move |b: &mut [u8]| rng.fill(b);
    let owner = KeyPair::generate(Group::test512(), &mut rb);
    let alice = KeyPair::generate(Group::test512(), &mut rb);
    let tag = Tag::named("web", vec![Tag::named("method", vec![Tag::atom("GET")])]);
    let c1 = Certificate::issue(
        &owner,
        Delegation {
            subject: Principal::key(&alice.public),
            issuer: Principal::key(&owner.public),
            tag: tag.clone(),
            validity: Validity::always(),
            delegable: true,
        },
        &mut rb,
    );
    let c2 = Certificate::issue(
        &alice,
        Delegation {
            subject: Principal::message(b"the request"),
            issuer: Principal::key(&alice.public),
            tag,
            validity: Validity::until(Time(2_000_000)),
            delegable: false,
        },
        &mut rb,
    );
    Proof::signed_cert(c2)
        .then(Proof::signed_cert(c1))
        .to_sexp()
        .canonical()
}

criterion_group!(benches, phases);
criterion_main!(benches);
