//! Table 1: the per-phase cost breakdown of the MAC authorization protocol.
//!
//! Paper columns (ms): SSL request = 5 + 20 + 22 = 47; Snowflake MAC
//! request = 5 + 20 + ~20 + ~20 + 17 + 28 = 110.  Each phase below is one
//! paper row; the criterion IDs match the row labels.
//!
//! Row 6 comes in two speeds: the cold verify (every request re-proves the
//! chain) and the memoized verify (the verified-chain memo answers a
//! re-presented proof without redoing the exponentiations) — the servlet
//! steady state once a client's chain has been seen.
//!
//! Set `SF_BENCH_SMOKE=1` to run each phase once (CI smoke mode: proves
//! the rigs still build and verify, measures nothing).

use criterion::{criterion_group, criterion_main, Criterion};
use snowflake_bench::rigs::{self, HttpKind, Tier};
use snowflake_bench::{report_json, time_it};
use snowflake_core::{ChainMemo, Proof, Time, VerifyCtx};
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
        println!("table1/smoke ok (rigs, cold verify, and memo hit all pass)");
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
    let stats = memo.stats();
    report_json(
        "table1_breakdown",
        &[
            ("sexp_parse_ns", ns(parse)),
            ("unmarshal_ns", ns(unmarshal)),
            ("cold_verify_ns", ns(cold)),
            ("memo_hit_verify_ns", ns(hit)),
            ("memo_hits", stats.hits.to_string()),
            ("memo_misses", stats.misses.to_string()),
        ],
    );
}

/// A two-certificate chain like the one a server verifies per request.
fn representative_wire() -> Vec<u8> {
    use snowflake_core::{Certificate, Delegation, Principal, Tag, Validity};
    use snowflake_crypto::{DetRng, Group, KeyPair};
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
