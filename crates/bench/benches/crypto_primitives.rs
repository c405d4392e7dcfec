//! Ablation: the primitive operations underlying every figure.
//!
//! The paper's cost analysis (§7.4.1) argues that Snowflake and SSL "engage
//! in similar operations"; this bench exposes the primitive costs so the
//! composite figures can be sanity-checked against their parts: public-key
//! sign/verify dominate everything else by orders of magnitude, which is
//! exactly why the MAC amortization and the proof cache exist.
//!
//! The verify rows come in two speeds: `*_generic` runs every
//! exponentiation through plain square-and-multiply (the pre-table
//! baseline), and the unsuffixed rows run the production path
//! (sliding-window exponentiation plus fixed-base tables for the group
//! generator and for issuer keys seen often enough to be promoted into
//! the key-table cache).
//!
//! Set `SF_BENCH_SMOKE=1` to run each primitive once (CI smoke mode:
//! proves the rigs still build and the fast paths agree with the
//! baseline, measures nothing).

use criterion::{criterion_group, criterion_main, Criterion};
use snowflake_bench::{report_json, time_it};
use snowflake_crypto::chacha20::ChaCha20;
use snowflake_crypto::hmac::hmac_sha256;
use snowflake_crypto::{md5, sha256, DetRng, DhSecret, Group, KeyPair};

fn primitives(c: &mut Criterion) {
    let mut rng = DetRng::new(b"crypto-bench");
    let mut rb = move |b: &mut [u8]| rng.fill(b);
    let kp = KeyPair::generate(Group::test512(), &mut rb);
    let kp1024 = KeyPair::generate(Group::group1024(), &mut rb);
    let msg = vec![0xabu8; 1024];
    let sig = kp.sign(&msg, &mut rb);
    let sig1024 = kp1024.sign(&msg, &mut rb);
    // Warm both keys past the key-table cache's promotion threshold so
    // the unsuffixed verify rows time the steady state — an issuer key
    // the server has seen before, served from its fixed-base table.
    for _ in 0..3 {
        assert!(kp.public.verify(&msg, &sig));
        assert!(kp1024.public.verify(&msg, &sig1024));
    }

    if std::env::var_os("SF_BENCH_SMOKE").is_some() {
        assert!(kp.public.verify_uncached(&msg, &sig));
        assert!(kp1024.public.verify_uncached(&msg, &sig1024));
        println!("crypto/smoke ok (generic and fixed-base paths agree)");
        return;
    }

    let mut group = c.benchmark_group("crypto");
    group.bench_function("sha256_1k", |b| b.iter(|| sha256(&msg)));
    group.bench_function("md5_1k", |b| b.iter(|| md5(&msg)));
    group.bench_function("hmac_sha256_1k", |b| b.iter(|| hmac_sha256(b"key", &msg)));
    group.bench_function("chacha20_1k", |b| {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        b.iter(|| {
            let mut data = msg.clone();
            ChaCha20::new(&key, &nonce).apply(&mut data);
            data
        })
    });

    group.sample_size(20);
    group.bench_function("schnorr_sign_512", |b| {
        let mut rng = DetRng::new(b"sign-bench");
        let mut rb = move |buf: &mut [u8]| rng.fill(buf);
        b.iter(|| kp.sign(&msg, &mut rb));
    });
    group.bench_function("schnorr_verify_512", |b| {
        b.iter(|| kp.public.verify(&msg, &sig))
    });
    group.bench_function("schnorr_verify_512_generic", |b| {
        b.iter(|| kp.public.verify_uncached(&msg, &sig))
    });
    group.bench_function("schnorr_sign_1024", |b| {
        let mut rng = DetRng::new(b"sign-bench-1024");
        let mut rb = move |buf: &mut [u8]| rng.fill(buf);
        b.iter(|| kp1024.sign(&msg, &mut rb));
    });
    group.bench_function("schnorr_verify_1024", |b| {
        b.iter(|| kp1024.public.verify(&msg, &sig1024))
    });
    group.bench_function("schnorr_verify_1024_generic", |b| {
        b.iter(|| kp1024.public.verify_uncached(&msg, &sig1024))
    });
    group.bench_function("dh_agreement_512", |b| {
        let mut rng = DetRng::new(b"dh-bench");
        let mut rb = move |buf: &mut [u8]| rng.fill(buf);
        let peer = DhSecret::generate(Group::test512(), &mut rb);
        b.iter_batched(
            || DhSecret::generate(Group::test512(), &mut rb),
            |mine| mine.agree(&peer.public).expect("valid share"),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();

    // One measured pass per verify path for the JSON-lines report.
    let ns = |d: std::time::Duration| d.as_nanos().to_string();
    let v512_generic = time_it(3, 100, || assert!(kp.public.verify_uncached(&msg, &sig)));
    let v512_fast = time_it(3, 200, || assert!(kp.public.verify(&msg, &sig)));
    let v1024_generic = time_it(2, 20, || {
        assert!(kp1024.public.verify_uncached(&msg, &sig1024))
    });
    let v1024_fast = time_it(2, 40, || assert!(kp1024.public.verify(&msg, &sig1024)));
    report_json(
        "crypto_primitives",
        &[
            ("verify_512_generic_ns", ns(v512_generic)),
            ("verify_512_fixed_base_ns", ns(v512_fast)),
            ("verify_1024_generic_ns", ns(v1024_generic)),
            ("verify_1024_fixed_base_ns", ns(v1024_fast)),
        ],
    );
}

criterion_group!(benches, primitives);
criterion_main!(benches);
