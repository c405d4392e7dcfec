//! Contention rigs: multi-threaded throughput of the two hottest
//! server-side read paths — prover search and MAC verification.
//!
//! Both paths used to funnel through one global lock (a write-locked BFS
//! in the Prover, a single-`Mutex` `MacSessionStore`), so adding threads
//! added nothing.  The rigs here run a fixed amount of total work split
//! across T threads; with the read-mostly prover graph and the sharded
//! session store, wall time should *drop* as T grows toward the core
//! count instead of staying flat.

use snowflake_core::{
    Certificate, Delegation, HashVal, Principal, Proof, Tag, Time, Validity,
};
use snowflake_crypto::{DetRng, Group, KeyPair};
use snowflake_http::mac::ClientMacSession;
use snowflake_http::MacSessionStore;
use snowflake_prover::Prover;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn det(seed: &str) -> impl FnMut(&mut [u8]) {
    let mut r = DetRng::new(seed.as_bytes());
    move |b: &mut [u8]| r.fill(b)
}

fn kp(seed: &str) -> KeyPair {
    let mut r = det(seed);
    KeyPair::generate(Group::test512(), &mut r)
}

fn web_tag() -> Tag {
    Tag::named("web", vec![])
}

// ======================================================================
// Prover search under contention
// ======================================================================

/// A prover whose graph holds one shared deep chain plus one direct
/// delegation per tenant, and the query mix threads run against it.
pub struct ProverContentionRig {
    /// The shared prover.
    pub prover: Arc<Prover>,
    /// Deep-chain endpoints (subject, issuer).
    pub chain: (Principal, Principal),
    /// Per-tenant subjects, all delegated directly from the chain issuer.
    pub tenants: Vec<Principal>,
}

/// Builds the shared graph: a `depth`-edge chain to exercise BFS and
/// `tenants` single-hop edges to exercise the subject-indexed fast path.
pub fn prover_contention_rig(depth: usize, tenants: usize) -> ProverContentionRig {
    let prover = Arc::new(Prover::with_rng(Box::new(det("contention-prover"))));
    let keys: Vec<KeyPair> = (0..=depth).map(|i| kp(&format!("cont-{i}"))).collect();
    let mut rng = det("contention-issue");
    for i in 0..depth {
        let d = Delegation {
            subject: Principal::key(&keys[i + 1].public),
            issuer: Principal::key(&keys[i].public),
            tag: web_tag(),
            validity: Validity::always(),
            delegable: true,
        };
        prover.add_proof(Proof::signed_cert(Certificate::issue(&keys[i], d, &mut rng)));
    }
    let issuer = Principal::key(&keys[0].public);
    let tenants: Vec<Principal> = (0..tenants)
        .map(|t| {
            let subject = Principal::message(format!("tenant-{t}").as_bytes());
            let d = Delegation {
                subject: subject.clone(),
                issuer: issuer.clone(),
                tag: web_tag(),
                validity: Validity::always(),
                delegable: false,
            };
            prover.add_proof(Proof::signed_cert(Certificate::issue(&keys[0], d, &mut rng)));
            subject
        })
        .collect();
    ProverContentionRig {
        prover,
        chain: (Principal::key(&keys[depth].public), issuer),
        tenants,
    }
}

/// Runs `total_queries` warm `find_proof` calls split over `threads`
/// threads (each thread alternates its own tenant lookups with the shared
/// deep-chain query) and returns the wall time for the whole batch.
pub fn run_prover_contention(
    rig: &ProverContentionRig,
    threads: usize,
    total_queries: usize,
) -> Duration {
    let per_thread = total_queries / threads.max(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let prover = Arc::clone(&rig.prover);
            let tenant = rig.tenants[t % rig.tenants.len()].clone();
            let (chain_subject, issuer) = (rig.chain.0.clone(), rig.chain.1.clone());
            s.spawn(move || {
                for q in 0..per_thread {
                    let subject = if q % 2 == 0 { &tenant } else { &chain_subject };
                    assert!(
                        prover
                            .find_proof(subject, &issuer, &web_tag(), Time(0))
                            .is_some(),
                        "contention lost an answer"
                    );
                }
            });
        }
    });
    start.elapsed()
}

// ======================================================================
// MAC verification under contention
// ======================================================================

/// A sharded session store with pre-established sessions and, per session,
/// one pre-authenticated request (id, MAC bytes, request hash).
pub struct MacContentionRig {
    /// The shared store.
    pub store: Arc<MacSessionStore>,
    /// `(mac_id, mac_bytes, request_hash)` per established session.
    pub requests: Vec<(HashVal, Vec<u8>, HashVal)>,
}

/// Establishes `sessions` MAC sessions and precomputes one valid request
/// MAC for each, so the measured loop is pure server-side `verify`.
pub fn mac_contention_rig(sessions: usize) -> MacContentionRig {
    let store = Arc::new(MacSessionStore::new());
    let mut srng = det("mac-cont-server");
    let requests = (0..sessions)
        .map(|i| {
            let mut crng = det(&format!("mac-cont-client-{i}"));
            let (body, dh) = ClientMacSession::request_body(&mut crng);
            let proven = Delegation {
                subject: Principal::message(b"establishment"),
                issuer: Principal::message(b"bench issuer"),
                tag: Tag::Star,
                validity: Validity::until(Time(1_000_000)),
                delegable: false,
            };
            let proof = Proof::Assumption {
                stmt: proven.clone(),
                authority: "bench".into(),
            };
            let reply = store
                .establish(store.epoch(), &body, proven, proof, Time(0), &mut srng)
                .expect("establishment");
            let session = ClientMacSession::from_grant(&reply, &dh, Validity::always())
                .expect("grant");
            let hash = HashVal::of(format!("request-{i}").as_bytes());
            let mac = snowflake_sexpr::b64_decode(session.authenticate(&hash).as_bytes())
                .expect("mac header");
            (session.mac_id.clone(), mac, hash)
        })
        .collect();
    MacContentionRig { store, requests }
}

/// Runs `total_verifies` MAC verifications split over `threads` threads,
/// each thread working a disjoint slice of sessions, and returns the wall
/// time for the whole batch.
pub fn run_mac_contention(
    rig: &MacContentionRig,
    threads: usize,
    total_verifies: usize,
) -> Duration {
    let per_thread = total_verifies / threads.max(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = Arc::clone(&rig.store);
            // Disjoint slice: thread t owns every threads-th session.
            let mine: Vec<(HashVal, Vec<u8>, HashVal)> = rig
                .requests
                .iter()
                .skip(t)
                .step_by(threads.max(1))
                .cloned()
                .collect();
            s.spawn(move || {
                if mine.is_empty() {
                    return;
                }
                for q in 0..per_thread {
                    let (id, mac, hash) = &mine[q % mine.len()];
                    store
                        .verify(id, mac, hash, &Tag::Star, Time(500))
                        .expect("verify under contention");
                }
            });
        }
    });
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prover_rig_answers_under_threads() {
        let rig = prover_contention_rig(4, 8);
        let d = run_prover_contention(&rig, 4, 64);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn mac_rig_verifies_under_threads() {
        let rig = mac_contention_rig(8);
        let d = run_mac_contention(&rig, 4, 64);
        assert!(d > Duration::ZERO);
    }
}
