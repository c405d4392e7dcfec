//! `ProvenanceMap` against a naive model, and under contention.
//!
//! The five warm stores (chain memo, identical-request cache, MAC
//! sessions, RMI proof lists, broker subscriptions) are instances of this
//! one map, so its guard is proven here once: a proptest drives random
//! operation sequences against a `Vec`-scan model, and a stress test
//! races verifiers against a revoker the way production does (the CRL
//! learns of a revocation before the push evicts).

use proptest::prelude::*;
use snowflake_core::{Epoch, ProvenanceMap, Time};
use snowflake_crypto::HashVal;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const KEYS: u8 = 24;
const CERTS: u8 = 4;

fn cert(id: u8) -> HashVal {
    HashVal::of(&[b'c', id])
}

#[derive(Debug, Clone)]
enum Op {
    /// Remember the current epoch as the token later inserts may use.
    TakeToken,
    Insert {
        key: u8,
        value: u32,
        certs: Vec<u8>,
        ttl: Option<u8>,
        saved_token: bool,
    },
    /// Upsert `old + add` (exercises what `build` is shown).
    Add {
        key: u8,
        add: u32,
        saved_token: bool,
    },
    Get {
        key: u8,
    },
    Remove {
        key: u8,
    },
    EvictCert {
        cert: u8,
    },
    EvictExpired,
    Advance {
        dt: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let certs = || proptest::collection::vec(0..CERTS, 0..3);
    let ttl = || prop_oneof![Just(None), (0u8..20).prop_map(Some)];
    prop_oneof![
        Just(Op::TakeToken),
        (0..KEYS, any::<u32>(), certs(), ttl(), any::<bool>()).prop_map(
            |(key, value, certs, ttl, saved_token)| Op::Insert {
                key,
                value,
                certs,
                ttl,
                saved_token
            }
        ),
        (0..KEYS, 0u32..100, any::<bool>()).prop_map(|(key, add, saved_token)| Op::Add {
            key,
            add,
            saved_token
        }),
        (0..KEYS).prop_map(|key| Op::Get { key }),
        (0..KEYS).prop_map(|key| Op::Remove { key }),
        (0..CERTS).prop_map(|cert| Op::EvictCert { cert }),
        Just(Op::EvictExpired),
        (1u8..8).prop_map(|dt| Op::Advance { dt }),
    ]
}

/// The trivially correct model: a list scanned linearly.  It keeps slots
/// past their expiry until something is specified to drop them, because
/// whether the map still *holds* such a slot depends on shard placement;
/// what the map may *show* of it is pinned down below.
#[derive(Default)]
struct Model {
    slots: Vec<(u8, u32, Vec<HashVal>, Option<Time>)>,
    epoch: u64,
}

impl Model {
    fn dead(slot: &(u8, u32, Vec<HashVal>, Option<Time>), now: Time) -> bool {
        slot.3.is_some_and(|t| t < now)
    }

    fn live(&self, key: u8, now: Time) -> Option<u32> {
        self.slots
            .iter()
            .find(|s| s.0 == key && !Self::dead(s, now))
            .map(|s| s.1)
    }

    fn put(&mut self, key: u8, value: u32, certs: Vec<HashVal>, not_after: Option<Time>) {
        self.slots.retain(|s| s.0 != key);
        self.slots.push((key, value, certs, not_after));
    }
}

/// Runs `ops` on `map` and the model side by side.  With `exact` (an
/// unbounded map) contents and return values must be equal at every
/// step; without it (a bounded cache, which may forget) the map must
/// never show anything the model does not hold.
fn run(map: &ProvenanceMap<u8, u32>, ops: &[Op], exact: bool) -> Result<(), TestCaseError> {
    let mut model = Model::default();
    let mut now = Time(100);
    let mut saved: (Epoch, u64) = (map.epoch(), 0);
    for op in ops {
        let token = |use_saved: bool| {
            if use_saved {
                saved
            } else {
                (map.epoch(), model.epoch)
            }
        };
        match op {
            Op::TakeToken => saved = (map.epoch(), model.epoch),
            Op::Insert {
                key,
                value,
                certs,
                ttl,
                saved_token,
            } => {
                let (token, at) = token(*saved_token);
                let certs: Vec<HashVal> = certs.iter().map(|c| cert(*c)).collect();
                let not_after = ttl.map(|t| now.plus(t as u64));
                let took = map.insert(token, *key, *value, certs.clone().into(), not_after, now);
                prop_assert_eq!(
                    took,
                    at == model.epoch,
                    "stale tokens refuse, fresh ones insert"
                );
                if took {
                    model.put(*key, *value, certs, not_after);
                }
            }
            Op::Add {
                key,
                add,
                saved_token,
            } => {
                let (token, at) = token(*saved_token);
                let mut seen = None;
                let took = map.upsert(token, *key, now, |old| {
                    seen = Some(old.copied());
                    (old.copied().unwrap_or(0) + add, Arc::new([]), None)
                });
                prop_assert_eq!(took, at == model.epoch);
                prop_assert_eq!(seen.is_some(), took, "a refused upsert builds nothing");
                if let Some(old) = seen {
                    if exact {
                        prop_assert_eq!(old, model.live(*key, now));
                    } else if let Some(v) = old {
                        prop_assert_eq!(Some(v), model.live(*key, now));
                    }
                    model.put(*key, old.unwrap_or(0) + add, vec![], None);
                }
            }
            Op::Get { key } => {
                let got = map.get(key, now, |v, _| *v);
                if exact || got.is_some() {
                    prop_assert_eq!(got, model.live(*key, now));
                }
            }
            Op::Remove { key } => {
                let got = map.remove(key);
                let held = model.slots.iter().find(|s| s.0 == *key).cloned();
                model.slots.retain(|s| s.0 != *key);
                match (got, held) {
                    (Some(v), Some(slot)) => prop_assert_eq!(v, slot.1),
                    (Some(v), None) => prop_assert!(false, "removed {v} from nowhere"),
                    // An expired slot may already have been dropped.
                    (None, Some(slot)) => prop_assert!(!exact || Model::dead(&slot, now)),
                    (None, None) => {}
                }
            }
            Op::EvictCert { cert: c } => {
                let c = cert(*c);
                let mut got: Vec<(u8, u32)> = map
                    .evict_cert(&c)
                    .into_iter()
                    .map(|(k, v, _)| (k, v))
                    .collect();
                got.sort_unstable();
                model.epoch += 1;
                let (hit, rest): (Vec<_>, Vec<_>) =
                    model.slots.drain(..).partition(|s| s.2.contains(&c));
                model.slots = rest;
                for (k, v) in &got {
                    prop_assert!(
                        hit.iter().any(|s| s.0 == *k && s.1 == *v),
                        "evicted a stranger"
                    );
                }
                if exact {
                    // Every live dependent was handed back (expired ones
                    // may or may not still have been resident).
                    for s in hit.iter().filter(|s| !Model::dead(s, now)) {
                        prop_assert!(got.contains(&(s.0, s.1)), "missed a dependent slot");
                    }
                }
            }
            Op::EvictExpired => {
                let got = map.evict_expired(now);
                let before = model.slots.len();
                model.slots.retain(|s| !Model::dead(s, now));
                prop_assert!(got <= before - model.slots.len());
            }
            Op::Advance { dt } => {
                now = now.plus(*dt as u64);
                // No sweep of the universe below: the next operation runs
                // against whatever expired slots are still resident.
                continue;
            }
        }
        // Equal contents: every key reads the same on both sides.  (The
        // reads drop whatever had expired, so afterwards residency is
        // exact too.)
        for key in 0..KEYS {
            let got = map.get(&key, now, |v, _| *v);
            if exact || got.is_some() {
                prop_assert_eq!(got, model.live(key, now), "key {}", key);
            }
        }
        model.slots.retain(|s| !Model::dead(s, now));
        if exact {
            prop_assert_eq!(map.len(), model.slots.len());
        } else {
            prop_assert!(map.len() <= 16, "bound exceeded: {}", map.len());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unbounded_map_equals_the_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run(&ProvenanceMap::unbounded(), &ops, true)?;
    }

    /// One slot per shard: the cache forgets constantly, and still never
    /// shows a value the model does not hold nor accepts a stale token.
    #[test]
    fn bounded_map_forgets_but_never_invents(ops in proptest::collection::vec(arb_op(), 1..120)) {
        run(&ProvenanceMap::bounded(16), &ops, false)?;
    }
}

/// Ends the stress run when whoever holds it finishes or panics, so a
/// failed assertion fails the test instead of hanging its peers.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Seven verifiers and one revoker.  A verifier takes its token, checks
/// the "CRL" (verification), then inserts a slot depending on one
/// certificate; the revoker, round by round, marks a certificate revoked
/// in the CRL and *then* pushes the eviction — so every insert that
/// passed verification holds a token older than the push.  Once
/// `evict_cert(c)` has returned, no slot depending on `c` may ever be
/// readable again: the insert either landed before the sweep reached its
/// shard (and was swept) or was refused.
#[test]
fn no_slot_outlives_the_revocation_it_raced() {
    const ROUNDS: usize = 300;
    const VERIFIERS: usize = 7;
    let map: ProvenanceMap<usize, usize> = ProvenanceMap::unbounded();
    let certs: Vec<HashVal> = (0..ROUNDS).map(|r| HashVal::of(&r.to_be_bytes())).collect();
    let crl: Vec<AtomicBool> = (0..ROUNDS).map(|_| AtomicBool::new(false)).collect();
    // Rounds whose `evict_cert` has returned (they go in order).
    let evicted = AtomicUsize::new(0);
    let inserted = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Barrier::new(VERIFIERS + 1);

    std::thread::scope(|s| {
        for t in 0..VERIFIERS {
            let (map, certs, crl, evicted, inserted, stop, start) =
                (&map, &certs, &crl, &evicted, &inserted, &stop, &start);
            s.spawn(move || {
                let _stop = StopOnDrop(stop);
                start.wait();
                let mut i = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    i += 1;
                    // Depend on a certificate at or just past the frontier.
                    let dep = (evicted.load(Ordering::SeqCst) + i % 3).min(ROUNDS - 1);
                    let token = map.epoch();
                    if crl[dep].load(Ordering::SeqCst) {
                        continue; // verification fails: the cert is on the CRL
                    }
                    let key = t * 1024 + i % 1024;
                    if map.insert(
                        token,
                        key,
                        dep,
                        Arc::new([certs[dep].clone()]),
                        None,
                        Time(0),
                    ) {
                        inserted.fetch_add(1, Ordering::SeqCst);
                    }
                    // Read a neighbour's slot: whatever is readable depends
                    // on no certificate whose eviction had already returned.
                    let floor = evicted.load(Ordering::SeqCst);
                    let peer = ((t + 1) % VERIFIERS) * 1024 + i % 1024;
                    if let Some(dep) = map.get(&peer, Time(0), |dep, _| *dep) {
                        assert!(
                            dep >= floor,
                            "read a slot on cert {dep} after round {floor}"
                        );
                    }
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        start.wait();
        for r in 0..ROUNDS {
            // Let the verifiers make progress into this round first.
            let target = inserted.load(Ordering::SeqCst) + 16;
            while inserted.load(Ordering::SeqCst) < target {
                assert!(!stop.load(Ordering::SeqCst), "a verifier failed");
                std::thread::yield_now();
            }
            crl[r].store(true, Ordering::SeqCst);
            map.evict_cert(&certs[r]);
            evicted.store(r + 1, Ordering::SeqCst);
            let stale = map.collect(|_, dep| (*dep <= r).then_some(*dep));
            assert!(
                stale.is_empty(),
                "round {r}: slots on dead certs survive: {stale:?}"
            );
        }
    });
    assert!(map.is_empty(), "every certificate was revoked");
    assert!(inserted.load(Ordering::SeqCst) >= ROUNDS * 16);
}
