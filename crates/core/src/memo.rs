//! The verified-chain memo: re-presented proofs skip big-int work.
//!
//! The same proof chains arrive over and over — every request on a MAC
//! session, every RMI call from a cached client, every broker publish —
//! and between revocation events nothing about their verification
//! changes.  [`ChainMemo`] is a bounded, sharded map from
//! `(proof hash, context fingerprint)` to a successful verification,
//! consulted by `VerifyCtx::verify_cached` before any exponentiation
//! happens.
//!
//! **Soundness.**  Only *successful* verifications are memoized, and a
//! hit requires three things to line up:
//!
//! 1. the **proof hash** — the exact certificate chain and inference
//!    structure (the canonical encoding, so any re-signed or restructured
//!    proof is a different key);
//! 2. the **context fingerprint** — computed fresh by the caller at
//!    lookup time, folding together which assumption leaves the context
//!    vouches for (the trust-anchor set), the content hash (over the
//!    full signed wire form) of every revocation artifact governing a
//!    certificate in the chain, and the context's revocation epoch.  Any
//!    newly installed CRL — even a same-serial reissue with a different
//!    revoked set — expired revalidation, or changed assumption set
//!    changes the fingerprint and misses;
//! 3. the **entry's validity interval** — `verified_at ≤ now ≤
//!    valid_until`, where `valid_until` is the conservative minimum of
//!    every consulted artifact's validity end.  Verification outcomes are
//!    interval-stable between revocation-state changes (the only
//!    time-dependent checks are artifact-currency windows), so a hit
//!    inside the interval answers exactly what a cold verify would.
//!
//! The fingerprint folds no certificate hash except a `Revalidate`
//! leaf's, which it needs to resolve the leaf's artifact.  Dropping the
//! rest cannot merge two keys the cold path would tell apart: a key is
//! the *pair*, and equal proof hashes mean equal canonical encodings,
//! hence the same certificates — same bodies, signers, signatures and
//! revocation policies — in the same positions.  Every certificate hash
//! is a function of the proof hash, so folding it in would add no
//! information.  What the cold path reads *outside* the proof (assumption
//! bits, the governing artifacts' content, the epoch) is still folded per
//! leaf, in leaf order.
//!
//! A slot also keeps the chain's certificate provenance
//! ([`Proof::cert_hashes`](crate::Proof::cert_hashes)); a hit hands back
//! that same `Arc`, so a warm decision records and audits provenance
//! without hashing the chain again.
//!
//! Revocation *push* is the asynchronous hazard: the entries live in a
//! [`ProvenanceMap`], so [`ChainMemo::evict_cert`] drops every entry whose
//! provenance contains the dead certificate (the memo rides the same
//! `RevocationBus` as every other warm store) and an insert that raced a
//! push is refused by the map's epoch guard.

use crate::provenance::{Epoch, ProvenanceMap};
use crate::statement::Time;
use snowflake_crypto::HashVal;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Memo key: the proof's canonical hash plus the context fingerprint it
/// was verified under.
#[derive(PartialEq, Eq, Hash)]
struct MemoKey {
    proof: HashVal,
    fingerprint: HashVal,
}

/// Counter snapshot — the memo's answer quality is provable from these
/// (a warm re-presented chain shows up as `hits` with no exponentiation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered from the memo (big-int work skipped).
    pub hits: u64,
    /// Lookups that fell through to a cold verification.
    pub misses: u64,
    /// Successful verifications recorded.
    pub inserts: u64,
    /// Entries dropped by capacity (FIFO) or expiry.
    pub evictions: u64,
    /// Entries dropped because a certificate in their provenance was
    /// revoked (push eviction).
    pub revocation_evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// A bounded, sharded memo of successfully verified proof chains.
pub struct ChainMemo {
    /// `(proof, fingerprint)` → `verified_at`; the slot's `not_after` is
    /// the conservative minimum of consulted artifact validity ends.
    entries: ProvenanceMap<MemoKey, Time>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    revocation_evictions: AtomicU64,
}

impl ChainMemo {
    /// A memo bounded to roughly `capacity` entries across 16 shards.
    pub fn new(capacity: usize) -> ChainMemo {
        ChainMemo {
            entries: ProvenanceMap::bounded(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            revocation_evictions: AtomicU64::new(0),
        }
    }

    /// The recorded certificate provenance of a successful verification
    /// of `proof` under `fingerprint` that is valid at `now`, if any.  An
    /// entry past its validity interval is dropped (counted as an
    /// eviction) and misses.
    pub fn lookup(&self, proof: &HashVal, fingerprint: &HashVal, now: Time) -> Option<Arc<[HashVal]>> {
        let key = MemoKey {
            proof: proof.clone(),
            fingerprint: fingerprint.clone(),
        };
        let certs = self
            .entries
            .get(&key, now, |verified_at, certs| {
                (now >= *verified_at).then(|| Arc::clone(certs))
            })
            .flatten();
        let counter = if certs.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        certs
    }

    /// The token [`record`](Self::record) needs, read *before* the
    /// verification runs.
    pub fn epoch(&self) -> Epoch {
        self.entries.epoch()
    }

    /// Records a successful verification, unless a revocation push landed
    /// since `token` was read — the push could not have evicted an entry
    /// that was not yet inserted.
    pub fn record(
        &self,
        token: Epoch,
        proof: &HashVal,
        fingerprint: &HashVal,
        verified_at: Time,
        valid_until: Option<Time>,
        certs: Arc<[HashVal]>,
    ) {
        let key = MemoKey {
            proof: proof.clone(),
            fingerprint: fingerprint.clone(),
        };
        if self.entries.insert(token, key, verified_at, certs, valid_until, verified_at) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry whose provenance contains `cert_hash`; returns
    /// how many died.
    pub fn evict_cert(&self, cert_hash: &HashVal) -> usize {
        let dropped = self.entries.evict_cert(cert_hash).len();
        self.revocation_evictions
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.entries.dropped(),
            revocation_evictions: self.revocation_evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Registers scrape-time callbacks exposing [`MemoStats`] under
    /// `sf_chain_memo_*{surface="..."}` — the same atomics
    /// [`stats`](Self::stats) reads.  One collector per surface label;
    /// re-registering a surface replaces its callback.
    pub fn register_metrics(
        self: &Arc<Self>,
        registry: &snowflake_metrics::Registry,
        surface: &str,
    ) {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_chain_memo_hits_total",
            "Verified-chain memo lookups answered without big-int work",
        );
        let memo = Arc::downgrade(self);
        let surface = surface.to_string();
        registry.register_collector(
            &format!("memo:{surface}"),
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(memo) = memo.upgrade() else { return };
                let s = memo.stats();
                let labels: &[(&str, &str)] = &[("surface", &surface)];
                out.push(Sample::counter("sf_chain_memo_hits_total", labels, s.hits));
                out.push(Sample::counter("sf_chain_memo_misses_total", labels, s.misses));
                out.push(Sample::counter("sf_chain_memo_inserts_total", labels, s.inserts));
                out.push(Sample::counter("sf_chain_memo_evictions_total", labels, s.evictions));
                out.push(Sample::counter(
                    "sf_chain_memo_revocation_evictions_total",
                    labels,
                    s.revocation_evictions,
                ));
                out.push(Sample::gauge("sf_chain_memo_entries", labels, s.entries as f64));
            }),
        );
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(s: &str) -> HashVal {
        HashVal::of(s.as_bytes())
    }

    fn certs(hashes: &[HashVal]) -> Arc<[HashVal]> {
        hashes.into()
    }

    #[test]
    fn hit_requires_same_key_and_interval() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.record(epoch, &h("p"), &h("fp"), Time(10), Some(Time(100)), certs(&[h("c")]));
        assert!(memo.lookup(&h("p"), &h("fp"), Time(50)).is_some());
        assert!(memo.lookup(&h("p"), &h("other-fp"), Time(50)).is_none());
        assert!(memo.lookup(&h("other-p"), &h("fp"), Time(50)).is_none());
        // Before verified_at: miss (clock ran backwards across contexts).
        memo.record(epoch, &h("p2"), &h("fp"), Time(10), Some(Time(100)), certs(&[]));
        assert!(memo.lookup(&h("p2"), &h("fp"), Time(5)).is_none());
    }

    #[test]
    fn expiry_drops_the_entry() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.record(epoch, &h("p"), &h("fp"), Time(10), Some(Time(100)), certs(&[]));
        assert!(memo.lookup(&h("p"), &h("fp"), Time(200)).is_none());
        assert_eq!(memo.len(), 0, "expired entry is evicted, not retained");
        assert_eq!(memo.stats().evictions, 1);
    }

    #[test]
    fn push_eviction_by_cert_hash() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.record(epoch, &h("p1"), &h("fp"), Time(1), None, certs(&[h("a"), h("b")]));
        memo.record(epoch, &h("p2"), &h("fp"), Time(1), None, certs(&[h("c")]));
        assert_eq!(memo.evict_cert(&h("b")), 1);
        assert!(memo.lookup(&h("p1"), &h("fp"), Time(2)).is_none());
        assert!(memo.lookup(&h("p2"), &h("fp"), Time(2)).is_some());
        assert_eq!(memo.stats().revocation_evictions, 1);
    }

    #[test]
    fn racing_push_discards_insert() {
        let memo = ChainMemo::new(64);
        let epoch = memo.epoch();
        memo.evict_cert(&h("unrelated")); // push lands mid-verification
        memo.record(epoch, &h("p"), &h("fp"), Time(1), None, certs(&[h("a")]));
        assert!(memo.lookup(&h("p"), &h("fp"), Time(2)).is_none(), "stale insert discarded");
    }

    #[test]
    fn capacity_is_bounded_fifo() {
        let memo = ChainMemo::new(16); // 1 per shard
        let epoch = memo.epoch();
        for i in 0..64 {
            memo.record(epoch, &h(&format!("p{i}")), &h("fp"), Time(1), None, certs(&[]));
        }
        assert!(memo.len() <= 16, "len {} exceeds bound", memo.len());
        assert!(memo.stats().evictions > 0);
    }
}
