//! The one revocation-guarded store every warm conclusion lives in.
//!
//! A server that caches the outcome of a verification — a memoized chain,
//! an identical-request entry, a MAC session, an RMI proof list, a parked
//! subscription — keeps honoring that outcome without looking at the
//! chain again.  The end-to-end claim survives only if the cached
//! conclusion dies with the chain that backed it, so every such store is
//! a [`ProvenanceMap`]: each slot carries the certificate hashes its
//! value was verified from, and [`ProvenanceMap::evict_cert`] removes
//! exactly the slots a revoked certificate poisoned.
//!
//! **The guard.**  Eviction alone cannot see a verification that is still
//! running: it would finish against pre-revocation state and insert a
//! slot *behind* the sweep.  So nothing enters the map without an
//! [`Epoch`] token read **before** the verification began:
//!
//! * a verifier goes `epoch()` → verify → `insert(token, …)`;
//! * a revoker goes bump-epoch → sweep every shard.
//!
//! The insert re-reads the epoch *under the shard lock*.  The bump
//! precedes every shard lock the sweep takes, so only two orderings
//! remain: the sweep already passed this shard (its bump is visible and
//! the stale insert is refused), or it has not (it will see, and judge,
//! whatever lands).  A check made before taking the lock would leave a
//! third — check passes, whole sweep runs, stale slot lands.

use crate::statement::Time;
use crate::sync::LockExt;
use snowflake_crypto::HashVal;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SHARDS: usize = 16;

/// A map's revocation epoch as it stood before a verification began —
/// the only way to insert (see the module docs).  Tokens are meaningful
/// only to the map that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch(u64);

struct Slot<V> {
    value: V,
    certs: Arc<[HashVal]>,
    not_after: Option<Time>,
    /// Insertion order within the shard, for the FIFO bound.
    seq: u64,
}

impl<V> Slot<V> {
    fn dead(&self, now: Time) -> bool {
        self.not_after.is_some_and(|t| t < now)
    }
}

struct Shard<K, V> {
    slots: HashMap<K, Slot<V>>,
    next_seq: u64,
}

/// A sharded map whose slots carry certificate provenance and an
/// optional expiry, guarded against inserts racing a revocation.
pub struct ProvenanceMap<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    hasher: RandomState,
    epoch: AtomicU64,
    /// FIFO bound per shard; `None` for stores that are not caches
    /// (sessions, subscriptions) and must never forget a live slot.
    per_shard_cap: Option<usize>,
    dropped: AtomicU64,
}

impl<K: Hash + Eq, V> ProvenanceMap<K, V> {
    fn with_cap(per_shard_cap: Option<usize>) -> Self {
        ProvenanceMap {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: HashMap::new(),
                        next_seq: 0,
                    })
                })
                .collect(),
            hasher: RandomState::new(),
            epoch: AtomicU64::new(0),
            per_shard_cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// A map that holds every live slot until it expires, is removed, or
    /// is evicted by revocation.
    pub fn unbounded() -> Self {
        Self::with_cap(None)
    }

    /// A cache bounded to roughly `capacity` slots across 16 shards; a
    /// full shard forgets its oldest slot first.
    pub fn bounded(capacity: usize) -> Self {
        Self::with_cap(Some(capacity.div_ceil(SHARDS).max(1)))
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        &self.shards[(self.hasher.hash_one(key) % SHARDS as u64) as usize]
    }

    /// The token to read *before* verifying whatever will be inserted.
    pub fn epoch(&self) -> Epoch {
        Epoch(self.epoch.load(Ordering::SeqCst))
    }

    /// Inserts (or replaces) `key`'s slot, unless a revocation landed
    /// since `token` was read — then nothing changes and `false` comes
    /// back.  `build` sees the key's current live value, under the shard
    /// lock, and returns the new value, its certificate provenance, and
    /// the instant past which it must no longer be served.  Slots of the
    /// same shard already past their `not_after` at `now` are dropped on
    /// the way, so steady insert traffic reclaims what nobody reads.
    pub fn upsert(
        &self,
        token: Epoch,
        key: K,
        now: Time,
        build: impl FnOnce(Option<&V>) -> (V, Arc<[HashVal]>, Option<Time>),
    ) -> bool {
        let mut guard = self.shard(&key).plock();
        if self.epoch.load(Ordering::SeqCst) != token.0 {
            return false;
        }
        let shard = &mut *guard;
        let before = shard.slots.len();
        shard.slots.retain(|_, s| !s.dead(now));
        let mut dropped = before - shard.slots.len();
        let (value, certs, not_after) = build(shard.slots.get(&key).map(|s| &s.value));
        let full = self
            .per_shard_cap
            .is_some_and(|cap| shard.slots.len() >= cap);
        if full && !shard.slots.contains_key(&key) {
            let oldest = shard.slots.values().map(|s| s.seq).min();
            dropped += shard.slots.extract_if(|_, s| Some(s.seq) == oldest).count();
        }
        shard.next_seq += 1;
        let seq = shard.next_seq;
        shard.slots.insert(
            key,
            Slot {
                value,
                certs,
                not_after,
                seq,
            },
        );
        self.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        true
    }

    /// [`upsert`](Self::upsert) for a value that does not depend on what
    /// the slot held before.
    pub fn insert(
        &self,
        token: Epoch,
        key: K,
        value: V,
        certs: Arc<[HashVal]>,
        not_after: Option<Time>,
        now: Time,
    ) -> bool {
        self.upsert(token, key, now, |_| (value, certs, not_after))
    }

    /// Reads `key`'s slot through `read` (run under the shard lock, so
    /// copy out what is needed and do the work afterwards).  A slot past
    /// its `not_after` misses and is dropped.
    pub fn get<R>(
        &self,
        key: &K,
        now: Time,
        read: impl FnOnce(&V, &Arc<[HashVal]>) -> R,
    ) -> Option<R> {
        let mut shard = self.shard(key).plock();
        let slot = shard.slots.get(key)?;
        if !slot.dead(now) {
            return Some(read(&slot.value, &slot.certs));
        }
        shard.slots.remove(key);
        self.dropped.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Removes `key`'s slot (a voluntary end: unsubscribe, a dead sink).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key).plock().slots.remove(key).map(|s| s.value)
    }

    /// Removes every slot whose provenance names `cert` and hands them
    /// back as `(key, value, provenance)`.  Bumps the epoch *first*, so a
    /// verification still in flight cannot insert its pre-revocation
    /// answer behind the sweep.
    pub fn evict_cert(&self, cert: &HashVal) -> Vec<(K, V, Arc<[HashVal]>)> {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let mut evicted = Vec::new();
        for shard in self.shards.iter() {
            evicted.extend(
                shard
                    .plock()
                    .slots
                    .extract_if(|_, s| s.certs.contains(cert))
                    .map(|(k, s)| (k, s.value, s.certs)),
            );
        }
        evicted
    }

    /// Drops every slot past its `not_after` at `now`; returns how many.
    pub fn evict_expired(&self, now: Time) -> usize {
        let mut dropped = 0;
        for shard in self.shards.iter() {
            let mut shard = shard.plock();
            let before = shard.slots.len();
            shard.slots.retain(|_, s| !s.dead(now));
            dropped += before - shard.slots.len();
        }
        self.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Forgets every slot (benchmarks forcing the cold path).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.plock().slots.clear();
        }
    }

    /// Visits every resident slot, shard by shard, collecting what
    /// `pick` keeps.
    pub fn collect<R>(&self, mut pick: impl FnMut(&K, &V) -> Option<R>) -> Vec<R> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(
                shard
                    .plock()
                    .slots
                    .iter()
                    .filter_map(|(k, s)| pick(k, &s.value)),
            );
        }
        out
    }

    /// Slots currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.plock().slots.len()).sum()
    }

    /// `true` when no slots are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots dropped so far by the FIFO bound or by expiry (not by
    /// revocation, [`remove`](Self::remove) or [`clear`](Self::clear)).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(map: &ProvenanceMap<u32, u32>, n: u32) {
        let token = map.epoch();
        for k in 0..n {
            assert!(map.insert(token, k, k, Arc::new([]), None, Time(0)));
        }
    }

    /// Keys spread over the shards (all landing in one would mean the
    /// shard function ignores the key, and every store serializes).
    #[test]
    fn keys_spread_over_shards() {
        let map = ProvenanceMap::unbounded();
        fill(&map, 64);
        let populated = map
            .shards
            .iter()
            .filter(|s| !s.plock().slots.is_empty())
            .count();
        assert!(populated > 1, "64 keys all landed in one shard");
    }

    /// A full shard forgets its oldest slot first: what stays resident
    /// is each shard's most recent insertions.
    #[test]
    fn bound_is_fifo_per_shard() {
        let map = ProvenanceMap::bounded(4 * SHARDS);
        fill(&map, 1_000);
        assert!(map.len() <= 4 * SHARDS);
        assert_eq!(map.dropped(), 1_000 - map.len() as u64);
        for shard in map.shards.iter() {
            let shard = shard.plock();
            assert!(shard.slots.values().all(|s| s.seq + 4 > shard.next_seq));
        }
    }
}
