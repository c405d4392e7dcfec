//! Per-issuer fixed-base table cache for Schnorr verification.
//!
//! Verification exponentiates two bases: the group generator `g` (whose
//! table lives with the `&'static Group`) and the signer's public element
//! `y`.  Issuer keys are few and long-lived — a handful of authorities
//! sign almost every certificate a verifier sees — so a small process-wide
//! cache of per-`y` tables pays for itself after a couple of verifies.
//!
//! The cache sits on every signature verification across every server
//! surface, so its design leans defensive:
//!
//! * **Sharded, clone-free lookups.** Sixteen shards keyed by a cheap
//!   64-bit fingerprint of `(group, y)` keep concurrent verifies off one
//!   another's locks, and a lookup never clones the key's big integer —
//!   the fingerprint indexes the shard map and the stored `y` is compared
//!   in place (a fingerprint collision with a *different* key is treated
//!   as a miss, never served the colliding entry).
//! * **Only validated keys are tracked.** An entry is inserted by
//!   [`confirm_element`], i.e. only after the key has passed its
//!   subgroup-membership check — so an attacker streaming distinct bogus
//!   public keys never touches the map and cannot evict a promoted
//!   issuer table.  Eviction within a shard prefers entries that have not
//!   earned a table yet, so even a flood of *valid* one-shot keys leaves
//!   promoted issuer tables standing as long as anything else can go.
//! * **Promotion threshold.** Building a table costs roughly two to three
//!   generic exponentiations, and some keys are seen exactly once (e.g. a
//!   client key during MAC establishment).  A table is therefore built on
//!   the *second* validated sighting of a key, never the first.
//! * **Cached membership.** `is_element(y)` is itself a full `q`-sized
//!   exponentiation.  `y` and the group parameters are immutable, so a
//!   membership check done once per key is sound to reuse; an entry's
//!   presence in the map records it.  Decoding a key consults the same
//!   record ([`check_element`]): a tracked key is not re-proven, and a
//!   key that passes is admitted *without* counting a verify sighting,
//!   so decoding never moves a key toward its table.
//!
//! Signing never consults this cache: the signer exponentiates only the
//! generator (`r = g^k`), never its own `y`, so there is nothing for a
//! per-key table to accelerate (see `docs/authz.md`).

use crate::group::Group;
use crate::schnorr::PublicKey;
use snowflake_bigint::{FixedBaseTable, Ubig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Lock shards; verifies for different issuers proceed concurrently.
const SHARDS: usize = 16;
/// Maximum validated keys tracked per shard (128 process-wide).
const SHARD_CAP: usize = 8;
/// Validated sightings before a key's table is built (never on the first).
const PROMOTE_AT: u64 = 2;

struct Entry {
    /// The group's static identity, for collision comparison.
    group: usize,
    /// The public element, for collision comparison (cloned once, at
    /// insert — lookups compare in place).
    y: Ubig,
    /// Validated sightings of this key.
    seen: u64,
    table: Option<Arc<FixedBaseTable>>,
}

impl Entry {
    fn matches(&self, group: usize, key: &PublicKey) -> bool {
        self.group == group && self.y == key.y
    }
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    /// Insertion order (fingerprints); kept in sync with `map`.
    order: Vec<u64>,
}

static SHARDS_CELL: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static BUILDS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

fn shards() -> &'static Vec<Mutex<Shard>> {
    SHARDS_CELL.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect())
}

/// A 64-bit fingerprint of `(group, y)`: shard selector and map key.
/// Collisions are survivable (compared against the stored key), just
/// cache-defeating for the colliding pair.
fn fingerprint(key: &PublicKey) -> u64 {
    let mut h = DefaultHasher::new();
    (key.group as *const Group as usize).hash(&mut h);
    key.y.hash(&mut h);
    h.finish()
}

fn shard_for(fp: u64) -> &'static Mutex<Shard> {
    &shards()[fp as usize % SHARDS]
}

/// Drops entries until the shard has room, preferring victims that never
/// earned a table so promoted issuer tables survive churn.
fn make_room(s: &mut Shard) {
    while s.map.len() >= SHARD_CAP {
        let victim = s
            .order
            .iter()
            .position(|fp| s.map.get(fp).is_some_and(|e| e.table.is_none()))
            .unwrap_or(0);
        if victim >= s.order.len() {
            break;
        }
        let fp = s.order.remove(victim);
        if s.map.remove(&fp).is_some() {
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Starts tracking `key` (already subgroup-validated) with `seen`
/// verify sightings, making room in the shard first.
fn track(s: &mut Shard, fp: u64, gp: usize, key: &PublicKey, seen: u64) {
    make_room(s);
    s.order.push(fp);
    s.map.insert(
        fp,
        Entry {
            group: gp,
            y: key.y.clone(),
            seen,
            table: None,
        },
    );
}

/// Is `key` an element of its group's order-`q` subgroup?  Answered from
/// the cache for a tracked key; otherwise `Group::is_element` runs (outside
/// the shard lock) and a key that passes is admitted with no sightings, so
/// decode-time admission neither counts toward promotion nor lets an
/// invalid key in.  A fingerprint owned by a different key is left alone
/// (the check still runs; the answer is just not remembered).
pub(crate) fn check_element(key: &PublicKey) -> bool {
    let fp = fingerprint(key);
    let gp = key.group as *const Group as usize;
    if matches!(shard_for(fp).lock().unwrap().map.get(&fp), Some(en) if en.matches(gp, key)) {
        return true;
    }
    if !key.group.is_element(&key.y) {
        return false;
    }
    let mut s = shard_for(fp).lock().unwrap();
    if !s.map.contains_key(&fp) {
        track(&mut s, fp, gp, key, 0);
    }
    true
}

/// What the cache knows about a key at verify time.
pub(crate) struct Sighting {
    pub table: Option<Arc<FixedBaseTable>>,
    /// `true` when the key is tracked, which implies it already passed
    /// its subgroup-membership check (untracked keys must be re-checked).
    pub element_valid: bool,
}

/// Records a sighting of `key` and returns its cached state.  Untracked
/// keys are *not* inserted here — only [`confirm_element`] (called after
/// the subgroup check passes) admits a key to the cache.
pub(crate) fn observe(key: &PublicKey) -> Sighting {
    let fp = fingerprint(key);
    let gp = key.group as *const Group as usize;
    let mut s = shard_for(fp).lock().unwrap();
    match s.map.get_mut(&fp) {
        Some(en) if en.matches(gp, key) => {
            en.seen += 1;
            if en.table.is_some() {
                HITS.fetch_add(1, Ordering::Relaxed);
            }
            Sighting {
                table: en.table.clone(),
                element_valid: true,
            }
        }
        _ => Sighting {
            table: None,
            element_valid: false,
        },
    }
}

/// Admits `key` — which the caller has just subgroup-validated, or found
/// already tracked — and builds its fixed-base table once the key has
/// been sighted often enough.
///
/// The table is built *outside* the shard lock (construction costs ~1000
/// modular multiplies); a concurrent builder losing the install race just
/// wastes one build.  Returns the installed table when one exists.
pub(crate) fn confirm_element(key: &PublicKey) -> Option<Arc<FixedBaseTable>> {
    let fp = fingerprint(key);
    let gp = key.group as *const Group as usize;
    let build = {
        let mut s = shard_for(fp).lock().unwrap();
        match s.map.get_mut(&fp) {
            Some(en) if en.matches(gp, key) => {
                if let Some(t) = &en.table {
                    return Some(t.clone());
                }
                en.seen >= PROMOTE_AT
            }
            // A different key owns this fingerprint; leave it alone.
            Some(_) => return None,
            None => {
                // First validated sighting: start tracking the key.
                track(&mut s, fp, gp, key, 1);
                false
            }
        }
    };
    if !build {
        return None;
    }
    let table = Arc::new(FixedBaseTable::new(
        &key.y,
        &key.group.p,
        key.group.q.bits(),
    ));
    BUILDS.fetch_add(1, Ordering::Relaxed);
    let mut s = shard_for(fp).lock().unwrap();
    match s.map.get_mut(&fp) {
        Some(en) if en.matches(gp, key) => Some(en.table.get_or_insert_with(|| table).clone()),
        _ => Some(table), // evicted meanwhile; still useful to the caller
    }
}

/// Snapshot of the per-key table cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyTableStats {
    /// Verifies that found a prebuilt table for the signer's key.
    pub hits: u64,
    /// Tables built (each replaces ~2 generic exponentiations per verify).
    pub builds: u64,
    /// Keys evicted to stay within the cache bound.
    pub evictions: u64,
    /// Distinct keys currently tracked.
    pub keys: u64,
}

/// Reads the process-wide per-key table cache counters.
pub fn key_table_stats() -> KeyTableStats {
    KeyTableStats {
        hits: HITS.load(Ordering::Relaxed),
        builds: BUILDS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        keys: shards()
            .iter()
            .map(|s| s.lock().unwrap().map.len() as u64)
            .sum(),
    }
}

/// Registers a scrape-time callback exposing [`KeyTableStats`] under
/// `sf_key_table_*` — the cache is process-wide, so the collector reads
/// [`key_table_stats`] directly (collector id `"key-table"`).
pub fn register_metrics(registry: &snowflake_metrics::Registry) {
    use snowflake_metrics::Sample;
    registry.set_help(
        "sf_key_table_hits_total",
        "Schnorr verifies served by a prebuilt fixed-base table for the signer's key",
    );
    registry.register_collector(
        "key-table",
        std::sync::Arc::new(|out: &mut Vec<Sample>| {
            let s = key_table_stats();
            out.push(Sample::counter("sf_key_table_hits_total", &[], s.hits));
            out.push(Sample::counter("sf_key_table_builds_total", &[], s.builds));
            out.push(Sample::counter("sf_key_table_evictions_total", &[], s.evictions));
            out.push(Sample::gauge("sf_key_table_keys", &[], s.keys as f64));
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::KeyPair;
    use crate::DetRng;

    #[test]
    fn promotion_builds_on_second_confirmed_sighting() {
        let mut rng = DetRng::new(b"key-cache-promote");
        let mut r = move |buf: &mut [u8]| rng.fill(buf);
        let kp = KeyPair::generate(Group::test512(), &mut r);
        let key = &kp.public;

        let s1 = observe(key);
        assert!(s1.table.is_none() && !s1.element_valid);
        assert!(confirm_element(key).is_none(), "no table on first sighting");

        let s2 = observe(key);
        assert!(s2.element_valid, "membership check is remembered");
        assert!(s2.table.is_none());
        let t = confirm_element(key).expect("second sighting promotes");
        assert_eq!(
            t.power(&Ubig::from(7u64)),
            key.y.modpow_basic(&Ubig::from(7u64), &key.group.p)
        );

        let s3 = observe(key);
        assert!(s3.table.is_some(), "table serves later sightings");
    }

    #[test]
    fn unvalidated_keys_are_never_tracked() {
        // A flood of keys that are merely *observed* (the subgroup check
        // never passed, so confirm_element is never called) must not
        // insert entries — and therefore cannot evict promoted tables.
        let mut rng = DetRng::new(b"key-cache-bogus");
        let mut r = move |buf: &mut [u8]| rng.fill(buf);
        let issuer = KeyPair::generate(Group::test512(), &mut r);
        observe(&issuer.public);
        confirm_element(&issuer.public);
        observe(&issuer.public);
        confirm_element(&issuer.public).expect("issuer table promoted");

        let keys_before = key_table_stats().keys;
        for i in 0..512u64 {
            let bogus = PublicKey {
                group: Group::test512(),
                // Not a subgroup element with overwhelming probability;
                // the point is only that confirm_element never runs.
                y: Ubig::from(3 + 2 * i),
            };
            let s = observe(&bogus);
            assert!(!s.element_valid && s.table.is_none());
        }
        assert_eq!(
            key_table_stats().keys,
            keys_before,
            "observe alone must not insert tracking entries"
        );
        let s = observe(&issuer.public);
        assert!(
            s.table.is_some(),
            "issuer table survives an unvalidated-key flood"
        );
    }

    #[test]
    fn eviction_prefers_untabled_entries() {
        // Fill well past the whole cache with validated one-shot keys;
        // a previously promoted table must still be resident (victims
        // are drawn from entries that never earned a table).
        let mut rng = DetRng::new(b"key-cache-churn");
        let mut r = move |buf: &mut [u8]| rng.fill(buf);
        let issuer = KeyPair::generate(Group::test512(), &mut r);
        observe(&issuer.public);
        confirm_element(&issuer.public);
        observe(&issuer.public);
        confirm_element(&issuer.public).expect("issuer table promoted");

        for _ in 0..(SHARDS * SHARD_CAP * 2) {
            let one_shot = KeyPair::generate(Group::test512(), &mut r);
            observe(&one_shot.public);
            confirm_element(&one_shot.public); // validated, but seen once
        }
        let s = observe(&issuer.public);
        assert!(
            s.table.is_some(),
            "promoted issuer table survives one-shot churn"
        );
        assert!(key_table_stats().evictions > 0, "churn actually evicted");
    }
}
