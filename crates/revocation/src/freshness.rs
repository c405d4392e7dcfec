//! The verifier-side freshness agent.
//!
//! A [`FreshnessAgent`] keeps one verifier's revocation knowledge warm: it
//! caches CRLs and revalidations keyed by validator, refreshes each CRL
//! *before* its validity window closes (with per-agent jitter so a fleet
//! of verifiers does not stampede one validator at the same instant), and
//! implements [`RevocationSource`] so a [`VerifyCtx`] can consult the
//! cache during proof checking without ever blocking on a network fetch.
//!
//! The agent is also the landing point for push: [`FreshnessAgent::apply_delta`]
//! installs a pushed CRL immediately and fans the newly revoked
//! certificate hashes into every registered [`RevocationBus`] — targeted
//! prover shortcut invalidation, MAC session eviction, RMI proof-cache
//! eviction — closing the gap between "the validator knows" and "the warm
//! caches know".

use crate::bus::RevocationBus;
use crate::delta::RevocationDelta;
use crate::service::{PushSink, ValidatorService};
use snowflake_channel::Transport;
use snowflake_core::sync::LockExt;
use snowflake_core::{Crl, Revalidation, RevocationSource, Time};
use snowflake_crypto::HashVal;
use snowflake_rmi::{RmiClient, RmiError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default refresh lead (seconds): how long before a CRL's window closes
/// the agent tries to fetch a successor.
pub const DEFAULT_REFRESH_LEAD: u64 = 30;

/// Default maximum per-agent refresh jitter (seconds).
pub const DEFAULT_MAX_JITTER: u64 = 10;

/// A pull connection to one validator.
///
/// Implementations may block (they run from the agent's refresh path, not
/// the verify hot path).
pub trait ValidatorClient: Send + Sync {
    /// Fetches the validator's current signed CRL.
    fn fetch_crl(&self) -> Result<Crl, String>;

    /// Requests a one-time revalidation of the certificate with this hash.
    fn fetch_revalidation(&self, cert_hash: &HashVal) -> Result<Revalidation, String>;
}

/// A colocated validator consulted by direct call.
pub struct InProcessValidator(pub Arc<ValidatorService>);

impl ValidatorClient for InProcessValidator {
    fn fetch_crl(&self) -> Result<Crl, String> {
        Ok(self.0.current_crl())
    }

    fn fetch_revalidation(&self, cert_hash: &HashVal) -> Result<Revalidation, String> {
        self.0.revalidate(cert_hash)
    }
}

/// A validator reached over RMI (see [`crate::service::ValidatorObject`]).
pub struct RmiValidatorClient {
    rmi: Mutex<RmiClient>,
    object: String,
}

impl RmiValidatorClient {
    /// Wraps an RMI client; `object` is the validator's registry name
    /// (conventionally [`crate::service::VALIDATOR_OBJECT`]).
    pub fn new(rmi: RmiClient, object: &str) -> RmiValidatorClient {
        RmiValidatorClient {
            rmi: Mutex::new(rmi),
            object: object.to_string(),
        }
    }

    fn invoke(&self, method: &str, args: Vec<snowflake_sexpr::Sexp>) -> Result<snowflake_sexpr::Sexp, String> {
        self.rmi
            .plock()
            .invoke(&self.object, method, args)
            .map_err(|e: RmiError| e.to_string())
    }
}

impl ValidatorClient for RmiValidatorClient {
    fn fetch_crl(&self) -> Result<Crl, String> {
        let sexp = self.invoke("crl", vec![])?;
        Crl::from_sexp(&sexp).map_err(|e| format!("bad CRL: {e}"))
    }

    fn fetch_revalidation(&self, cert_hash: &HashVal) -> Result<Revalidation, String> {
        let sexp = self.invoke("revalidate", vec![cert_hash.to_sexp()])?;
        Revalidation::from_sexp(&sexp).map_err(|e| format!("bad revalidation: {e}"))
    }
}

/// Counters exposed for tests and the freshness benchmarks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FreshnessStats {
    /// Successful CRL refreshes (pull).
    pub refreshes: u64,
    /// Failed refresh attempts.
    pub refresh_errors: u64,
    /// Push deltas applied.
    pub deltas_applied: u64,
    /// Push deltas rejected (bad signature, unknown validator, stale
    /// serial).
    pub deltas_rejected: u64,
    /// Warm-cache entries invalidated through the buses.
    pub bus_invalidations: u64,
    /// Revalidations fetched and cached.
    pub revalidations: u64,
}

struct ValidatorEntry {
    client: Arc<dyn ValidatorClient>,
    crl: Option<Arc<Crl>>,
}

struct AgentState {
    validators: HashMap<HashVal, ValidatorEntry>,
    /// Cached revalidations keyed by certificate hash.
    revalidations: HashMap<HashVal, Revalidation>,
}

/// Caches revocation artifacts for one verifier and keeps them fresh.
pub struct FreshnessAgent {
    clock: fn() -> Time,
    lead: u64,
    max_jitter: u64,
    jitter_seed: u64,
    state: Mutex<AgentState>,
    /// The highest CRL serial installed, read lock-free by every audit
    /// record and memo fingerprint ([`RevocationSource::epoch`]).
    epoch: AtomicU64,
    buses: Mutex<Vec<Arc<dyn RevocationBus>>>,
    stats: Mutex<FreshnessStats>,
}

impl FreshnessAgent {
    /// Creates an agent with default pacing and a per-process jitter seed
    /// drawn from OS entropy (so a fleet of verifiers spreads its refresh
    /// instants).
    pub fn new(clock: fn() -> Time) -> Arc<FreshnessAgent> {
        let mut seed_bytes = [0u8; 8];
        snowflake_crypto::rand_bytes(&mut seed_bytes);
        Self::with_pacing(
            clock,
            DEFAULT_REFRESH_LEAD,
            DEFAULT_MAX_JITTER,
            u64::from_be_bytes(seed_bytes),
        )
    }

    /// Creates an agent with explicit refresh lead, maximum jitter, and
    /// jitter seed (tests and benches inject these for determinism).
    pub fn with_pacing(
        clock: fn() -> Time,
        lead: u64,
        max_jitter: u64,
        jitter_seed: u64,
    ) -> Arc<FreshnessAgent> {
        Arc::new(FreshnessAgent {
            clock,
            lead,
            max_jitter,
            jitter_seed,
            state: Mutex::new(AgentState {
                validators: HashMap::new(),
                revalidations: HashMap::new(),
            }),
            epoch: AtomicU64::new(0),
            buses: Mutex::new(Vec::new()),
            stats: Mutex::new(FreshnessStats::default()),
        })
    }

    /// Current statistics.
    pub fn stats(&self) -> FreshnessStats {
        *self.stats.plock()
    }

    /// Registers a scrape-time callback exposing [`FreshnessStats`]
    /// under `sf_freshness_*` — the same counters
    /// [`stats`](Self::stats) reads (collector id `"freshness"`).
    pub fn register_metrics(self: &Arc<Self>, registry: &snowflake_metrics::Registry) {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_freshness_deltas_applied_total",
            "Revocation push deltas applied by the verifier-side freshness agent",
        );
        let agent = Arc::downgrade(self);
        registry.register_collector(
            "freshness",
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(agent) = agent.upgrade() else { return };
                let s = agent.stats();
                out.push(Sample::counter("sf_freshness_refreshes_total", &[], s.refreshes));
                out.push(Sample::counter(
                    "sf_freshness_refresh_errors_total",
                    &[],
                    s.refresh_errors,
                ));
                out.push(Sample::counter(
                    "sf_freshness_deltas_applied_total",
                    &[],
                    s.deltas_applied,
                ));
                out.push(Sample::counter(
                    "sf_freshness_deltas_rejected_total",
                    &[],
                    s.deltas_rejected,
                ));
                out.push(Sample::counter(
                    "sf_freshness_bus_invalidations_total",
                    &[],
                    s.bus_invalidations,
                ));
                out.push(Sample::counter(
                    "sf_freshness_revalidations_total",
                    &[],
                    s.revalidations,
                ));
            }),
        );
    }

    /// Registers a validator this agent keeps fresh.  No fetch happens
    /// here; call [`FreshnessAgent::refresh_due`] (or apply a push delta)
    /// to load the first CRL.
    pub fn register_validator(&self, validator: HashVal, client: Arc<dyn ValidatorClient>) {
        self.state
            .plock()
            .validators
            .insert(validator, ValidatorEntry { client, crl: None });
    }

    /// Registers a warm-cache invalidation target.  Every newly revoked
    /// certificate in an applied push delta is fanned into each bus.
    pub fn add_bus(&self, bus: Arc<dyn RevocationBus>) {
        self.buses.plock().push(bus);
    }

    /// This agent's deterministic refresh jitter for one validator, in
    /// `[0, max_jitter]`: derived from the agent seed and the validator
    /// hash so each (verifier, validator) pair refreshes at its own
    /// instant instead of the whole fleet stampeding at `not_after -
    /// lead`.
    pub fn jitter_for(&self, validator: &HashVal) -> u64 {
        if self.max_jitter == 0 {
            return 0;
        }
        let mut h = self.jitter_seed ^ 0xcbf2_9ce4_8422_2325;
        for &b in &validator.bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h % (self.max_jitter + 1)
    }

    /// When the cached CRL for `validator` is due for refresh.
    fn deadline(&self, validator: &HashVal, crl: &Crl) -> Time {
        match crl.validity.not_after {
            Some(t) => Time(t.0.saturating_sub(self.lead + self.jitter_for(validator))),
            // Unbounded lists never need refreshing.
            None => Time(u64::MAX),
        }
    }

    /// The earliest instant any registered validator needs a refresh
    /// (`None` when nothing is registered; `Some(now)` or earlier when a
    /// validator has no CRL yet).  Deployment loops sleep until this.
    pub fn next_refresh(&self) -> Option<Time> {
        let state = self.state.plock();
        state
            .validators
            .iter()
            .map(|(v, e)| match &e.crl {
                Some(crl) => self.deadline(v, crl),
                None => Time(0),
            })
            .min()
    }

    /// Refreshes every validator whose CRL is missing or inside its
    /// refresh deadline, returning how many were refreshed.  Fetches run
    /// without holding the agent lock, so verifies proceed concurrently.
    pub fn refresh_due(&self) -> usize {
        let now = (self.clock)();
        let due: Vec<(HashVal, Arc<dyn ValidatorClient>)> = {
            let state = self.state.plock();
            state
                .validators
                .iter()
                .filter(|(v, e)| match &e.crl {
                    Some(crl) => self.deadline(v, crl) <= now,
                    None => true,
                })
                .map(|(v, e)| (v.clone(), Arc::clone(&e.client)))
                .collect()
        };
        let mut refreshed = 0;
        for (validator, client) in due {
            let admitted = client
                .fetch_crl()
                .ok()
                .and_then(|crl| self.admit_crl(&validator, crl, now));
            match admitted {
                Some(newly_revoked) => {
                    refreshed += 1;
                    self.stats.plock().refreshes += 1;
                    // A pulled list tells the warm caches what a push
                    // would have: pushes are best effort, so a verifier
                    // that missed one learns here.
                    let invalidated = self.revoked(&newly_revoked);
                    self.stats.plock().bus_invalidations += invalidated as u64;
                }
                None => self.stats.plock().refresh_errors += 1,
            }
        }
        refreshed
    }

    /// Installs a CRL after checking signature, signer identity, currency,
    /// and serial monotonicity.  Returns what it newly revokes, or `None`
    /// when it was refused.
    fn admit_crl(&self, validator: &HashVal, crl: Crl, now: Time) -> Option<Vec<HashVal>> {
        crl.check(validator, now).ok()?;
        self.admit_checked_crl(validator, crl)
    }

    /// Installs a CRL whose signature has already been verified; still
    /// enforces serial monotonicity.  Returns the hashes it revokes that
    /// the list it replaces did not, or `None` when it was refused.
    fn admit_checked_crl(&self, validator: &HashVal, crl: Crl) -> Option<Vec<HashVal>> {
        let mut state = self.state.plock();
        let entry = state.validators.get_mut(validator)?;
        let newly_revoked = match &entry.crl {
            // Never roll knowledge backwards: the serial is signed.
            Some(old) if crl.serial < old.serial => return None,
            Some(old) => crl
                .revoked
                .iter()
                .filter(|h| !old.revokes(h))
                .cloned()
                .collect(),
            None => crl.revoked.clone(),
        };
        // Raised under the state lock: a reader that sees the new epoch
        // and then asks for the list waits for the lock and finds it.
        self.epoch.fetch_max(crl.serial, Ordering::SeqCst);
        entry.crl = Some(Arc::new(crl));
        Some(newly_revoked)
    }

    /// Drops the cached revalidations of `certs`, now revoked, and fans
    /// them into every bus — outside every agent lock.  Returns the
    /// number of warm-cache entries invalidated.
    fn revoked(&self, certs: &[HashVal]) -> usize {
        if certs.is_empty() {
            return 0;
        }
        {
            let mut state = self.state.plock();
            for cert in certs {
                state.revalidations.remove(cert);
            }
        }
        let buses: Vec<Arc<dyn RevocationBus>> = self.buses.plock().clone();
        let mut invalidated = 0;
        for cert in certs {
            for bus in &buses {
                invalidated += bus.certificate_revoked(cert);
            }
        }
        invalidated
    }

    /// Fetches and caches a one-time revalidation for `cert_hash` from the
    /// validator it names.  Verifiers facing `Revalidate` policies call
    /// this ahead of verification (it may block; the verify path then
    /// answers from cache).
    pub fn fetch_revalidation(
        &self,
        validator: &HashVal,
        cert_hash: &HashVal,
    ) -> Result<(), String> {
        let client = {
            let state = self.state.plock();
            let entry = state
                .validators
                .get(validator)
                .ok_or("validator not registered")?;
            Arc::clone(&entry.client)
        };
        let reval = client.fetch_revalidation(cert_hash)?;
        let now = (self.clock)();
        reval.check(validator, cert_hash, now)?;
        self.state
            .plock()
            .revalidations
            .insert(cert_hash.clone(), reval);
        self.stats.plock().revalidations += 1;
        Ok(())
    }

    /// Applies one push delta: verifies it against the registered
    /// validator, installs the embedded CRL, and fans the newly revoked
    /// hashes into every bus.  Returns the number of warm-cache entries
    /// invalidated.  The signer's registration, identity and currency are
    /// checked before the signature, so a foreign or stale delta is
    /// rejected without an exponentiation.
    ///
    /// A delta whose CRL is *older* than the installed one (deltas for
    /// concurrent revocations can arrive out of order) does not roll the
    /// CRL back, but its `newly_revoked` hashes still fan into the buses:
    /// the signature was checked, revocation is monotone, and eviction is
    /// idempotent — dropping the fan-out would leave warm caches honoring
    /// a certificate the newer list also revokes.
    pub fn apply_delta(&self, delta: &RevocationDelta) -> Result<usize, String> {
        let validator = delta.crl.signer.hash();
        let checked = if self.state.plock().validators.contains_key(&validator) {
            delta.crl.check(&validator, (self.clock)())
        } else {
            Err("delta from unregistered validator".into())
        };
        if let Err(e) = checked {
            self.stats.plock().deltas_rejected += 1;
            return Err(e);
        }
        self.admit_checked_crl(&validator, delta.crl.clone());
        let invalidated = self.revoked(&delta.newly_revoked);
        let mut stats = self.stats.plock();
        stats.deltas_applied += 1;
        stats.bus_invalidations += invalidated as u64;
        Ok(invalidated)
    }
}

impl RevocationSource for FreshnessAgent {
    fn crl(&self, validator: &HashVal, now: Time) -> Option<Arc<Crl>> {
        let state = self.state.plock();
        state
            .validators
            .get(validator)
            .and_then(|e| e.crl.as_ref())
            .filter(|c| c.validity.contains(now))
            .map(Arc::clone)
    }

    fn revalidation(&self, cert_hash: &HashVal, now: Time) -> Option<Revalidation> {
        let state = self.state.plock();
        state
            .revalidations
            .get(cert_hash)
            .filter(|r| r.validity.contains(now))
            .cloned()
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// A push sink delivering deltas straight into a colocated agent.  Holds a
/// weak reference, so dropping the agent unsubscribes on the next push.
pub struct AgentSink(Weak<FreshnessAgent>);

impl AgentSink {
    /// Wraps an agent.
    pub fn new(agent: &Arc<FreshnessAgent>) -> AgentSink {
        AgentSink(Arc::downgrade(agent))
    }
}

impl PushSink for AgentSink {
    fn push(&mut self, delta: &RevocationDelta) -> bool {
        match self.0.upgrade() {
            // A rejected delta (stale, unknown validator) is not a dead
            // sink; keep the subscription.
            Some(agent) => {
                let _ = agent.apply_delta(delta);
                true
            }
            None => false,
        }
    }
}

/// Spawns a listener applying pushed delta frames from `transport` to
/// `agent` until the transport closes; returns the number of deltas
/// applied.  The remote-verifier side of
/// [`ValidatorService::subscribe_reactor`].
///
/// The listener spends its life parked in `recv()`, so it runs on a
/// dedicated [`snowflake_runtime::spawn_thread`] rather than pinning a
/// pool worker forever.
///
/// A malformed frame is skipped, not treated as end-of-stream: one bad
/// frame must not silently kill the push subscription while the
/// validator keeps sending into a void.
pub fn spawn_push_listener(
    agent: Arc<FreshnessAgent>,
    mut transport: Box<dyn Transport>,
) -> std::thread::JoinHandle<usize> {
    snowflake_runtime::spawn_thread("sf-push-listener", move || {
        let mut applied = 0;
        loop {
            match crate::service::read_delta(&mut *transport) {
                Ok(delta) => {
                    if agent.apply_delta(&delta).is_ok() {
                        applied += 1;
                    }
                }
                // Parse failures poison one frame, not the subscription.
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => continue,
                Err(_) => return applied,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_crypto::{DetRng, Group, KeyPair};

    fn fixed_clock() -> Time {
        Time(1_000)
    }

    fn validator(seed: &str) -> Arc<ValidatorService> {
        let mut kr = DetRng::new(seed.as_bytes());
        let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
        let mut sr = DetRng::new(b"agent-test-rng");
        ValidatorService::with_clock(key, fixed_clock, Box::new(move |b| sr.fill(b)))
    }

    #[test]
    fn refresh_loads_and_source_answers() {
        let v = validator("refresh");
        let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
        agent.register_validator(v.validator_hash(), Arc::new(InProcessValidator(Arc::clone(&v))));
        assert_eq!(agent.next_refresh(), Some(Time(0)), "no CRL yet: due now");
        assert_eq!(agent.refresh_due(), 1);
        assert_eq!(agent.refresh_due(), 0, "fresh CRL: nothing due");
        let crl = agent.crl(&v.validator_hash(), fixed_clock()).unwrap();
        assert!(crl.check(&v.validator_hash(), fixed_clock()).is_ok());
        // The source answers nothing for strangers or stale instants.
        assert!(agent.crl(&HashVal::of(b"stranger"), fixed_clock()).is_none());
        assert!(agent.crl(&v.validator_hash(), Time(999_999)).is_none());
    }

    #[test]
    fn jitter_spreads_a_fleet() {
        let v = validator("jitter");
        let vh = v.validator_hash();
        // Ten verifiers with different seeds must not all share one
        // refresh instant.
        let jitters: std::collections::HashSet<u64> = (0..10u64)
            .map(|seed| FreshnessAgent::with_pacing(fixed_clock, 30, 10, seed).jitter_for(&vh))
            .collect();
        assert!(jitters.len() > 1, "jitter must vary by agent seed");
        assert!(jitters.iter().all(|&j| j <= 10));
        // And each agent is deterministic.
        let a = FreshnessAgent::with_pacing(fixed_clock, 30, 10, 7);
        assert_eq!(a.jitter_for(&vh), a.jitter_for(&vh));
    }

    #[test]
    fn push_installs_immediately_and_rejects_stale() {
        let v = validator("push");
        let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
        agent.register_validator(v.validator_hash(), Arc::new(InProcessValidator(Arc::clone(&v))));
        v.subscribe(Box::new(AgentSink::new(&agent)));
        // The subscription snapshot already installed a CRL.
        assert!(agent.crl(&v.validator_hash(), fixed_clock()).is_some());

        let d1 = v.revoke(HashVal::of(b"one"));
        let d2 = v.revoke(HashVal::of(b"two"));
        let crl = agent.crl(&v.validator_hash(), fixed_clock()).unwrap();
        assert_eq!(crl.serial, d2.crl.serial);
        assert!(crl.revokes(&HashVal::of(b"one")));
        assert!(crl.revokes(&HashVal::of(b"two")));

        // A replayed older delta must not roll the CRL back…
        assert!(agent.apply_delta(&d1).is_ok());
        assert_eq!(
            agent.crl(&v.validator_hash(), fixed_clock()).unwrap().serial,
            d2.crl.serial
        );
        // …but its (signed, monotone) newly_revoked still reaches the
        // buses: out-of-order delivery of concurrent revocations must not
        // skip warm-cache eviction.
        struct Recorder(std::sync::Mutex<Vec<HashVal>>);
        impl crate::bus::RevocationBus for Recorder {
            fn certificate_revoked(&self, h: &HashVal) -> usize {
                self.0.lock().unwrap().push(h.clone());
                1
            }
        }
        let recorder = Arc::new(Recorder(std::sync::Mutex::new(Vec::new())));
        agent.add_bus(recorder.clone());
        assert!(agent.apply_delta(&d1).is_ok());
        assert_eq!(*recorder.0.lock().unwrap(), vec![HashVal::of(b"one")]);

        // Deltas from unregistered validators are rejected.
        let stranger = validator("stranger");
        let foreign = stranger.revoke(HashVal::of(b"x"));
        assert!(agent.apply_delta(&foreign).is_err());
        assert_eq!(agent.stats().deltas_rejected, 1);
    }

    #[test]
    fn tampered_crl_signature_from_a_registered_validator_is_rejected() {
        let v = validator("tampered");
        let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
        agent.register_validator(v.validator_hash(), Arc::new(InProcessValidator(Arc::clone(&v))));
        let installed = v.revoke(HashVal::of(b"one"));
        assert!(agent.apply_delta(&installed).is_ok());
        // Same signer, current window: only the signature check can
        // catch a flipped bit in the CRL's signature.
        let mut tampered = v.revoke(HashVal::of(b"two"));
        let mut s = tampered.crl.signature.s.to_bytes_be();
        *s.last_mut().unwrap() ^= 1;
        tampered.crl.signature.s = snowflake_bigint::Ubig::from_bytes_be(&s);
        assert_eq!(agent.apply_delta(&tampered), Err("CRL signature invalid".into()));
        assert_eq!(agent.stats().deltas_rejected, 1);
        let crl = agent.crl(&v.validator_hash(), fixed_clock()).unwrap();
        assert_eq!(crl.serial, installed.crl.serial);
        assert!(!crl.revokes(&HashVal::of(b"two")));
    }

    #[test]
    fn revalidation_cache_round_trips_and_dies_on_revoke() {
        let v = validator("reval-cache");
        let agent = FreshnessAgent::with_pacing(fixed_clock, 30, 0, 0);
        agent.register_validator(v.validator_hash(), Arc::new(InProcessValidator(Arc::clone(&v))));
        v.subscribe(Box::new(AgentSink::new(&agent)));
        let cert = HashVal::of(b"cert");
        agent.fetch_revalidation(&v.validator_hash(), &cert).unwrap();
        assert!(agent.revalidation(&cert, fixed_clock()).is_some());
        v.revoke(cert.clone());
        assert!(
            agent.revalidation(&cert, fixed_clock()).is_none(),
            "revoking must drop the cached revalidation"
        );
        assert!(agent.fetch_revalidation(&v.validator_hash(), &cert).is_err());
    }
}
