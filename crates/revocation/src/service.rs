//! The validator service: the authority that *distributes* revocation.
//!
//! A [`ValidatorService`] owns the revocation state for one validator key:
//! which certificates are dead, the current signed [`Crl`], and the
//! one-time [`Revalidation`]s it is willing to mint.  It serves both pull
//! (fetch the current CRL, request a revalidation — including over RMI via
//! [`ValidatorObject`]) and push: subscribers registered through
//! [`ValidatorService::subscribe`] receive a signed [`RevocationDelta`]
//! the moment a certificate is revoked, over whatever sink they choose —
//! an in-process freshness agent, or a socket to another host parked in
//! the connection reactor ([`ReactorSink`]).
//!
//! This is the production shape of Vanadium-style third-party validators:
//! short-lived signed artifacts minted centrally, cached and refreshed at
//! every verifier.

use crate::delta::RevocationDelta;
use snowflake_channel::Transport;
use snowflake_core::sync::LockExt;
use snowflake_core::{Crl, Principal, Revalidation, Time, Validity};
use snowflake_crypto::{HashVal, KeyPair, PublicKey};
use snowflake_rmi::{CallerInfo, Invocation, RemoteObject, RmiFault};
use snowflake_runtime::Surface;
use snowflake_sexpr::Sexp;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Default CRL validity window (seconds).  Short enough that a verifier
/// cut off from both push and pull fails closed quickly; long enough that
/// refresh traffic stays cheap.
pub const DEFAULT_CRL_WINDOW: u64 = 300;

/// Default revalidation validity window (seconds) — one-time revalidations
/// are deliberately much shorter than CRLs.
pub const DEFAULT_REVALIDATION_WINDOW: u64 = 30;

/// The registry name [`ValidatorObject`] is conventionally bound to.
pub const VALIDATOR_OBJECT: &str = "revocation-validator";

/// A push-notification sink.  Returning `false` unsubscribes the sink
/// (dead transports and dropped agents clean themselves up this way).
///
/// `push` runs with the validator's subscriber list locked and so must
/// **not block**: the socket-backed sink queues the delta on the reactor
/// instead of writing inline, so one stalled remote verifier cannot halt
/// revocation distribution for the whole fleet.
pub trait PushSink: Send {
    /// Delivers one delta; `false` drops the subscription.
    fn push(&mut self, delta: &RevocationDelta) -> bool;
}

/// A sink delivering deltas through the connection reactor: the socket
/// parks in the reactor's epoll set and is written nonblocking, so a
/// remote subscriber costs no thread at all.
///
/// Each frame is a 4-byte big-endian length prefix around the delta's
/// canonical S-expression — what [`read_delta`] over a `TcpTransport`
/// expects on the verifier side.  A remote that stalls past the
/// reactor's per-sink buffer cap is shed (counted and audited by the
/// reactor on its service's `revocation-push` surface) and its socket
/// closed; the next broadcast then sees `push` fail and drops the
/// subscription.
pub struct ReactorSink {
    handle: snowflake_runtime::SinkHandle,
}

impl ReactorSink {
    /// Parks `stream` in `runtime`'s reactor as a write-only push sink
    /// under `surface`, shared by every sink of one service.
    pub fn new(
        stream: std::net::TcpStream,
        runtime: &Arc<snowflake_runtime::ServerRuntime>,
        surface: &Arc<Surface>,
    ) -> std::io::Result<ReactorSink> {
        let handle = runtime.reactor().adopt_sink(stream, Arc::clone(surface), None)?;
        Ok(ReactorSink { handle })
    }
}

impl PushSink for ReactorSink {
    fn push(&mut self, delta: &RevocationDelta) -> bool {
        let frame = delta.to_sexp().canonical();
        let mut buf = Vec::with_capacity(4 + frame.len());
        buf.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        buf.extend_from_slice(&frame);
        self.handle.send(&buf)
    }
}

/// Counters exposed for the freshness benchmarks and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ValidatorStats {
    /// Certificates revoked so far.
    pub revocations: u64,
    /// Signed CRLs issued (initial + reissues + per-revocation).
    pub crls_issued: u64,
    /// Revalidations minted.
    pub revalidations: u64,
    /// Deltas delivered to subscribers (one per subscriber per event).
    pub deltas_pushed: u64,
    /// Subscribers dropped after a failed push.
    pub subscribers_dropped: u64,
}

struct State {
    revoked: BTreeSet<HashVal>,
    serial: u64,
    cached: Option<Crl>,
    /// Durable authority state; `None` for an ephemeral validator.
    store: Option<crate::persist::ValidatorStore>,
}

/// Owns revocation state for one validator key and distributes it.
pub struct ValidatorService {
    key: KeyPair,
    clock: fn() -> Time,
    crl_window: u64,
    reval_window: u64,
    state: Mutex<State>,
    subscribers: Mutex<Vec<Box<dyn PushSink>>>,
    stats: Mutex<ValidatorStats>,
    rng: Mutex<Box<dyn FnMut(&mut [u8]) + Send>>,
    /// The `revocation-push` surface every [`ReactorSink`] is adopted
    /// under.
    push: Arc<Surface>,
}

impl ValidatorService {
    /// Creates a validator with the default windows, wall-clock time, and
    /// OS entropy.
    pub fn new(key: KeyPair) -> Arc<ValidatorService> {
        Self::with_clock(key, Time::now, Box::new(snowflake_crypto::rand_bytes))
    }

    /// Creates a validator with injected clock and entropy (tests/benches).
    pub fn with_clock(
        key: KeyPair,
        clock: fn() -> Time,
        rng: Box<dyn FnMut(&mut [u8]) + Send>,
    ) -> Arc<ValidatorService> {
        Self::with_windows(key, clock, rng, DEFAULT_CRL_WINDOW, DEFAULT_REVALIDATION_WINDOW)
    }

    /// Full-control constructor: CRL and revalidation windows in seconds.
    pub fn with_windows(
        key: KeyPair,
        clock: fn() -> Time,
        rng: Box<dyn FnMut(&mut [u8]) + Send>,
        crl_window: u64,
        reval_window: u64,
    ) -> Arc<ValidatorService> {
        Self::build(key, clock, rng, crl_window, reval_window, None)
    }

    /// A validator whose authority state (revoked set + CRL serial
    /// high-water mark) lives in a [`crate::ValidatorStore`]: a restart
    /// resumes the revoked set and can never sign a serial at or below
    /// one it signed before the crash.
    pub fn with_store(
        key: KeyPair,
        clock: fn() -> Time,
        rng: Box<dyn FnMut(&mut [u8]) + Send>,
        crl_window: u64,
        reval_window: u64,
        store: crate::persist::ValidatorStore,
    ) -> Arc<ValidatorService> {
        Self::build(key, clock, rng, crl_window, reval_window, Some(store))
    }

    fn build(
        key: KeyPair,
        clock: fn() -> Time,
        rng: Box<dyn FnMut(&mut [u8]) + Send>,
        crl_window: u64,
        reval_window: u64,
        store: Option<crate::persist::ValidatorStore>,
    ) -> Arc<ValidatorService> {
        let (revoked, serial) = store.as_ref().map_or_else(
            || (BTreeSet::new(), 0),
            |s| (s.revoked().clone(), s.serial_high_water()),
        );
        Arc::new(ValidatorService {
            key,
            clock,
            crl_window,
            reval_window,
            state: Mutex::new(State {
                revoked,
                serial,
                cached: None,
                store,
            }),
            subscribers: Mutex::new(Vec::new()),
            stats: Mutex::new(ValidatorStats::default()),
            rng: Mutex::new(rng),
            push: Arc::new(Surface::new("revocation-push").with_clock(clock)),
        })
    }

    /// The validator's public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.key.public
    }

    /// The validator's key hash — what certificates name in their
    /// [`snowflake_core::RevocationPolicy`].
    pub fn validator_hash(&self) -> HashVal {
        self.key.public.hash()
    }

    /// Current statistics.
    pub fn stats(&self) -> ValidatorStats {
        *self.stats.plock()
    }

    /// Is this certificate hash currently revoked?
    pub fn is_revoked(&self, cert_hash: &HashVal) -> bool {
        self.state.plock().revoked.contains(cert_hash)
    }

    /// Registers a scrape-time callback exposing [`ValidatorStats`]
    /// under `sf_validator_*` — the same counters
    /// [`stats`](Self::stats) reads (collector id `"validator"`).
    pub fn register_metrics(self: &Arc<Self>, registry: &snowflake_metrics::Registry) {
        use snowflake_metrics::Sample;
        registry.set_help(
            "sf_validator_revocations_total",
            "Certificates revoked by this validator authority",
        );
        let svc = Arc::downgrade(self);
        registry.register_collector(
            "validator",
            Arc::new(move |out: &mut Vec<Sample>| {
                let Some(svc) = svc.upgrade() else { return };
                let s = svc.stats();
                out.push(Sample::counter("sf_validator_revocations_total", &[], s.revocations));
                out.push(Sample::counter("sf_validator_crls_issued_total", &[], s.crls_issued));
                out.push(Sample::counter(
                    "sf_validator_revalidations_total",
                    &[],
                    s.revalidations,
                ));
                out.push(Sample::counter(
                    "sf_validator_deltas_pushed_total",
                    &[],
                    s.deltas_pushed,
                ));
                out.push(Sample::counter(
                    "sf_validator_subscribers_dropped_total",
                    &[],
                    s.subscribers_dropped,
                ));
            }),
        );
    }

    /// Issues (and caches) a CRL for the current state, bumping the serial.
    ///
    /// With a durable store the new serial is persisted **before** the
    /// signature is made: a crash between the two burns a serial number,
    /// never reuses one.  A store write failure panics — this validator
    /// *is* the revocation authority, and signing a CRL whose serial
    /// might repeat after a restart would let a stale list outrank a
    /// newer one; refusing to sign is the fail-closed outcome.
    fn issue_locked(&self, state: &mut State, now: Time) -> Crl {
        if let Some(store) = &mut state.store {
            store
                .advance(state.serial + 1)
                .expect("validator store unwritable: refusing to sign a CRL");
        }
        state.serial += 1;
        let revoked: Vec<HashVal> = state.revoked.iter().cloned().collect();
        let crl = {
            let mut rng = self.rng.plock();
            Crl::issue_with_serial(
                &self.key,
                state.serial,
                revoked,
                Validity::between(now, now.plus(self.crl_window)),
                &mut **rng,
            )
        };
        state.cached = Some(crl.clone());
        self.stats.plock().crls_issued += 1;
        crl
    }

    /// The current signed CRL, reissued when the cached one is no longer
    /// current (so pull clients always receive a full freshness window).
    pub fn current_crl(&self) -> Crl {
        let now = (self.clock)();
        let mut state = self.state.plock();
        if let Some(crl) = &state.cached {
            // Serve the cached list through the first half of its window;
            // refreshing pullers then always get ≥ half a window of margin.
            let fresh_until = Time(crl.validity.not_before.map_or(0, |t| t.0) + self.crl_window / 2);
            if crl.validity.contains(now) && now <= fresh_until {
                return crl.clone();
            }
        }
        self.issue_locked(&mut state, now)
    }

    /// Revokes a certificate: updates state, issues a fresh CRL, and
    /// broadcasts a signed delta to every subscriber.  Returns the delta
    /// (idempotent: revoking an already-dead certificate re-broadcasts).
    pub fn revoke(&self, cert_hash: HashVal) -> RevocationDelta {
        let now = (self.clock)();
        let delta = {
            let mut state = self.state.plock();
            // Persist the revocation before anything observes it; a
            // write failure panics for the same fail-closed reason as
            // `issue_locked` — a revocation that could silently vanish
            // on restart is worse than a dead validator.
            if let Some(store) = &mut state.store {
                store
                    .record_revoked(&cert_hash)
                    .expect("validator store unwritable: refusing to revoke volatilely");
            }
            state.revoked.insert(cert_hash.clone());
            let crl = self.issue_locked(&mut state, now);
            RevocationDelta {
                newly_revoked: vec![cert_hash],
                crl,
            }
        };
        self.stats.plock().revocations += 1;
        self.broadcast(&delta);
        delta
    }

    /// Mints a one-time revalidation for a live certificate; refuses for a
    /// revoked one.
    pub fn revalidate(&self, cert_hash: &HashVal) -> Result<Revalidation, String> {
        if self.is_revoked(cert_hash) {
            return Err("certificate has been revoked".into());
        }
        let now = (self.clock)();
        let reval = {
            let mut rng = self.rng.plock();
            Revalidation::issue(
                &self.key,
                cert_hash.clone(),
                Validity::between(now, now.plus(self.reval_window)),
                &mut **rng,
            )
        };
        self.stats.plock().revalidations += 1;
        Ok(reval)
    }

    /// Registers a push subscriber and immediately sends it a snapshot
    /// delta (everything currently revoked + the current CRL), so late
    /// subscribers converge without waiting for the next event.
    ///
    /// The subscriber list is locked across snapshot-build, push, and
    /// registration: a revocation racing the subscription is therefore
    /// either inside the snapshot (it updated state before the snapshot
    /// read it) or broadcast to the now-registered sink afterwards —
    /// never lost in between.
    pub fn subscribe(&self, mut sink: Box<dyn PushSink>) {
        let mut sinks = self.subscribers.plock();
        let snapshot = {
            let now = (self.clock)();
            let mut state = self.state.plock();
            let crl = match &state.cached {
                Some(c) if c.validity.contains(now) => c.clone(),
                _ => self.issue_locked(&mut state, now),
            };
            RevocationDelta {
                newly_revoked: state.revoked.iter().cloned().collect(),
                crl,
            }
        };
        if sink.push(&snapshot) {
            self.stats.plock().deltas_pushed += 1;
            sinks.push(sink);
        } else {
            self.stats.plock().subscribers_dropped += 1;
        }
    }

    /// Subscribes a remote verifier's TCP connection through the
    /// connection reactor: the socket parks there and every delta is
    /// written nonblocking, so the subscription holds no thread and no
    /// pool worker.
    pub fn subscribe_reactor(
        &self,
        stream: std::net::TcpStream,
        runtime: &Arc<snowflake_runtime::ServerRuntime>,
    ) -> std::io::Result<()> {
        let sink = ReactorSink::new(stream, runtime, &self.push)?;
        self.subscribe(Box::new(sink));
        Ok(())
    }

    /// Number of live subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.plock().len()
    }

    fn broadcast(&self, delta: &RevocationDelta) {
        let mut sinks = self.subscribers.plock();
        let before = sinks.len();
        sinks.retain_mut(|s| s.push(delta));
        let delivered = sinks.len() as u64;
        let dropped = (before - sinks.len()) as u64;
        let mut stats = self.stats.plock();
        stats.deltas_pushed += delivered;
        stats.subscribers_dropped += dropped;
    }
}

/// The validator served as an RMI remote object — `crl` returns the
/// current signed list, `revalidate <cert-hash>` mints a one-time
/// revalidation.  Both artifacts are signed statements, so the object is
/// safe to register *open* (no authorization needed to read public
/// revocation data): `server.register_open(VALIDATOR_OBJECT, obj)`.
pub struct ValidatorObject(pub Arc<ValidatorService>);

impl RemoteObject for ValidatorObject {
    fn issuer(&self) -> Principal {
        Principal::key(self.0.public_key())
    }

    fn invoke(&self, invocation: &Invocation, _caller: &CallerInfo) -> Result<Sexp, RmiFault> {
        match invocation.method.as_str() {
            "crl" => Ok(self.0.current_crl().to_sexp()),
            "revalidate" => {
                let hash_sexp = invocation
                    .args
                    .first()
                    .ok_or_else(|| RmiFault::Application("revalidate needs a cert hash".into()))?;
                let cert_hash = HashVal::from_sexp(hash_sexp)
                    .map_err(|e| RmiFault::Application(format!("bad cert hash: {e}")))?;
                self.0
                    .revalidate(&cert_hash)
                    .map(|r| r.to_sexp())
                    .map_err(RmiFault::Application)
            }
            other => Err(RmiFault::NoSuchMethod(other.into())),
        }
    }
}

/// Reads one pushed delta frame from a transport (the verifier side of
/// [`ValidatorService::subscribe_reactor`]).
pub fn read_delta(transport: &mut dyn Transport) -> std::io::Result<RevocationDelta> {
    let frame = transport.recv()?;
    let sexp = Sexp::parse(&frame)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    RevocationDelta::from_sexp(&sexp)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowflake_crypto::{DetRng, Group};

    fn fixed_clock() -> Time {
        Time(1_000)
    }

    fn validator(seed: &str) -> Arc<ValidatorService> {
        let mut kr = DetRng::new(seed.as_bytes());
        let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
        let mut sr = DetRng::new(b"svc-rng");
        ValidatorService::with_clock(key, fixed_clock, Box::new(move |b| sr.fill(b)))
    }

    #[test]
    fn crl_serials_increase_and_cache_serves() {
        let v = validator("serial");
        let c1 = v.current_crl();
        let c2 = v.current_crl();
        assert_eq!(c1, c2, "cached list served while fresh");
        let delta = v.revoke(HashVal::of(b"dead"));
        assert!(delta.crl.serial > c1.serial);
        assert!(delta.crl.revokes(&HashVal::of(b"dead")));
        assert!(v.current_crl().revokes(&HashVal::of(b"dead")));
        assert!(v
            .current_crl()
            .check(&v.validator_hash(), fixed_clock())
            .is_ok());
    }

    #[test]
    fn revalidation_refused_for_revoked() {
        let v = validator("reval");
        let cert = HashVal::of(b"cert");
        let r = v.revalidate(&cert).unwrap();
        assert!(r.check(&v.validator_hash(), &cert, fixed_clock()).is_ok());
        v.revoke(cert.clone());
        assert!(v.revalidate(&cert).is_err());
    }

    /// A restarted validator resumes its revoked set and its serial
    /// high-water mark from the store: the first CRL signed after the
    /// restart outranks everything signed before the crash.
    #[test]
    fn stored_validator_restart_keeps_revocations_and_serial_monotonic() {
        use crate::persist::ValidatorStore;
        let dir = std::env::temp_dir().join(format!("sf-valsvc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("authority.log");
        let _ = std::fs::remove_file(&path);
        let svc = |store: ValidatorStore| {
            let mut kr = DetRng::new(b"stored");
            let key = KeyPair::generate(Group::test512(), &mut |b| kr.fill(b));
            let mut sr = DetRng::new(b"stored-rng");
            ValidatorService::with_store(
                key,
                fixed_clock,
                Box::new(move |b| sr.fill(b)),
                DEFAULT_CRL_WINDOW,
                DEFAULT_REVALIDATION_WINDOW,
                store,
            )
        };
        let pre_crash_serial = {
            let v = svc(ValidatorStore::open(&path).unwrap());
            v.revoke(HashVal::of(b"dead"));
            v.current_crl().serial
        };
        // "Restart": a fresh service over the recovered store.
        let v = svc(ValidatorStore::open(&path).unwrap());
        assert!(v.is_revoked(&HashVal::of(b"dead")), "revocation survived");
        assert!(v.revalidate(&HashVal::of(b"dead")).is_err());
        let crl = v.current_crl();
        assert!(
            crl.serial > pre_crash_serial,
            "post-restart serial {} must outrank pre-crash {}",
            crl.serial,
            pre_crash_serial
        );
        assert!(crl.revokes(&HashVal::of(b"dead")));
    }

    #[test]
    fn rmi_object_serves_crl_and_revalidation() {
        let v = validator("rmi");
        let obj = ValidatorObject(Arc::clone(&v));
        let caller = CallerInfo {
            speaker: Principal::message(b"anyone"),
            channel: snowflake_core::ChannelId {
                kind: "test".into(),
                id: HashVal::of(b"ch"),
            },
        };
        let inv = |method: &str, args: Vec<Sexp>| Invocation {
            object: VALIDATOR_OBJECT.into(),
            method: method.into(),
            args,
            quoting: None,
        };
        let crl = Crl::from_sexp(&obj.invoke(&inv("crl", vec![]), &caller).unwrap()).unwrap();
        assert!(crl.check(&v.validator_hash(), fixed_clock()).is_ok());

        let cert = HashVal::of(b"cert");
        let r = Revalidation::from_sexp(
            &obj.invoke(&inv("revalidate", vec![cert.to_sexp()]), &caller)
                .unwrap(),
        )
        .unwrap();
        assert!(r.check(&v.validator_hash(), &cert, fixed_clock()).is_ok());

        v.revoke(cert.clone());
        assert!(matches!(
            obj.invoke(&inv("revalidate", vec![cert.to_sexp()]), &caller),
            Err(RmiFault::Application(_))
        ));
        assert!(matches!(
            obj.invoke(&inv("nope", vec![]), &caller),
            Err(RmiFault::NoSuchMethod(_))
        ));
    }
}
