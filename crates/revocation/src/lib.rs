//! Live revocation for Snowflake (paper §4.1, made distributed).
//!
//! `snowflake-core` expresses SPKI revocation — CRLs and one-time
//! revalidations — as signed statements in the logic, but statements do
//! not distribute themselves.  This crate is the subsystem that moves
//! them:
//!
//! * [`ValidatorService`] — the authority side.  Owns revocation state for
//!   one validator key, serves signed [`snowflake_core::Crl`]s and
//!   [`snowflake_core::Revalidation`]s over direct calls or RMI
//!   ([`ValidatorObject`]), accepts push subscriptions, and broadcasts a
//!   signed [`RevocationDelta`] to every subscriber the moment a
//!   certificate is revoked.
//! * [`FreshnessAgent`] — the verifier side.  Caches artifacts keyed by
//!   validator, refreshes each CRL before its validity window closes
//!   (with per-agent jitter so a fleet does not stampede one validator),
//!   and implements [`snowflake_core::RevocationSource`] so proof
//!   checking consults the cache without ever blocking on a fetch.
//! * [`RevocationBus`] — the cache-invalidation fabric.  The warm paths
//!   that never re-verify (prover shortcut edges, MAC sessions, verified
//!   identical-request entries, RMI proof caches) each record the
//!   certificate hashes they were built from; a push delta evicts exactly
//!   the poisoned entries, so one revocation takes effect everywhere
//!   without a flush or a restart.
//!
//! The lifecycle, end to end: a certificate opts in by naming a validator
//! in its [`snowflake_core::RevocationPolicy`]; verifiers attach a
//! freshness agent to their verify contexts and subscribe it (plus their
//! caches' buses) to the validator; when the validator revokes, the push
//! lands, the caches evict, and the very next request — over any boundary
//! — is denied.

#![deny(missing_docs)]

mod bus;
mod delta;
mod freshness;
mod persist;
mod service;

pub use bus::{AuditedBus, FanoutBus, RevocationBus};
pub use delta::RevocationDelta;
pub use persist::ValidatorStore;
pub use freshness::{
    spawn_push_listener, AgentSink, FreshnessAgent, FreshnessStats, InProcessValidator,
    RmiValidatorClient, ValidatorClient, DEFAULT_MAX_JITTER, DEFAULT_REFRESH_LEAD,
};
pub use service::{
    read_delta, PushSink, ReactorSink, ValidatorObject, ValidatorService, ValidatorStats,
    DEFAULT_CRL_WINDOW, DEFAULT_REVALIDATION_WINDOW, VALIDATOR_OBJECT,
};
