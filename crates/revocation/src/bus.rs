//! The revocation bus: fanning push notifications into warm caches.
//!
//! Verification rejecting *new* proofs is only half the freshness story:
//! the concurrency work left several warm paths that never re-verify —
//! prover shortcut edges, established MAC sessions, the servlet's
//! identical-request cache, and the RMI server's proof cache.  Each of
//! those layers records the certificate hashes its entries were built
//! from, and implements [`RevocationBus`] so a freshness agent can evict
//! exactly the entries a revoked certificate poisoned — no flush, no
//! restart.

use snowflake_core::audit::{AuditEmitter, Decision, DecisionEvent};
use snowflake_core::Time;
use snowflake_crypto::HashVal;
use snowflake_http::{MacSessionStore, ProtectedServlet, SnowflakeService};
use snowflake_prover::Prover;
use snowflake_rmi::RmiServer;
use snowflake_runtime::Surface;
use std::sync::Arc;

/// A warm cache that can evict everything built from one certificate.
pub trait RevocationBus: Send + Sync {
    /// Evicts all state depending on the certificate with this hash and
    /// returns how many entries were dropped.
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize;
}

impl RevocationBus for Prover {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.invalidate_cert(cert_hash)
    }
}

/// Every surface is wired to revocation push the same way: its memo
/// drops the chains built on the dead certificate.
impl RevocationBus for Surface {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.chain_memo().evict_cert(cert_hash)
    }
}

impl RevocationBus for MacSessionStore {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.evict_by_cert(cert_hash)
    }
}

impl RevocationBus for RmiServer {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.invalidate_cert(cert_hash)
    }
}

impl<S: SnowflakeService> RevocationBus for ProtectedServlet<S> {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.invalidate_cert(cert_hash)
    }
}

// A shared handle to a bus is a bus, so subsystems that live behind an
// `Arc` (the prover, a topic broker) drop straight into a `FanoutBus`
// without a wrapper type.
impl<T: RevocationBus + ?Sized> RevocationBus for Arc<T> {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        (**self).certificate_revoked(cert_hash)
    }
}

/// A bus broadcasting to several others (useful when one subscription
/// must reach caches owned by different subsystems).
pub struct FanoutBus(pub Vec<Arc<dyn RevocationBus>>);

impl RevocationBus for FanoutBus {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        self.0
            .iter()
            .map(|b| b.certificate_revoked(cert_hash))
            .sum()
    }
}

/// A bus that makes revocations first-class audit events: every push it
/// forwards is recorded as a [`Decision::Revoke`] naming the dead
/// certificate and how many warm-cache entries died with it, *after* the
/// inner bus has evicted them (the audit record describes completed
/// invalidation, not intent).
pub struct AuditedBus {
    inner: Arc<dyn RevocationBus>,
    emitter: Arc<dyn AuditEmitter>,
    clock: fn() -> Time,
}

impl AuditedBus {
    /// Wraps `inner`, reporting through `emitter` with wall-clock time.
    pub fn new(inner: Arc<dyn RevocationBus>, emitter: Arc<dyn AuditEmitter>) -> AuditedBus {
        Self::with_clock(inner, emitter, Time::now)
    }

    /// Wraps with an injected clock (tests, benches).
    pub fn with_clock(
        inner: Arc<dyn RevocationBus>,
        emitter: Arc<dyn AuditEmitter>,
        clock: fn() -> Time,
    ) -> AuditedBus {
        AuditedBus {
            inner,
            emitter,
            clock,
        }
    }
}

impl RevocationBus for AuditedBus {
    fn certificate_revoked(&self, cert_hash: &HashVal) -> usize {
        let evicted = self.inner.certificate_revoked(cert_hash);
        self.emitter.emit(
            DecisionEvent::new(
                (self.clock)(),
                "revocation",
                Decision::Revoke,
                &format!("cert:{}", cert_hash.short_hex()),
                "invalidate",
                &format!("evicted {evicted} warm-cache entries"),
            )
            .with_certs(vec![cert_hash.clone()]),
        );
        evicted
    }
}
