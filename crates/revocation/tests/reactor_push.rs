//! Revocation push through the connection reactor: a remote subscriber
//! is a parked write-only socket (no forwarder thread), each delta is
//! one length-prefixed frame `read_delta` understands, a subscriber that
//! stalls past the reactor's buffer cap is shed into the runtime's ledger
//! and dropped, a subscriber that hangs up is pruned without waiting for
//! a revocation, and shutdown closes the sink sockets.

use snowflake_channel::TcpTransport;
use snowflake_core::Time;
use snowflake_crypto::{DetRng, Group, HashVal, KeyPair};
use snowflake_revocation::{read_delta, ValidatorService};
use snowflake_runtime::{PoolConfig, ServerRuntime};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn validator() -> Arc<ValidatorService> {
    let mut rng = DetRng::new(b"reactor-push-validator");
    ValidatorService::new(KeyPair::generate(Group::test512(), &mut |b| rng.fill(b)))
}

/// Accepts one TCP connection and subscribes it through the reactor,
/// returning the client end.
fn subscribe_one(
    v: &Arc<ValidatorService>,
    runtime: &Arc<ServerRuntime>,
) -> TcpStream {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    let (served, _) = listener.accept().unwrap();
    v.subscribe_reactor(served, runtime).unwrap();
    client
}

/// The snapshot and subsequent event deltas arrive on the verifier side
/// exactly as `read_delta` expects, with the subscription holding no
/// thread — and shutdown closes the parked sink socket.
#[test]
fn deltas_reach_a_reactor_subscriber() {
    let v = validator();
    let runtime = ServerRuntime::new(PoolConfig::new("push-reactor", 2, 4));
    let already_dead = HashVal::of(b"revoked-before-subscribing");
    v.revoke(already_dead.clone());
    let client = subscribe_one(&v, &runtime);
    let mut verifier = TcpTransport::new(client);

    // The subscription snapshot arrives first and covers what was revoked
    // before the subscriber joined.
    let snapshot = read_delta(&mut verifier).unwrap();
    assert_eq!(snapshot.newly_revoked, vec![already_dead.clone()]);
    assert_eq!(v.subscriber_count(), 1);
    assert_eq!(runtime.reactor_stats().open_sinks, 1);

    // A revocation is pushed as one framed delta of its own: just the new
    // victim, under a newer validator-signed CRL listing both.
    let victim = HashVal::of(b"revoked-cert");
    v.revoke(victim.clone());
    let event = read_delta(&mut verifier).unwrap();
    assert_eq!(event.newly_revoked, vec![victim.clone()]);
    assert!(event.crl.revokes(&victim) && event.crl.revokes(&already_dead));
    assert!(event.crl.serial > snapshot.crl.serial);
    assert!(event.check(&v.validator_hash(), Time::now()).is_ok());

    // Shutdown drains the reactor and closes the sink: the verifier sees
    // EOF, and the next broadcast drops the dead subscription.
    runtime.shutdown();
    assert!(read_delta(&mut verifier).is_err(), "sink closed at drain");
    v.revoke(HashVal::of(b"after-shutdown"));
    assert_eq!(v.subscriber_count(), 0);
}

/// A subscriber that never reads stalls: once the socket and the
/// reactor's per-sink buffer are full, the sink is shed — counted in the
/// runtime's ledger under its own surface — and the subscription drops,
/// without ever blocking the validator's broadcast path.
#[test]
fn stalled_reactor_subscriber_is_shed_and_dropped() {
    let v = validator();
    let runtime = ServerRuntime::new(PoolConfig::new("push-stall", 2, 4));
    // Never read from this end: the kernel buffers fill, then the
    // reactor's cap is the backstop.
    let _stalled = subscribe_one(&v, &runtime);
    assert_eq!(v.subscriber_count(), 1);

    // Each revocation grows the CRL, so the pushed deltas grow too; the
    // cap must trip well within this bound.
    let mut dropped_after = None;
    for i in 0..4_000u32 {
        v.revoke(HashVal::of(format!("cert-{i}").as_bytes()));
        if v.subscriber_count() == 0 {
            dropped_after = Some(i);
            break;
        }
    }
    assert!(
        dropped_after.is_some(),
        "a never-reading subscriber must be dropped"
    );
    assert!(
        runtime
            .sheds_by_surface()
            .contains(&("revocation-push".to_owned(), 1)),
        "the stall is one counted shed on the push surface: {:?}",
        runtime.sheds_by_surface()
    );
    assert_eq!(runtime.reactor_stats().open_sinks, 0);
    runtime.shutdown();
}

/// Verifiers that subscribe and hang up leave the subscriber list on
/// their own: the sink's close callback prunes them (counted as dropped)
/// with no revocation broadcast to discover the dead sockets.
#[test]
fn hung_up_reactor_subscribers_are_pruned_without_a_revocation() {
    const N: usize = 20;
    let v = validator();
    let runtime = ServerRuntime::new(PoolConfig::new("push-hangup", 2, 4));
    let clients: Vec<TcpStream> = (0..N).map(|_| subscribe_one(&v, &runtime)).collect();
    assert_eq!(v.subscriber_count(), N);

    drop(clients);
    let start = Instant::now();
    while v.subscriber_count() != 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{} hung-up subscribers still listed",
            v.subscriber_count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = v.stats();
    assert_eq!(stats.revocations, 0, "nothing was broadcast");
    assert_eq!(stats.subscribers_dropped, N as u64);
    assert_eq!(runtime.reactor_stats().open_sinks, 0);
    runtime.shutdown();
}
