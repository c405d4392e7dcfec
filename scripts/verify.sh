#!/usr/bin/env sh
# Tier-1 verification for the Snowflake workspace, plus the doc build.
# Everything runs offline: all dependencies are in-tree (see crates/shims/).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "==> benchmark crate builds against the facade"
# benchmark/ is a package of its own (not a workspace member) that the
# pipeline builds from the committed tree; a facade API it calls that
# changed shape must fail here, locally, not there.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> contention + freshness + saturation + audit + wal + scaling + fanout + crypto + table1 + metrics benches (smoke mode: one iteration each)"
SF_BENCH_SMOKE=1 cargo bench -q -p snowflake-bench --offline \
    --bench prover_contention --bench mac_contention \
    --bench revocation_freshness --bench runtime_saturation \
    --bench audit_throughput --bench wal_throughput \
    --bench connection_scaling --bench broker_fanout \
    --bench crypto_primitives --bench table1_breakdown \
    --bench metrics_overhead

echo "==> crash-recovery suites (byte-boundary fault injection)"
# The durability claim is only as good as the harness that attacks it:
# run the AppendLog rule suite (torn tail vs mid-stream corruption), the
# reldb WAL sweep and the full-stack restart suite explicitly, even
# though `cargo test` above already covered them — a future change that
# deletes or renames the suites must fail loudly here.
cargo test -q --offline -p snowflake-core --test append_log
cargo test -q --offline -p snowflake-reldb --test recovery
cargo test -q --offline -p snowflake --test recovery

echo "==> connection-layer suites (slow-loris, drain-with-parked, reactor serving/push)"
# Same reasoning: the reactor's load-bearing behaviors — a slow-loris
# client parks without consuming a worker until the timer wheel reaps
# it, shutdown drains in-flight frames then closes parked connections,
# RMI sessions park between invocations, stalled push subscribers are
# shed — each have a named suite that must keep existing and passing.
cargo test -q --offline -p snowflake-http --test connection_reactor
cargo test -q --offline -p snowflake-rmi --test reactor_serving
cargo test -q --offline -p snowflake-revocation --test reactor_push

echo "==> reactor residency + containment (one wheel entry per connection, panics and stuck frames contained, hung-up sinks pruned, silent handshakes hold no worker)"
# Per-request residency must not scale with throughput, and a faulty
# driver must degrade only its own connection: each test is named, so a
# rename or deletion fails here instead of silently dropping the claim.
# A handshake is a driver state like any other: silent peers on the
# subscribe and RMI ports leave /authz answering and are reaped by the
# idle timer, a saturated pool sheds a handshake frame with the
# protocol's busy reply, a grant decided during drain is refused, and a
# connection turned into a sink leaves the idle timer.
cargo test -q --offline -p snowflake-runtime --lib -- --exact \
    reactor::tests::keep_alive_requests_leave_one_wheel_entry_per_connection \
    reactor::tests::idle_connections_are_reaped_by_the_timer_wheel \
    reactor::tests::panicking_driver_closes_its_connection_and_shutdown_returns \
    reactor::tests::panicking_scan_closes_its_connection_and_the_reactor_serves_on \
    reactor::tests::drain_force_closes_a_frame_stuck_past_the_grace \
    reactor::tests::sink_hangup_runs_the_close_callback_once \
    reactor::tests::a_frame_turns_its_connection_into_a_sink_in_place
cargo test -q --offline -p snowflake-broker --test broker -- --exact \
    hung_up_subscribers_are_pruned_without_a_publish \
    stalled_subscriber_is_shed_without_harming_healthy_ones \
    saturated_pool_denies_a_subscribe_as_before \
    a_granted_sink_outlives_the_idle_timer \
    a_grant_decided_during_drain_is_refused
cargo test -q --offline -p snowflake --test silent_handshakes -- --exact \
    silent_handshakes_leave_other_surfaces_answering \
    silent_handshakes_are_reaped_and_real_peers_still_complete
cargo test -q --offline -p snowflake-rmi --test reactor_serving -- --exact \
    saturated_pool_closes_a_handshake_without_a_reply
cargo test -q --offline -p snowflake-revocation --test reactor_push -- --exact \
    hung_up_reactor_subscribers_are_pruned_without_a_revocation

echo "==> verification fast-path suites (modpow vs reference, fast vs uncached verify, memo soundness, the revocation guard)"
# The fast paths are optimizations of an unchanged acceptance predicate,
# and each has a suite proving it against the slow reference: bigint
# sliding-window/fixed-base modpow vs square-and-multiply, table-backed
# Schnorr verify agrees with the uncached reference (bit-flips are
# rejected by both), and the verified-chain memo answers byte-identically to a
# cold context while staying revocation-sound — on the one
# revocation-guarded map (model proptest + verifier-vs-revoker stress)
# that it and every other warm store is built on.  A change that deletes
# or renames these suites must fail loudly here.
cargo test -q --offline -p snowflake-bigint --test props
cargo test -q --offline -p snowflake-crypto --test verify_props
cargo test -q --offline -p snowflake-core --test chain_memo
cargo test -q --offline -p snowflake-core --test provenance
# Decode proves subgroup membership once per key and is not a verify
# sighting; an off-subgroup key is refused on every surface however warm
# the key cache; a memo hit hashes only revalidation leaves.
cargo test -q --offline -p snowflake-crypto --test decode_membership
cargo test -q --offline -p snowflake --test off_subgroup_keys
cargo test -q --offline -p snowflake-core --lib -- --exact \
    verify::tests::memo_hit_hashes_only_revalidation_leaves
# Revocation data reaches a verifier one way (an attached source): an
# agent-fed context answers as a table of the validator's own artifacts
# does, a push after attaching is seen, audited epochs follow the pushed
# serial, and the CRL/revalidation proof rules hold on installed tables.
cargo test -q --offline -p snowflake-revocation --test freshness_props
cargo test -q --offline -p snowflake-revocation --test revoke_mid_session
cargo test -q --offline -p snowflake-core --test proof_rules

echo "==> broker suites (authz facade, subscribe-as-action, revocation-push cuts)"
# The broker's claims — authz answers fail closed on malformed bodies,
# subscribe is authorized exactly once and revalidated by push, a
# stalled subscriber is shed without harming healthy ones, one
# revocation cuts exactly the poisoned streams with a verifiable audit
# trail — each have a named suite that must keep existing and passing.
cargo test -q --offline -p snowflake-broker --test broker
cargo test -q --offline -p snowflake --test broker_e2e

echo "==> metrics suites (exposition golden file, bucket/quantile props, live full-stack /metrics scrape)"
# The metrics plane's claims — the Prometheus exposition format is
# byte-stable, log-bucket quantiles are monotone, concurrent recording
# loses nothing, and a live scrape over TCP shows every serving surface's
# latency histogram plus the shed and cache counters — each have a named
# suite that must keep existing and passing.  The e2e run is the smoke
# curl of GET /metrics under real traffic on the reactor.
cargo test -q --offline -p snowflake-metrics --test golden
cargo test -q --offline -p snowflake-metrics --test props
cargo test -q --offline -p snowflake-metrics --test stress
cargo test -q --offline -p snowflake --test metrics_e2e

echo "==> surface suites (one Surface per decision point; every decision and shed audited)"
# Surface: a reactor shed is one ledger count plus one audited Shed
# event, a sink's stall callback fires once, verification is memoized
# and consults the attached revocation source.  The audit suite asserts
# each decision surface's grant, deny and shed events end to end.
cargo test -q --offline -p snowflake-runtime --lib surface
cargo test -q --offline -p snowflake-audit --test end_to_end

echo "==> clippy deny-list: no raw spawn, no accept outside the reactor, no dup fd, no verify outside a surface's memo"
# clippy.toml disallows std::thread::{spawn, Builder::spawn},
# TcpListener::{accept, incoming}, TcpStream::try_clone and
# Proof::{verify, authorizes} in every library crate: a server regrowing
# its own thread, accept loop, blocking side door around the reactor, or
# memo-bypassing verification fails here.  The sites that implement the
# rule (the runtime's pool, scheduler, spawn_thread and reactor accept;
# core's memo cold path) carry a reasoned #[allow].  Audit emits and
# latency timers are asserted by the suites above (audit end_to_end,
# broker, broker_e2e, metrics_e2e), not grepped for.
cargo clippy --offline --workspace --lib -- -A clippy::all -D clippy::disallowed_methods

echo "==> all green"
