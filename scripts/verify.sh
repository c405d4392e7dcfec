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

echo "==> verification fast-path suites (modpow vs reference, batch pinpointing, memo soundness, the revocation guard)"
# The fast paths are optimizations of an unchanged acceptance predicate,
# and each has a suite proving it against the slow reference: bigint
# sliding-window/fixed-base modpow vs square-and-multiply, batched
# Schnorr accepts iff every member verifies individually (bit-flips are
# pinpointed), and the verified-chain memo answers byte-identically to a
# cold context while staying revocation-sound — on the one
# revocation-guarded map (model proptest + verifier-vs-revoker stress)
# that it and every other warm store is built on.  A change that deletes
# or renames these suites must fail loudly here.
cargo test -q --offline -p snowflake-bigint --test props
cargo test -q --offline -p snowflake-crypto --test batch_props
cargo test -q --offline -p snowflake-core --test chain_memo
cargo test -q --offline -p snowflake-core --test provenance

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

echo "==> runtime gate: no raw thread::spawn in server accept paths"
# Every server serves from crates/runtime (bounded pools, counted sheds).
# This gate fails if a serving-path source file regrows a raw
# thread::spawn outside its #[cfg(test)] module; the only sanctioned
# spawns live inside crates/runtime itself.
gate_failed=0
for f in \
    crates/http/src/server.rs crates/http/src/stream.rs \
    crates/http/src/mac.rs crates/http/src/client.rs \
    crates/rmi/src/server.rs crates/rmi/src/client.rs \
    crates/revocation/src/service.rs crates/revocation/src/freshness.rs \
    crates/channel/src/transport.rs crates/channel/src/secure.rs \
    crates/apps/src/gateway.rs crates/apps/src/webserver.rs \
    crates/apps/src/emaildb.rs \
    crates/broker/src/authz.rs crates/broker/src/topic.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} /thread::spawn/{print FILENAME": "NR": "$0; found=1} END{exit found}' "$f"; then
        :
    else
        gate_failed=1
    fi
done
if [ "$gate_failed" -ne 0 ]; then
    echo "FAIL: raw thread::spawn in a server accept path (use snowflake-runtime)"
    exit 1
fi

echo "==> reactor gate: no server surface does its own socket accept/read"
# The connection layer owns every listening and parked socket: a server
# surface registers an accept callback / ConnDriver with the reactor and
# never calls accept() or drives a TcpStream read loop itself.  This
# gate fails if a surface file regrows a direct accept loop or a
# blocking per-connection stream read outside its #[cfg(test)] module
# (the only sanctioned socket loops live in crates/runtime/src/reactor).
reactor_gate_failed=0
for f in \
    crates/http/src/server.rs \
    crates/rmi/src/server.rs \
    crates/revocation/src/service.rs \
    crates/apps/src/gateway.rs crates/apps/src/webserver.rs \
    crates/apps/src/emaildb.rs crates/apps/src/vfs.rs \
    crates/broker/src/authz.rs crates/broker/src/topic.rs; do
    [ -f "$f" ] || continue
    if awk '/#\[cfg\(test\)\]/{exit}
            /\.accept\(|\.incoming\(|read_to_end\(|read_exact\(|BufReader::new\(.*TcpStream/{
                print FILENAME": "NR": "$0; found=1
            } END{exit found}' "$f"; then
        :
    else
        reactor_gate_failed=1
    fi
done
if [ "$reactor_gate_failed" -ne 0 ]; then
    echo "FAIL: a server surface accepts or reads sockets outside the reactor (see snowflake-runtime reactor)"
    exit 1
fi

echo "==> audit gate: every server decision path emits audit events"
# Each file that decides grants/denies/sheds/revocations must call its
# audit emitter (self.audit(...), audit_shed(...), or emitter.emit(...))
# outside its #[cfg(test)] module.  A decision path that stops emitting
# silently breaks the tamper-evident trail; this gate makes that loud.
audit_gate_failed=0
for f in \
    crates/http/src/server.rs \
    crates/rmi/src/server.rs \
    crates/apps/src/gateway.rs \
    crates/apps/src/emaildb.rs \
    crates/revocation/src/bus.rs \
    crates/broker/src/authz.rs crates/broker/src/topic.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} /self\.audit\(|audit_shed\(|\.emit\(/{found=1} END{exit !found}' "$f"; then
        :
    else
        echo "$f: no audit emit call in a decision path"
        audit_gate_failed=1
    fi
done
if [ "$audit_gate_failed" -ne 0 ]; then
    echo "FAIL: a server decision path lacks an audit emit call (see snowflake-audit)"
    exit 1
fi

echo "==> memo gate: server surfaces verify through the memoized entry points"
# Every server-facing verification must flow through VerifyCtx::authorize
# or VerifyCtx::verify_cached so the verified-chain memo (and its
# revocation eviction) covers it.  This gate fails if a surface file
# regrows a direct proof.authorizes(...) / proof.verify(...) call outside
# its #[cfg(test)] module — a call site that silently bypasses the memo
# *and* its push-eviction wiring.
memo_gate_failed=0
for f in \
    crates/http/src/server.rs \
    crates/rmi/src/server.rs \
    crates/broker/src/authz.rs crates/broker/src/topic.rs \
    crates/apps/src/gateway.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} /\.authorizes\(|proof\.verify\(/{print FILENAME": "NR": "$0; found=1} END{exit found}' "$f"; then
        :
    else
        memo_gate_failed=1
    fi
done
if [ "$memo_gate_failed" -ne 0 ]; then
    echo "FAIL: a server surface verifies proofs without the verified-chain memo (use VerifyCtx::authorize / verify_cached)"
    exit 1
fi

echo "==> metrics gate: every serving surface records request latency"
# Each server surface must keep recording into its per-surface
# LatencyHistogram (request_histogram + a start_timer guard or an
# explicit record) outside its #[cfg(test)] module; a surface that goes
# quiet disappears from /metrics without failing any functional test.
metrics_gate_failed=0
for f in \
    crates/http/src/server.rs \
    crates/rmi/src/server.rs \
    crates/broker/src/authz.rs crates/broker/src/topic.rs \
    crates/apps/src/gateway.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} /request_histogram|start_timer|\.record\(|LatencyHistogram/{found=1} END{exit !found}' "$f"; then
        :
    else
        echo "$f: no latency-histogram recording in a serving path"
        metrics_gate_failed=1
    fi
done
if [ "$metrics_gate_failed" -ne 0 ]; then
    echo "FAIL: a serving surface stopped recording request latency (see snowflake-metrics)"
    exit 1
fi

echo "==> all green"
