//! The connection-scaling rig: many mostly-idle MAC keep-alive sessions
//! on a small worker pool.
//!
//! The paper's MAC protocol (§5.3.1) amortizes one expensive
//! establishment across many cheap per-request HMAC verifications — which
//! only pays off if a server can afford to *keep sessions open*.  With a
//! thread (or pooled worker) per connection, ten thousand idle sessions
//! cost ten thousand stacks; with the connection reactor they cost one
//! epoll registration and a few buffers each.  This rig measures exactly
//! that claim: park N authenticated keep-alive connections, drive
//! requests through the active 1%, and report tail latency plus resident
//! memory per parked connection.

use snowflake_core::{Delegation, HashAlg, Principal, Proof, Tag, Time, Validity};
use snowflake_crypto::DetRng;
use snowflake_http::auth::{self, authorize_mac};
use snowflake_http::mac::ClientMacSession;
use snowflake_http::{HttpRequest, HttpResponse, HttpServer, MacSessionStore};
use snowflake_runtime::{PoolConfig, ReactorConfig, ServerRuntime};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Env var that switches the bench executable into client-fleet mode
/// (see [`client_child_main`]).
pub const CHILD_ENV: &str = "SF_CONN_SCALING_CHILD";

/// Largest client fleet one child process holds (each connection is one
/// descriptor on the child side).
const CHILD_FLEET_CAP: usize = 4_000;

/// Sizes for one scaling run.
pub struct ScalingConfig {
    /// Keep-alive connections to park (each authenticates once).
    pub parked: usize,
    /// How many of the parked connections stay active.
    pub active: usize,
    /// Requests each active connection issues during measurement.
    pub requests_per_active: usize,
    /// Established MAC sessions shared round-robin by the connections
    /// (establishment is the expensive DH step the protocol amortizes;
    /// the per-request server cost is identical for 256 sessions or
    /// 10k).
    pub sessions: usize,
    /// Pool workers serving every ready frame.
    pub workers: usize,
}

/// What one run measured.
pub struct ScalingResult {
    /// Connections actually parked in the reactor at steady state.
    pub parked: usize,
    /// Latency samples taken on the active connections.
    pub samples: usize,
    /// Median active-request latency.
    pub p50: Duration,
    /// 99th-percentile active-request latency.
    pub p99: Duration,
    /// Resident-set growth per parked connection, in bytes, measured in
    /// the server's process.  On small runs the client ends share that
    /// process (so this bounds the server cost from above); on large runs
    /// they live in child processes and this is the server cost alone.
    pub rss_per_conn_bytes: u64,
}

fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Establishes `n` MAC sessions against `store` (the once-per-session DH
/// exchange) and returns ready-to-send header pairs `(Sf-Mac-Id, Sf-Mac)`
/// for the fixed benchmark request.
fn establish_sessions(
    store: &MacSessionStore,
    n: usize,
    request_hash: &snowflake_core::HashVal,
) -> Vec<(String, String)> {
    let mut srng = {
        let mut r = DetRng::new(b"conn-scaling-server");
        move |b: &mut [u8]| r.fill(b)
    };
    (0..n)
        .map(|i| {
            let mut crng = {
                let mut r = DetRng::new(format!("conn-scaling-client-{i}").as_bytes());
                move |b: &mut [u8]| r.fill(b)
            };
            let (body, dh) = ClientMacSession::request_body(&mut crng);
            let proven = Delegation {
                subject: Principal::message(b"establishment"),
                issuer: Principal::message(b"scaling issuer"),
                tag: Tag::Star,
                validity: Validity::until(Time(1_000_000)),
                delegable: false,
            };
            let proof = Proof::Assumption {
                stmt: proven.clone(),
                authority: "bench".into(),
            };
            let reply = store
                .establish(store.epoch(), &body, proven, proof, Time(0), &mut srng)
                .expect("establishment");
            let session = ClientMacSession::from_grant(&reply, &dh, Validity::always())
                .expect("grant");
            (session.id_header(), session.authenticate(request_hash))
        })
        .collect()
}

/// The fixed request every connection sends (keep-alive, MAC'd).
fn base_request() -> HttpRequest {
    let mut req = HttpRequest::get("/doc");
    req.set_header("Connection", "keep-alive");
    req
}

/// One authenticated round trip on an already-open connection.
fn roundtrip(stream: &TcpStream, headers: &(String, String)) -> HttpResponse {
    let mut req = base_request();
    req.set_header(auth::MAC_ID_HEADER, &headers.0);
    req.set_header(auth::MAC_HEADER, &headers.1);
    req.write_to(&mut &*stream).expect("write request");
    HttpResponse::read_from(&mut BufReader::new(stream))
        .expect("read reply")
        .expect("server must reply on a kept-alive socket")
}

/// Entry point for a client-fleet child process (the bench executable
/// re-exec'd with [`CHILD_ENV`] set).  A single process cannot hold both
/// ends of 10k+ connections under a typical `RLIMIT_NOFILE` hard cap, so
/// the parked client ends live in children while the measured server (and
/// the active connections) stay in the parent.
///
/// Protocol on stdin: server address, connection count, session count,
/// then one `Sf-Mac-Id <TAB> Sf-Mac` line per session.  The child opens
/// every connection, authenticates one request on each, prints
/// `READY <count>` on stdout, and parks until the parent closes its
/// stdin.
pub fn client_child_main() -> ! {
    let stdin = std::io::stdin();
    let mut lock = stdin.lock();
    let mut line = String::new();
    let mut next_line = |lock: &mut std::io::StdinLock<'_>| {
        line.clear();
        lock.read_line(&mut line).expect("child stdin");
        line.trim_end_matches('\n').to_owned()
    };
    let addr = next_line(&mut lock);
    let count: usize = next_line(&mut lock).parse().expect("connection count");
    let nsessions: usize = next_line(&mut lock).parse().expect("session count");
    let sessions: Vec<(String, String)> = (0..nsessions)
        .map(|_| {
            let l = next_line(&mut lock);
            let (id, mac) = l.split_once('\t').expect("tab-separated session line");
            (id.to_owned(), mac.to_owned())
        })
        .collect();

    let conns: Vec<TcpStream> = (0..count)
        .map(|i| {
            let stream = TcpStream::connect(&addr).expect("child connect");
            let resp = roundtrip(&stream, &sessions[i % sessions.len()]);
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            stream
        })
        .collect();
    println!("READY {}", conns.len());
    std::io::stdout().flush().ok();

    // Park (holding every connection open) until the parent closes stdin.
    let mut buf = [0u8; 64];
    while matches!(lock.read(&mut buf), Ok(n) if n > 0) {}
    drop(conns);
    std::process::exit(0);
}

/// Spawns one child holding `count` parked connections.  The caller
/// reads the `READY` line, so several children open fleets concurrently.
fn spawn_client_fleet(
    addr: &std::net::SocketAddr,
    count: usize,
    sessions: &[(String, String)],
) -> Child {
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .env(CHILD_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn client-fleet child");
    {
        let stdin = child.stdin.as_mut().expect("child stdin");
        let mut cfg = format!("{addr}\n{count}\n{}\n", sessions.len());
        for (id, mac) in sessions {
            cfg.push_str(id);
            cfg.push('\t');
            cfg.push_str(mac);
            cfg.push('\n');
        }
        stdin.write_all(cfg.as_bytes()).expect("write child config");
        stdin.flush().expect("flush child config");
    }
    child
}

/// Parks `cfg.parked` authenticated keep-alive sessions, then measures
/// request latency through the active subset.
pub fn run_connection_scaling(cfg: &ScalingConfig) -> ScalingResult {
    // Two fds per connection (client + server end, same process) plus
    // slack for the suite's own files.
    let _ = snowflake_runtime::raise_nofile_limit((cfg.parked as u64 + 1_024) * 2 + 1_024);

    let store = Arc::new(MacSessionStore::new());
    // All connections send the identical request, so the MAC covers one
    // request hash, computed the same way the server will.
    let request_hash = auth::request_hash(&base_request(), HashAlg::Sha256);
    let sessions = establish_sessions(&store, cfg.sessions, &request_hash);

    let server = HttpServer::new();
    let verify_store = Arc::clone(&store);
    server.route(
        "/doc",
        Arc::new(move |req: &HttpRequest| {
            match authorize_mac(&verify_store, req, &Tag::Star, HashAlg::Sha256, Time(500)) {
                Some(Ok(_)) => HttpResponse::ok("text/plain", b"authorized document".to_vec()),
                Some(Err(e)) => HttpResponse::forbidden(&e),
                None => HttpResponse::forbidden("MAC headers required"),
            }
        }),
    );

    let runtime = ServerRuntime::with_reactor_config(
        PoolConfig::new("conn-scaling", cfg.workers, 256),
        ReactorConfig {
            max_parked: cfg.parked + 1_024,
            // Idle reaping must not race the measurement.
            idle_timeout: Duration::from_secs(600),
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let _handle = server
        .attach_to_reactor(listener, &runtime)
        .expect("attach to reactor");

    // Open the fleet: each connection authenticates one request and then
    // sits parked in the reactor.  The active slice lives in this
    // process; when both ends of the whole fleet would blow through
    // `RLIMIT_NOFILE` (hard-capped in most containers), the parked
    // remainder's client ends go to child processes instead.
    let rss_before = vm_rss_bytes();
    let remainder = cfg.parked.saturating_sub(cfg.active);
    let limit = snowflake_runtime::nofile_limit().unwrap_or(1_024);
    let in_process = (cfg.parked as u64) * 2 + 2_048 <= limit;

    let mut local_parked: Vec<TcpStream> = Vec::new();
    let mut children: Vec<Child> = Vec::new();
    if in_process {
        for i in 0..remainder {
            let stream = TcpStream::connect(addr).expect("connect");
            let resp = roundtrip(&stream, &sessions[i % sessions.len()]);
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            local_parked.push(stream);
        }
    } else {
        let mut left = remainder;
        while left > 0 {
            let count = left.min(CHILD_FLEET_CAP);
            children.push(spawn_client_fleet(&addr, count, &sessions));
            left -= count;
        }
        for child in &mut children {
            let stdout = child.stdout.as_mut().expect("child stdout");
            let mut ready = String::new();
            BufReader::new(stdout)
                .read_line(&mut ready)
                .expect("read child READY");
            assert!(ready.starts_with("READY "), "child reported: {ready:?}");
        }
    }
    let active: Vec<TcpStream> = (0..cfg.active)
        .map(|a| {
            let stream = TcpStream::connect(addr).expect("connect active");
            let resp = roundtrip(&stream, &sessions[a % sessions.len()]);
            assert_eq!(resp.status, 200);
            stream
        })
        .collect();

    // Steady state: every connection parked, no worker held.
    let deadline = Instant::now() + Duration::from_secs(60);
    while runtime.reactor_stats().parked < cfg.parked as u64 {
        assert!(Instant::now() < deadline, "fleet never fully parked");
        std::thread::sleep(Duration::from_millis(10));
    }
    let rss_after = vm_rss_bytes();

    // Drive the active slice and sample per-request latency while the
    // other 99% stay parked.
    let mut samples: Vec<Duration> =
        Vec::with_capacity(cfg.active * cfg.requests_per_active);
    for (a, stream) in active.iter().enumerate() {
        let headers = &sessions[a % sessions.len()];
        for _ in 0..cfg.requests_per_active {
            let start = Instant::now();
            let resp = roundtrip(stream, headers);
            samples.push(start.elapsed());
            assert_eq!(resp.status, 200);
        }
    }
    samples.sort();

    let parked = runtime.reactor_stats().parked as usize;
    let result = ScalingResult {
        parked,
        samples: samples.len(),
        p50: samples[samples.len() / 2],
        p99: samples[(samples.len() * 99) / 100],
        rss_per_conn_bytes: rss_after.saturating_sub(rss_before) / cfg.parked.max(1) as u64,
    };
    drop(active);
    drop(local_parked);
    for mut child in children {
        drop(child.stdin.take());
        let _ = child.wait();
    }
    runtime.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_parks_and_answers() {
        let r = run_connection_scaling(&ScalingConfig {
            parked: 32,
            active: 4,
            requests_per_active: 3,
            sessions: 4,
            workers: 2,
        });
        assert_eq!(r.parked, 32);
        assert_eq!(r.samples, 12);
        assert!(r.p99 >= r.p50);
    }
}
