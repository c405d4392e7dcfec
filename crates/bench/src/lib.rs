//! Benchmark harness regenerating every table and figure of paper §7.
//!
//! The Criterion benches under `benches/` measure each configuration; the
//! `report` binary (`cargo run -p snowflake-bench --release --bin report`)
//! runs the same workloads with a lightweight timer and prints rows shaped
//! like the paper's figures, side by side with the paper's 2000-era
//! numbers.
//!
//! This library crate holds the shared *rigs*: pre-wired client/server
//! pairs for each measured configuration, so benches and the report binary
//! measure identical code paths.
//!
//! | Experiment | Paper | Rig |
//! |---|---|---|
//! | Figure 6 | basic RMI / RMI+ssh / RMI+Snowflake warm call | [`rigs::rmi_rig`] |
//! | §7.2 | connection setup; server proof verify | [`rigs::rmi_connection_setup`], [`rigs::rmi_proof_verify`] |
//! | Figure 7 | C HTTP / Java HTTP / Snowflake HTTP GET | [`rigs::http_rig`], [`minihttp::MiniHttp`] |
//! | Figure 8 | SSL vs Snowflake client auth vs document auth | [`rigs::ssl_rig`], [`rigs::http_rig`], [`rigs::doc_auth_rig`] |
//! | Table 1 | MAC protocol cost breakdown | [`breakdown`] |
//! | §7.4.1 | prover graph traversal costs | [`rigs::prover_rig`] |
//! | (post-paper) | prover search / MAC verify under thread contention | [`contention`] |
//! | (post-paper) | revocation push fan-out / staleness window / CRL refresh | [`revocation`] |
//! | (post-paper) | bounded-runtime throughput and shed rate under oversubscription | [`saturation`] |

// Rigs are client/server harnesses, not servers: their client threads and
// the Table 1 row that times cold `Proof::verify` are the point.
#![allow(
    clippy::disallowed_methods,
    reason = "benchmark rigs drive servers from their own threads and time the unmemoized verify"
)]

pub mod breakdown;
pub mod contention;
pub mod minihttp;
pub mod report;
pub mod revocation;
pub mod rigs;
pub mod saturation;
pub mod scaling;

pub use minihttp::MiniHttp;

use std::time::{Duration, Instant};

/// Appends one benchmark's numbers to the JSON-lines report named by the
/// `SF_BENCH_JSON` env var (the `BENCH_<date>.json` file at the repo
/// root).  One line per bench, keyed by name: re-running a bench replaces
/// its own line and leaves the rest, so the file accumulates the whole
/// suite across separate `cargo bench` invocations.  Field values are
/// written verbatim — callers pass already-JSON-encoded numbers or
/// quoted strings.  No-op when the variable is unset.
pub fn report_json(bench: &str, fields: &[(&str, String)]) {
    let Some(path) = std::env::var_os("SF_BENCH_JSON") else {
        return;
    };
    let marker = format!("\"bench\": \"{bench}\"");
    let mut out = String::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            if !line.contains(&marker) && !line.trim().is_empty() {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out.push('{');
    out.push_str(&marker);
    for (k, v) in fields {
        out.push_str(&format!(", \"{k}\": {v}"));
    }
    out.push_str("}\n");
    std::fs::write(&path, out).expect("write SF_BENCH_JSON report");
    println!(
        "{bench}: updated {}",
        std::path::PathBuf::from(path).display()
    );
}

/// Times `iters` runs of `f` after `warmup` runs, returning the mean.
pub fn time_it(warmup: usize, iters: usize, mut f: impl FnMut()) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters.max(1) as u32
}

/// Like [`time_it`] but runs several batches and returns the *minimum*
/// batch mean — the standard cure for scheduler noise when measuring cheap
/// cross-thread operations.
pub fn time_it_stable(warmup: usize, iters: usize, mut f: impl FnMut()) -> Duration {
    for _ in 0..warmup {
        f();
    }
    let batches = 5usize;
    let per_batch = (iters / batches).max(1);
    let mut best = Duration::MAX;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        best = best.min(start.elapsed() / per_batch as u32);
    }
    best
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:9.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_mean() {
        let d = time_it(1, 4, || std::thread::yield_now());
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn ms_formats() {
        assert!(ms(Duration::from_millis(5)).contains("5.000"));
    }
}
