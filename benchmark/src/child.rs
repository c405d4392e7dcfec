//! The server child process as the parent sees it: spawn, ports, CPU and
//! memory from `/proc`, `GET /metrics` scrapes, and a stop that always
//! waits for the process to end.

use crate::inputs::Bundle;
use crate::server::Ports;
use snowflake::http::{HttpClient, HttpRequest, METRICS_PATH};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture this builds for.
const TICKS_PER_SEC: f64 = 100.0;

pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    pub ports: Ports,
    pub dir: PathBuf,
}

impl ServerChild {
    /// Writes `bundle` into `dir`, re-executes this binary as
    /// `sfbench serve --dir <dir>` and waits for it to announce its ports.
    pub fn spawn(bundle: &Bundle, dir: &Path) -> Result<ServerChild, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        std::fs::write(dir.join("bundle"), bundle.to_bytes())
            .map_err(|e| format!("write bundle: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let announced = BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| parse_ready(&line));
        match announced {
            Ok(ports) => Ok(ServerChild {
                child,
                stdin,
                ports,
                dir: dir.to_path_buf(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server child did not start: {e}"))
            }
        }
    }

    pub fn addr(&self, port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// User plus system CPU seconds the child has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The command name (field 2) may hold spaces; fields are counted
        // from the closing parenthesis.
        let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: no field {i}"))
        };
        // utime and stime are fields 14 and 15, i.e. 11 and 12 after ')'.
        Ok((tick(11)? + tick(12)?) / TICKS_PER_SEC)
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// One `GET /metrics` scrape, with how long it took.
    pub fn scrape(&self) -> Result<(Scrape, Duration), String> {
        let start = Instant::now();
        let stream = TcpStream::connect(self.addr(self.ports.metrics))
            .map_err(|e| format!("connect /metrics: {e}"))?;
        let resp = HttpClient::new(Box::new(stream))
            .send(&HttpRequest::get(METRICS_PATH))
            .map_err(|e| format!("scrape: {e}"))?;
        let took = start.elapsed();
        if resp.status != 200 {
            return Err(format!("scrape: status {}", resp.status));
        }
        let body = String::from_utf8(resp.body).map_err(|e| format!("scrape: {e}"))?;
        Ok((Scrape::parse(&body), took))
    }

    /// Closes the child's stdin, which ends `serve`, and waits for it; a
    /// child that has not drained after ten seconds is killed.
    pub fn stop(mut self) -> Result<(), String> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server child exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server child did not drain in 10 s; killed".into());
                }
                Err(e) => return Err(format!("wait for server child: {e}")),
            }
        }
    }
}

impl Drop for ServerChild {
    /// A failed run must not leave the child behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.stop_inner();
        }
    }
}

fn parse_ready(line: &str) -> Result<Ports, String> {
    let mut words = line.split_whitespace();
    if words.next() != Some("ready") {
        return Err(format!("expected `ready …`, got {line:?}"));
    }
    let mut port = || {
        words
            .next()
            .and_then(|w| w.parse::<u16>().ok())
            .ok_or_else(|| format!("bad port list in {line:?}"))
    };
    Ok(Ports {
        http: port()?,
        rmi: port()?,
        subscribe: port()?,
        metrics: port()?,
    })
}

/// One parsed Prometheus exposition: `name{labels}` → value.
#[derive(Default, Clone)]
pub struct Scrape {
    samples: HashMap<String, f64>,
}

impl Scrape {
    pub fn parse(body: &str) -> Scrape {
        let samples = body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Scrape { samples }
    }

    /// The sample with exactly this `name{labels}` key, 0 when absent (a
    /// counter nobody has touched yet is not exported).
    pub fn get(&self, key: &str) -> f64 {
        self.samples.get(key).copied().unwrap_or(0.0)
    }

    /// The sum of every sample of family `name`, whatever its labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Cumulative `(upper bound in seconds, count)` buckets of the
    /// request-duration histogram for `surface`, sorted by bound.
    fn buckets(&self, surface: &str) -> Vec<(f64, f64)> {
        let prefix = format!("sf_request_duration_seconds_bucket{{surface=\"{surface}\",le=\"");
        let mut out: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, *v))
            })
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bounds are not NaN"));
        out
    }

    /// The median request duration on `surface` between two scrapes, in
    /// µs, interpolated inside the bucket that holds it; 0 with no
    /// requests in between.
    pub fn p50_us_since(&self, before: &Scrape, surface: &str) -> f64 {
        let earlier: HashMap<u64, f64> = before
            .buckets(surface)
            .into_iter()
            .map(|(b, c)| (b.to_bits(), c))
            .collect();
        let delta: Vec<(f64, f64)> = self
            .buckets(surface)
            .into_iter()
            .map(|(b, c)| (b, c - earlier.get(&b.to_bits()).copied().unwrap_or(0.0)))
            .collect();
        let total = delta.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let target = total / 2.0;
        let mut lower = (0.0, 0.0);
        for (bound, cum) in delta {
            if cum >= target {
                let upper = if bound.is_finite() { bound } else { lower.0 };
                let inside = (target - lower.1) / (cum - lower.1).max(1.0);
                return (lower.0 + (upper - lower.0) * inside) * 1e6;
            }
            lower = (bound, cum);
        }
        0.0
    }
}
