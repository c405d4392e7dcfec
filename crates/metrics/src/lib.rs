//! The unified metrics plane.
//!
//! Every counter the workspace already keeps — pool depth and sheds,
//! prover expansions, memo and key-table hit ratios, broker fan-out,
//! audit-sink drops — was visible only from inside tests and benches.
//! This crate is the operator-facing layer: lock-free primitives
//! ([`Counter`], [`Gauge`], [`LatencyHistogram`]) plus a process-global
//! [`Registry`] of named, labeled families that renders the Prometheus
//! text exposition format (`GET /metrics` in `snowflake_http::metrics`
//! serves exactly [`Registry::render`]).
//!
//! Design rules, in order:
//!
//! * **Recording never blocks.**  Handles are `Arc`s over relaxed
//!   atomics; the registry mutex is touched only at get-or-create and
//!   scrape time, never on a request path.
//! * **One source of truth.**  Existing `*Stats` structs are *not*
//!   duplicated into parallel counters; their owners register
//!   [`Collector`] callbacks that read the same atomics at scrape time
//!   (`register_metrics(...)` on `ServerRuntime`, `AuditSink`,
//!   `Prover`, …), so a scrape can never disagree with the stats API.
//! * **Same name + labels ⇒ same handle.**  [`Registry::histogram`] and
//!   friends get-or-create, so every instance of a surface shares one
//!   family member and a scrape shows the aggregate.
//!
//! Naming scheme (documented for operators in `docs/authz.md`): every
//! family is `sf_<subsystem>_<what>[_total]`, labels identify the member
//! (`surface="http"`, `origin="pool"`), and request latency across all
//! server surfaces shares the single family
//! [`REQUEST_HISTOGRAM`] =
//! `sf_request_duration_seconds{surface=...}`.

#![deny(missing_docs)]

pub mod histogram;

pub use histogram::{
    bucket_index, bucket_lower_bound_ns, bucket_upper_bound_ns, HistogramSnapshot,
    LatencyHistogram, Timer, BUCKETS, MIN_SHIFT,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter on one relaxed atomic.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge on one relaxed atomic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The kind and value of one collected sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A monotonically increasing total.
    Counter(f64),
    /// A point-in-time level.
    Gauge(f64),
}

/// One sample a [`Collector`] contributes to a scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name (`sf_pool_queue_depth`).
    pub name: String,
    /// Label pairs identifying the member, sorted at render time.
    pub labels: Vec<(String, String)>,
    /// The value and its exposition type.
    pub value: Value,
}

impl Sample {
    /// A counter sample.
    pub fn counter(name: &str, labels: &[(&str, &str)], v: u64) -> Sample {
        Sample {
            name: name.to_string(),
            labels: own_labels(labels),
            value: Value::Counter(v as f64),
        }
    }

    /// A gauge sample.
    pub fn gauge(name: &str, labels: &[(&str, &str)], v: f64) -> Sample {
        Sample {
            name: name.to_string(),
            labels: own_labels(labels),
            value: Value::Gauge(v),
        }
    }
}

/// A scrape-time callback contributing samples read from live objects —
/// the adapter shape every existing `*Stats` struct registers through,
/// so the registry reads *the same atomics* the stats APIs do (no double
/// counting, no drift).
pub trait Collector: Send + Sync {
    /// Appends this collector's current samples.
    fn collect(&self, out: &mut Vec<Sample>);
}

impl<F: Fn(&mut Vec<Sample>) + Send + Sync> Collector for F {
    fn collect(&self, out: &mut Vec<Sample>) {
        self(out)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct FamilyKey {
    name: String,
    labels: Vec<(String, String)>,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Default)]
struct Inner {
    metrics: BTreeMap<FamilyKey, Metric>,
    help: BTreeMap<String, String>,
    collectors: BTreeMap<String, Arc<dyn Collector>>,
}

/// A registry of named metric families with label support.
///
/// Most code uses the process-global [`global()`] registry; tests build
/// private ones.  Handles returned by
/// [`counter`](Registry::counter)/[`gauge`](Registry::gauge)/
/// [`histogram`](Registry::histogram) are get-or-create per
/// (name, labels) pair, so registration is idempotent and every caller
/// shares one set of atomics.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// The process-global registry every server surface records into by
/// default; `GET /metrics` renders this one.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The one request-latency family shared by every server surface.
pub const REQUEST_HISTOGRAM: &str = "sf_request_duration_seconds";

/// The request-latency histogram for one surface, in the global
/// registry.  Every surface constructor calls this, so all instances of
/// a surface aggregate into one `{surface="..."}` member.
pub fn request_histogram(surface: &str) -> Arc<LatencyHistogram> {
    global().set_help(REQUEST_HISTOGRAM, "Request handling latency by server surface");
    global().histogram(REQUEST_HISTOGRAM, &[("surface", surface)])
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        unwrap: impl FnOnce(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let key = FamilyKey {
            name: name.to_string(),
            labels: own_labels(labels),
        };
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let metric = inner.metrics.entry(key).or_insert_with(make);
        unwrap(metric).unwrap_or_else(|| {
            panic!(
                "metric family {name} already registered as a {}",
                metric.kind()
            )
        })
    }

    /// Get-or-create the counter `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get-or-create the gauge `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get-or-create the latency histogram `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LatencyHistogram> {
        self.get_or_insert(
            name,
            labels,
            || Metric::Histogram(Arc::new(LatencyHistogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Sets the `# HELP` line for a family name.
    pub fn set_help(&self, name: &str, help: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.help.insert(name.to_string(), help.to_string());
    }

    /// Registers (or replaces) the collector stored under `id`.
    ///
    /// Replacement-by-id is the contract that makes `register_metrics`
    /// idempotent for every stats owner: re-registering a rebuilt server
    /// swaps its callback in place of the dead one instead of producing
    /// duplicate samples.
    pub fn register_collector(&self, id: &str, collector: Arc<dyn Collector>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.collectors.insert(id.to_string(), collector);
    }

    /// Removes the collector stored under `id`.
    pub fn unregister_collector(&self, id: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.collectors.remove(id);
    }

    /// Renders the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`) from one consistent point-in-time
    /// pass: all direct metrics are snapshotted and all collectors run
    /// under a single registry lock acquisition, then formatting happens
    /// on the copies.
    pub fn render(&self) -> String {
        // Phase 1: gather everything under the lock.
        let (mut samples, mut histograms, help) = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let mut samples: Vec<Sample> = Vec::new();
            let mut histograms: Vec<(FamilyKey, HistogramSnapshot)> = Vec::new();
            for (key, metric) in &inner.metrics {
                match metric {
                    Metric::Counter(c) => samples.push(Sample {
                        name: key.name.clone(),
                        labels: key.labels.clone(),
                        value: Value::Counter(c.get() as f64),
                    }),
                    Metric::Gauge(g) => samples.push(Sample {
                        name: key.name.clone(),
                        labels: key.labels.clone(),
                        value: Value::Gauge(g.get() as f64),
                    }),
                    Metric::Histogram(h) => histograms.push((key.clone(), h.snapshot())),
                }
            }
            for collector in inner.collectors.values() {
                collector.collect(&mut samples);
            }
            (samples, histograms, inner.help.clone())
        };

        // Phase 2: group by family name and format.
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        let mut last_family = String::new();
        for s in &samples {
            if s.name != last_family {
                family_header(
                    &mut out,
                    &s.name,
                    match s.value {
                        Value::Counter(_) => "counter",
                        Value::Gauge(_) => "gauge",
                    },
                    &help,
                );
                last_family = s.name.clone();
            }
            out.push_str(&s.name);
            push_labels(&mut out, &s.labels, None);
            let v = match s.value {
                Value::Counter(v) | Value::Gauge(v) => v,
            };
            out.push(' ');
            push_f64(&mut out, v);
            out.push('\n');
        }
        let mut last_family = String::new();
        for (key, snap) in &histograms {
            if key.name != last_family {
                family_header(&mut out, &key.name, "histogram", &help);
                last_family = key.name.clone();
            }
            let mut cumulative = 0u64;
            for (i, c) in snap.buckets.iter().enumerate() {
                cumulative += c;
                let le = match bucket_upper_bound_ns(i) {
                    Some(ns) => {
                        let mut le = String::new();
                        push_f64(&mut le, ns as f64 / 1e9);
                        le
                    }
                    None => "+Inf".to_string(),
                };
                out.push_str(&key.name);
                out.push_str("_bucket");
                push_labels(&mut out, &key.labels, Some(&le));
                out.push(' ');
                out.push_str(&cumulative.to_string());
                out.push('\n');
            }
            out.push_str(&key.name);
            out.push_str("_sum");
            push_labels(&mut out, &key.labels, None);
            out.push(' ');
            push_f64(&mut out, snap.sum_ns as f64 / 1e9);
            out.push('\n');
            out.push_str(&key.name);
            out.push_str("_count");
            push_labels(&mut out, &key.labels, None);
            out.push(' ');
            out.push_str(&cumulative_total(snap).to_string());
            out.push('\n');
        }
        out
    }
}

fn cumulative_total(snap: &HistogramSnapshot) -> u64 {
    snap.count()
}

fn family_header(out: &mut String, name: &str, kind: &str, help: &BTreeMap<String, String>) {
    if let Some(h) = help.get(name) {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(h);
        out.push('\n');
    }
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

fn push_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Formats an `f64` the way the exposition format expects: integral
/// values print without a fractional part, everything else uses Rust's
/// shortest-roundtrip decimal (never scientific notation).
fn push_f64(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("sf_x_total", &[("surface", "http")]);
        let b = r.counter("sf_x_total", &[("surface", "http")]);
        let c = r.counter("sf_x_total", &[("surface", "rmi")]);
        a.inc();
        b.add(2);
        c.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("sf_x_total", &[]);
        let _ = r.gauge("sf_x_total", &[]);
    }

    #[test]
    fn collectors_replace_by_id() {
        let r = Registry::new();
        r.register_collector(
            "a",
            Arc::new(|out: &mut Vec<Sample>| out.push(Sample::gauge("sf_g", &[], 1.0))),
        );
        r.register_collector(
            "a",
            Arc::new(|out: &mut Vec<Sample>| out.push(Sample::gauge("sf_g", &[], 2.0))),
        );
        let text = r.render();
        assert!(text.contains("sf_g 2\n"), "{text}");
        assert!(!text.contains("sf_g 1\n"), "{text}");
    }

    #[test]
    fn render_groups_types_and_orders_labels() {
        let r = Registry::new();
        r.counter("sf_b_total", &[("surface", "rmi")]).add(7);
        r.counter("sf_b_total", &[("surface", "http")]).add(3);
        r.gauge("sf_a_depth", &[]).set(5);
        let text = r.render();
        let a = text.find("# TYPE sf_a_depth gauge").unwrap();
        let b = text.find("# TYPE sf_b_total counter").unwrap();
        assert!(a < b, "{text}");
        let http = text.find("sf_b_total{surface=\"http\"} 3").unwrap();
        let rmi = text.find("sf_b_total{surface=\"rmi\"} 7").unwrap();
        assert!(http < rmi, "{text}");
        // Exactly one TYPE line per family.
        assert_eq!(text.matches("# TYPE sf_b_total").count(), 1);
    }

    #[test]
    fn histogram_buckets_render_cumulative() {
        let r = Registry::new();
        let h = r.histogram("sf_lat_seconds", &[("surface", "x")]);
        h.record_ns(100); // bucket 0
        h.record_ns(100);
        h.record_ns(300); // bucket 2
        let text = r.render();
        assert!(text.contains("# TYPE sf_lat_seconds histogram"), "{text}");
        // 128ns boundary carries the first two samples.
        assert!(
            text.contains("sf_lat_seconds_bucket{surface=\"x\",le=\"0.000000128\"} 2"),
            "{text}"
        );
        // 512ns boundary is cumulative: all three.
        assert!(
            text.contains("sf_lat_seconds_bucket{surface=\"x\",le=\"0.000000512\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("sf_lat_seconds_bucket{surface=\"x\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("sf_lat_seconds_count{surface=\"x\"} 3"), "{text}");
        assert!(text.contains("sf_lat_seconds_sum{surface=\"x\"} 0.0000005"), "{text}");
    }
}
