//! Output: the one-line result the driver reads, the table a person
//! reads, and the stamped result files under the output directory.

use crate::run::RunResult;
use crate::spec;
use crate::stats;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// JSON number text for `v`: every digit as measured, never an exponent.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "a measurement came out as {v}");
    format!("{v}")
}

fn metrics_object(r: &RunResult, with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in r.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            m.name,
            number(m.value),
            m.unit
        )
        .expect("write to a String");
        if with_samples {
            write!(out, ", \"samples\": {}", m.samples).expect("write to a String");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The last line of standard output of a contract run.
pub fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_object(r, false)
    )
}

/// Every metric by name with its unit, one per line.
pub fn table(r: &RunResult, traced: bool) -> String {
    let mut out = format!(
        "== {} ({}) — attempted {}, failed {}, failed_share {}\n",
        r.workload,
        if traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        r.attempted,
        r.failed,
        number(r.failed as f64 / r.attempted.max(1) as f64),
    );
    for remark in &r.remarks {
        writeln!(out, "   {remark}").expect("write to a String");
    }
    for m in &r.metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        writeln!(out, "{:<34} {:>16.4} {}{samples}", m.name, m.value, m.unit)
            .expect("write to a String");
    }
    out
}

/// The `git` commit of the working directory, when there is one.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `"commit": …, "seed": …, "nproc": …` — the stamp every result file
/// opens with.
fn stamp(seed: u64, nproc: usize) -> String {
    format!(
        "\"commit\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}",
        commit()
    )
}

fn result_object(r: &RunResult, traced: bool) -> String {
    format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.workload,
        u8::from(traced),
        r.correct(),
        r.attempted,
        r.failed,
        metrics_object(r, true)
    )
}

/// Writes `results` (each with whether it was the traced run) to `path`.
pub fn write_results(
    path: &Path,
    seed: u64,
    nproc: usize,
    results: &[(RunResult, bool)],
) -> Result<(), String> {
    let rows: Vec<String> = results.iter().map(|(r, t)| result_object(r, *t)).collect();
    let text = format!(
        "{{{}, \"results\": [\n  {}\n]}}\n",
        stamp(seed, nproc),
        rows.join(",\n  ")
    );
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One end-to-end metric of one workload, measured twice.
pub struct Pair {
    pub workload: &'static str,
    pub metric: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    /// Runs behind each of the two medians.
    pub runs: usize,
    pub first: f64,
    pub second: f64,
}

impl Pair {
    /// The distance between the two as a share of the smaller.
    pub fn differ(&self) -> f64 {
        let low = self.first.min(self.second);
        if low <= 0.0 {
            0.0
        } else {
            (self.first - self.second).abs() / low
        }
    }

    pub fn within_bound(&self) -> bool {
        self.differ() <= self.bound
    }
}

/// Every end-to-end metric of one workload as the median over each
/// set's runs.
pub fn pairs(first: &[RunResult], second: &[RunResult]) -> Vec<Pair> {
    let median = |runs: &[RunResult], name: &str| {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.value(name)).collect();
        stats::median(&values)
    };
    spec::END_TO_END
        .iter()
        .map(|def| Pair {
            workload: first[0].workload,
            metric: def.name,
            unit: def.unit,
            bound: def.bound.expect("end-to-end metrics carry a bound"),
            runs: first.len(),
            first: median(first, def.name),
            second: median(second, def.name),
        })
        .collect()
}

pub fn pairs_table(pairs: &[Pair]) -> String {
    let mut out = String::new();
    for p in pairs {
        writeln!(
            out,
            "{:<18} {:<22} {:>14.4} {:>14.4} {:<4} differ {:>6.2}% bound {:>5.1}% {}",
            p.workload,
            p.metric,
            p.first,
            p.second,
            p.unit,
            p.differ() * 100.0,
            p.bound * 100.0,
            if p.within_bound() { "ok" } else { "OUTSIDE" }
        )
        .expect("write to a String");
    }
    out
}

pub fn write_repeat(path: &Path, seed: u64, nproc: usize, pairs: &[Pair]) -> Result<(), String> {
    let rows: Vec<String> = pairs
        .iter()
        .map(|p| {
            format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"runs\": {}, \"first\": {}, \"second\": {}, \"differ\": {}, \"bound\": {}, \"ok\": {}}}",
                p.workload,
                p.metric,
                p.unit,
                p.runs,
                number(p.first),
                number(p.second),
                number(p.differ()),
                number(p.bound),
                p.within_bound()
            )
        })
        .collect();
    let text = format!(
        "{{{}, \"pairs\": [\n  {}\n]}}\n",
        stamp(seed, nproc),
        rows.join(",\n  ")
    );
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
