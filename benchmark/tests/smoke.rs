//! One quick run of everything (`sfbench run --quick`: counts ÷ 50, 0.6 s
//! phases), checked against the names `BENCHMARK.json` promises.  Run with
//! `cargo test --manifest-path benchmark/Cargo.toml`; not part of the
//! repository's tier-1 tests.

use snowflake::broker::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `name → unit` of every entry of `section` in `BENCHMARK.json`.
fn promised(doc: &Json, section: &str) -> BTreeMap<String, String> {
    let text = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{section}: entry without {key}"))
            .to_string()
    };
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit")))
        .collect()
}

/// One `== workload (mode) — attempted N, failed M, …` section of the
/// printed report.
struct Section {
    workload: String,
    traced: bool,
    failed: u64,
    failed_share: f64,
    /// `name → (value, unit)`, in print order.
    metrics: Vec<(String, f64, String)>,
}

fn sections(report: &str) -> Vec<Section> {
    let mut out: Vec<Section> = Vec::new();
    for line in report.lines() {
        if let Some(head) = line.strip_prefix("== ") {
            let after = |key: &str| -> &str {
                let rest = &head[head
                    .find(key)
                    .unwrap_or_else(|| panic!("no {key} in {head:?}"))
                    + key.len()..];
                rest.split([',', ' '])
                    .next()
                    .expect("split yields one item")
            };
            out.push(Section {
                workload: head.split(' ').next().expect("workload name").to_string(),
                traced: head.contains("(traced"),
                failed: after("failed ").parse().expect("failed count"),
                failed_share: after("failed_share ").parse().expect("failed share"),
                metrics: Vec::new(),
            });
        } else if !line.starts_with(' ') && !line.is_empty() {
            let mut words = line.split_whitespace();
            let (Some(name), Some(value), Some(unit)) = (words.next(), words.next(), words.next())
            else {
                panic!("metric line without name, value and unit: {line:?}");
            };
            let value = value
                .parse()
                .unwrap_or_else(|_| panic!("not a number in {line:?}"));
            out.last_mut()
                .expect("a metric line before any section")
                .metrics
                .push((name.to_string(), value, unit.to_string()));
        }
    }
    out
}

/// Every parent link of `trace-<workload>.jsonl` names an earlier span of
/// the same operation.
fn check_spans(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let number = |span: &Json, key: &str| match span.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("{}: span {key} is {other:?}", path.display()),
    };
    let mut op_ids = Vec::new();
    let mut parented = 0;
    for (id, line) in text.lines().enumerate() {
        let span =
            json::parse(line.as_bytes()).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(number(&span, "id") as usize, id, "span ids count up");
        assert!(span
            .get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.contains('.')));
        assert!(number(&span, "start_ns") <= number(&span, "end_ns"));
        let op_id = number(&span, "op_id");
        if !matches!(span.get("parent"), Some(Json::Null)) {
            let parent = number(&span, "parent") as usize;
            assert!(parent < id, "span {id} names a later parent {parent}");
            assert_eq!(
                op_ids[parent], op_id,
                "span {id} and its parent differ in op_id"
            );
            parented += 1;
        }
        op_ids.push(op_id);
    }
    assert!(parented > 0, "{}: no span has a parent", path.display());
}

/// `CARGO_TARGET_TMPDIR/smoke`, emptied.
fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn quick_run_prints_every_promised_metric() {
    let promise = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let promise = std::fs::read(promise).expect("read BENCHMARK.json");
    let promise = json::parse(&promise).expect("BENCHMARK.json is JSON");
    let workloads: Vec<String> = promise
        .get("workloads")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json has workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    let end_to_end = promised(&promise, "end_to_end");
    let per_layer = promised(&promise, "per_layer");

    let out = out_dir();
    let output = Command::new(env!("CARGO_BIN_EXE_sfbench"))
        .args(["run", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("start sfbench");
    let report = String::from_utf8(output.stdout).expect("report is UTF-8");
    assert!(
        output.status.success(),
        "sfbench run --quick failed:\n{report}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Untraced then traced, for each workload in BENCHMARK.json's order.
    let sections = sections(&report);
    let order: Vec<(&str, bool)> = sections
        .iter()
        .map(|s| (s.workload.as_str(), s.traced))
        .collect();
    let expected: Vec<(&str, bool)> = workloads
        .iter()
        .flat_map(|w| [(w.as_str(), false), (w.as_str(), true)])
        .collect();
    assert_eq!(order, expected);

    for s in &sections {
        let at = format!("{} (traced: {})", s.workload, s.traced);
        assert_eq!(s.failed, 0, "{at}: failed operations\n{report}");
        assert_eq!(s.failed_share, 0.0, "{at}");
        let printed: BTreeMap<String, String> = s
            .metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(
            printed.len(),
            s.metrics.len(),
            "{at}: a metric is printed twice"
        );
        assert_eq!(
            &printed,
            if s.traced { &per_layer } else { &end_to_end },
            "{at}"
        );
        for (name, value, _) in &s.metrics {
            assert!(value.is_finite(), "{at}: {name} is {value}");
            if !s.traced {
                assert!(*value > 0.0, "{at}: end-to-end metric {name} is {value}");
            }
            if name == "trace.unattributed_share" {
                assert!(
                    *value <= 0.15,
                    "{at}: the replay leaves {value} of its roots unexplained"
                );
            }
        }
    }
    for w in &workloads {
        check_spans(&out.join(format!("trace-{w}.jsonl")));
    }
    assert!(
        out.join("run.json").is_file(),
        "the stamped result file is missing"
    );
}
