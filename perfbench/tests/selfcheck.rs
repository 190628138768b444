//! Self-check of the benchmark: a tiny op count per workload must emit
//! every metric `BENCHMARK.json` names, with its unit, and score every
//! op correct on the seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (set-up of the `serve` workload is slow in a debug build).

use std::path::Path;
use std::process::Command;

use serde::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected a map around {key:?}, got {}", other.kind()),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        other => other
            .as_i64()
            .unwrap_or_else(|| panic!("expected a number")) as f64,
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text_json = std::fs::read_to_string(manifest).expect("BENCHMARK.json is readable");
    let root = serde_json::from_str_value(&text_json).expect("BENCHMARK.json parses");
    let Value::Seq(items) = field(&root, list) else {
        panic!("{list} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Runs two ops of `workload` and returns the parsed result line.
fn run(workload: &str, trace: bool) -> Value {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "120",
            "--ops",
            "2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--repo")
        .arg(&repo)
        .arg("--out-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str_value(last).expect("the result line is JSON")
}

fn check(workload: &str) {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        assert!(
            matches!(field(&result, "correct"), Value::Bool(true)),
            "{workload}: not correct"
        );
        assert_eq!(number(field(&result, "attempted")), 2.0);
        assert_eq!(number(field(&result, "failed")), 0.0);
        let metrics = field(&result, "metrics");
        let declared = declared(list);
        let Value::Map(emitted) = metrics else {
            panic!("metrics is not a map")
        };
        assert_eq!(
            emitted.len(),
            declared.len(),
            "{workload}: extra or missing metrics"
        );
        for (name, unit) in &declared {
            let metric = field(metrics, name);
            assert_eq!(
                text(field(metric, "unit")),
                unit,
                "{workload}: unit of {name}"
            );
            assert!(
                number(field(metric, "value")).is_finite(),
                "{workload}: {name}"
            );
        }
        if !trace {
            assert_eq!(number(field(field(metrics, "ok_ratio"), "value")), 1.0);
        }
    }
}

#[test]
fn pipeline_emits_every_metric_and_scores_correct() {
    check("pipeline");
}

#[test]
fn serve_emits_every_metric_and_scores_correct() {
    check("serve");
}

#[test]
fn recovery_emits_every_metric_and_scores_correct() {
    check("recovery");
}
