//! Smoke test of the benchmark binary: every workload at 1/200 scale for a
//! fraction of a second, untraced and traced. Asserts that what the binary
//! emits — workload list, metric names, units — is exactly what
//! `BENCHMARK.json` declares, that answers are checked (a corrupted shadow
//! model fails the run), and that the span JSONL is well-formed.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

/// `(name, second field)` of every `{"name": "...", "<field>": "..."` object
/// in `section`.
fn named_pairs(section: &str, field: &str) -> Vec<(String, String)> {
    section
        .split("{\"name\": \"")
        .skip(1)
        .map(|obj| {
            let name = obj.split('"').next().expect("name").to_string();
            let marker = format!("\"{field}\": \"");
            let value = obj
                .split(&marker)
                .nth(1)
                .and_then(|t| t.split('"').next())
                .expect("second field")
                .to_string();
            (name, value)
        })
        .collect()
}

/// The `workloads` (name, why), `end_to_end` and `per_layer` (name, unit)
/// sections of `BENCHMARK.json`.
fn declared() -> [Vec<(String, String)>; 3] {
    let text = benchmark_json();
    let (head, rest) = text.split_once("\"end_to_end\"").expect("end_to_end");
    let (e2e, layers) = rest.split_once("\"per_layer\"").expect("per_layer");
    let workloads = head.split_once("\"workloads\"").expect("workloads").1;
    [
        named_pairs(workloads, "why"),
        named_pairs(e2e, "unit"),
        named_pairs(layers, "unit"),
    ]
}

/// `(name, unit)` of every metric in a result line, in printed order, plus
/// the values by name.
fn emitted(line: &str) -> (Vec<(String, String)>, HashMap<String, f64>) {
    let metrics = line.split_once("\"metrics\": {").expect("metrics").1;
    let mut names = Vec::new();
    let mut values = HashMap::new();
    for part in metrics.split("\"unit\": \"") {
        // `... "name": {"value": 1.5, ` precedes each unit.
        let Some((before, value)) = part.rsplit_once("\": {\"value\": ") else {
            continue;
        };
        let name = before.rsplit('"').next().expect("metric name").to_string();
        let value: f64 = value.trim_end_matches([',', ' ']).parse().expect("value");
        values.insert(name.clone(), value);
        names.push(name);
    }
    let units: Vec<String> = metrics
        .split("\"unit\": \"")
        .skip(1)
        .map(|t| t.split('"').next().expect("unit").to_string())
        .collect();
    assert_eq!(names.len(), units.len(), "every metric has a unit: {line}");
    (names.into_iter().zip(units).collect(), values)
}

fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test scratch dir");
    dir
}

fn run(cwd: &Path, workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(BIN)
        .current_dir(cwd)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", trace, "--scale", "200"])
        .args(extra)
        .output()
        .expect("run benchmark")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn benchmark_json_is_generated_from_the_binary_s_tables() {
    let out = Command::new(BIN)
        .arg("manifest")
        .output()
        .expect("manifest");
    assert_eq!(String::from_utf8_lossy(&out.stdout), benchmark_json());
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let cwd = scratch("emit");
    let [workloads, e2e, layers] = declared();
    assert_eq!(workloads.len(), 7);
    for (workload, _) in &workloads {
        for (trace, decl) in [("0", &e2e), ("1", &layers)] {
            let out = run(&cwd, workload, trace, &[]);
            let line = last_line(&out);
            assert!(
                out.status.success() && line.contains("\"correct\": true, \"attempted\": "),
                "{workload} trace {trace}: {line}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
            let (names, values) = emitted(&line);
            assert_eq!(&names, decl, "{workload} trace {trace}");
            if trace == "0" {
                for (name, v) in &values {
                    assert!(*v > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            } else {
                assert_eq!(values["failed_ops_pct"], 0.0, "{workload}");
                assert!(values["trace.spans"] > 0.0, "{workload}");
                // The predicted-bypass pairs of README.md.
                let zero = |name: &str| assert_eq!(values[name], 0.0, "{workload} {name}");
                match workload.as_str() {
                    "read_hot" | "read_cold" => zero("wal.forces"),
                    "hot_storm" => zero("buffer.evictions_per_op"),
                    "ycsb_a" => zero("core.splits"),
                    _ => {}
                }
                if workload == "read_hot" {
                    assert!(values["buffer.misses_per_op"] < 0.01);
                }
                if workload != "hot_storm" {
                    zero("core.consolidations");
                }
            }
        }
    }
    assert!(!cwd.join(".bench_work").read_dir().is_ok_and(|d| {
        d.flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with("run-"))
    }));
}

#[test]
fn a_corrupted_shadow_model_fails_the_run() {
    let cwd = scratch("corrupt");
    for workload in ["read_hot", "restart", "multi_struct"] {
        let out = run(&cwd, workload, "0", &["--corrupt-shadow"]);
        let line = last_line(&out);
        assert!(!out.status.success(), "{workload} must exit non-zero");
        assert!(line.contains("\"correct\": false"), "{workload}: {line}");
        assert!(!line.contains("\"failed\": 0,"), "{workload}: {line}");
    }
}

#[test]
fn span_jsonl_parses_and_nests() {
    let cwd = scratch("spans");
    let out = run(&cwd, "ycsb_a", "1", &[]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(cwd.join(".bench_work/trace-ycsb_a.jsonl")).expect("jsonl");
    // id -> (parent, name, dur_ns)
    let mut spans: HashMap<u64, (u64, String, u64)> = HashMap::new();
    for line in text.lines() {
        let field = |key: &str| -> &str {
            let t = line.split(&format!("\"{key}\":")).nth(1).expect(key);
            t.split([',', '}']).next().expect(key).trim_matches('"')
        };
        let num = |key: &str| field(key).parse::<u64>().expect(key);
        num("start_ns");
        spans.insert(
            num("id"),
            (num("parent"), field("name").to_string(), num("dur_ns")),
        );
    }
    assert!(spans.len() > 100, "a traced run records spans");
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for (parent, name, dur) in spans.values() {
        if *parent == 0 {
            assert!(name.starts_with("op."), "root span {name} is not an op");
            continue;
        }
        *child_ns.entry(*parent).or_default() += dur;
        let mut cur = *parent;
        while let Some((up, name, _)) = spans.get(&cur) {
            if *up == 0 {
                assert!(name.starts_with("op."), "chain ends in {name}");
            }
            cur = *up;
        }
    }
    for (id, ns) in child_ns {
        if let Some((_, name, dur)) = spans.get(&id) {
            assert!(ns <= *dur, "children of {name} take {ns} ns > {dur} ns");
        }
    }
}
