//! Smoke test: every workload, shrunk to its tiny size, prints every metric
//! `BENCHMARK.json` names, with its unit, and passes the correctness gate.

use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The string value of the first `"key": "value"` pair in `text`.
fn field(text: &str, key: &str) -> String {
    let tag = format!("\"{key}\": \"");
    let start = text
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {text}"))
        + tag.len();
    text[start..]
        .split('"')
        .next()
        .unwrap_or_default()
        .to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("the section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Runs one tiny workload and returns its last stdout line.
fn result_line(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--size",
            "tiny",
        ])
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_prints_every_metric_and_passes_the_gate() {
    for workload in ["dense_edit", "island_rewire", "route_mix"] {
        assert!(
            BENCHMARK.contains(&format!("\"name\": \"{workload}\"")),
            "BENCHMARK.json declares {workload}"
        );
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = result_line(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true, "),
                "{workload} --trace {trace}: {result}"
            );
            let metrics = declared(section);
            assert!(!metrics.is_empty(), "{section} declares metrics");
            for (name, unit) in metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert_eq!(
                    field(&result[at..], "unit"),
                    unit,
                    "{workload}: unit of {name}"
                );
            }
        }
    }
}
