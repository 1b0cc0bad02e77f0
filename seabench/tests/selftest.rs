//! Self-test: runs every workload once at tiny size and the default
//! seed, untraced and traced, and checks the result line against the
//! metric names `BENCHMARK.json` declares.

use std::process::Command;

const DEFAULT_SEED: &str = "6204766";

/// The metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text
        .split(&format!("\"{section}\""))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("section present");
    body.split("\"name\":")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1))
        .map(str::to_string)
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_seabench"))
        .args([
            "--workload",
            workload,
            "--seed",
            DEFAULT_SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .env_remove("SEA_JOBS")
        .env_remove("SEA_INCREMENTAL")
        .env_remove("SEA_PRUNE")
        .env_remove("SEA_CACHE")
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn check(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(workload, trace);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\":true,") && last.contains("\"failed\":0,"),
            "{workload} trace {trace}: {last}\n{stdout}"
        );
        assert!(stdout.contains("failed_frac = 0 ratio"), "{stdout}");
        let names = declared(section);
        assert!(!names.is_empty());
        for name in names {
            assert!(
                last.contains(&format!("\"{name}\":{{\"value\":")),
                "{workload} trace {trace} does not print {name}"
            );
        }
        if trace == "0" {
            for name in ["wall_s", "setup_s"] {
                let value: f64 = last
                    .split(&format!("\"{name}\":{{\"value\":"))
                    .nth(1)
                    .and_then(|v| v.split(',').next())
                    .and_then(|v| v.parse().ok())
                    .expect("numeric value");
                assert!(value > 0.0, "{workload}: {name} = {value}");
            }
        }
    }
}

#[test]
fn paper_prints_every_metric() {
    check("paper");
}

#[test]
fn fleet_prints_every_metric() {
    check("fleet");
}

#[test]
fn warm_prints_every_metric() {
    check("warm");
}

#[test]
fn refuses_configuration_overrides() {
    let out = Command::new(env!("CARGO_BIN_EXE_seabench"))
        .args([
            "--workload",
            "warm",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("SEA_INCREMENTAL", "0")
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
