//! Self-tests: `cargo test --manifest-path benchmark/Cargo.toml`.

use crate::compare::{judge, Verdict};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{run_workload, RunConfig};
use crate::workloads::{generate, Workload, VARIANTS};
use std::path::PathBuf;

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"))
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in Workload::ALL {
        for variant in 0..VARIANTS {
            let text = generate(workload, 7, variant).to_text();
            assert_eq!(
                text,
                generate(workload, 7, variant).to_text(),
                "{} variant {variant}: same seed, same bytes",
                workload.name()
            );
            assert_ne!(
                text,
                generate(workload, 8, variant).to_text(),
                "{} variant {variant}: another seed, other bytes",
                workload.name()
            );
        }
        assert_ne!(
            generate(workload, 7, 0).to_text(),
            generate(workload, 7, 1).to_text(),
            "{}: variants differ",
            workload.name()
        );
    }
}

fn well_formed(name: &str, max: usize, extra: &str) -> bool {
    !name.is_empty()
        && name.len() <= max
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn names_and_units_fit_the_contract() {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(well_formed(name, 64, "_.-"), "name {name}");
        assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(well_formed(unit, 16, "_/%.-"), "unit {unit}");
    }
    for workload in Workload::ALL {
        let why = workload.why();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for metric in END_TO_END {
        assert!(metric.bound > 0.0 && metric.bound <= 0.25);
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn benchmark_json_repeats_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        crate::manifest(),
        "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest`"
    );
    let parsed = Json::parse(&committed).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

/// Runs `workload` untraced and traced for one round each way and checks
/// that exactly the declared metrics come out, with no failed operation.
fn emits_declared_metrics(workload: Workload) {
    let out = out_dir(workload.name());
    for trace in [false, true] {
        let cfg = RunConfig {
            seconds: 0.0,
            setups: 1,
            trace,
            seed: 2,
            ..RunConfig::new(workload, &out)
        };
        let result = run_workload(&cfg).expect("the workload runs");
        assert_eq!(result.failed, 0, "{:?}", result.failures);
        assert!(result.attempted >= VARIANTS);
        let emitted: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(emitted, declared, "{} trace={trace}", workload.name());
        for (name, value) in &result.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
        if !trace {
            for (name, value) in &result.metrics {
                assert!(*value > 0.0, "end-to-end metric {name} must never be 0");
            }
        }
    }
    let spans = std::fs::read_to_string(out.join(format!("trace-{}.jsonl", workload.name())))
        .expect("the traced run writes its spans");
    let first = Json::parse(spans.lines().next().expect("at least one span")).unwrap();
    for key in ["id", "parent", "op", "name", "start_ns", "end_ns"] {
        assert!(first.get(key).is_some(), "span field {key}");
    }
}

#[test]
fn mesh_storm_emits_declared_metrics() {
    emits_declared_metrics(Workload::MeshStorm);
}

#[test]
fn mesh_sparse_build_emits_declared_metrics() {
    emits_declared_metrics(Workload::MeshSparseBuild);
}

#[test]
fn settop_backends_emits_declared_metrics() {
    emits_declared_metrics(Workload::SettopBackends);
}

#[test]
fn hotspot_writes_emits_declared_metrics() {
    emits_declared_metrics(Workload::HotspotWrites);
}

#[test]
fn serve_sweep_emits_declared_metrics() {
    emits_declared_metrics(Workload::ServeSweep);
}

#[test]
fn an_undrained_run_is_a_failed_operation_not_a_panic() {
    let cfg = RunConfig {
        seconds: 0.0,
        setups: 1,
        budget: 10,
        ..RunConfig::new(Workload::SettopBackends, &out_dir("tiny-budget"))
    };
    let result = run_workload(&cfg).expect("the run itself completes");
    assert_eq!(result.attempted, VARIANTS);
    assert_eq!(result.failed, result.attempted);
    assert!(
        result.failures.iter().any(|f| f.contains("did not drain")),
        "{:?}",
        result.failures
    );
}

#[test]
fn compare_verdicts() {
    let lower = true;
    // Steady runs, 2 % worse: inside a 10 % bound.
    assert_eq!(
        judge(&[100.0, 101.0, 99.0], &[102.0, 103.0, 101.0], lower, 0.10),
        Verdict::Within
    );
    // Steady runs, 20 % worse.
    assert_eq!(
        judge(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], lower, 0.10),
        Verdict::Outside
    );
    // Overlapping runs whose spread exceeds the bound decide nothing.
    assert_eq!(
        judge(&[100.0, 140.0, 80.0], &[105.0, 150.0, 85.0], lower, 0.10),
        Verdict::Unresolved
    );
    // Every run of B better than every run of A is never a regression.
    assert_eq!(
        judge(&[100.0, 140.0, 80.0], &[50.0, 60.0, 70.0], lower, 0.10),
        Verdict::Within
    );
    // Higher-is-better metrics flip the direction.
    assert_eq!(judge(&[100.0], &[80.0], !lower, 0.10), Verdict::Outside);
    assert_eq!(judge(&[100.0], &[120.0], !lower, 0.10), Verdict::Within);
}

#[test]
fn json_reads_a_result_line() {
    let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"op_min_ms":{"value":1.25e1,"unit":"ms"}},"note":"a\"bA"}"#;
    let parsed = Json::parse(line).unwrap();
    assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    let value = parsed.get("metrics").unwrap().get("op_min_ms").unwrap();
    assert_eq!(value.get("value").and_then(Json::as_f64), Some(12.5));
    assert_eq!(parsed.get("note").and_then(Json::as_str), Some("a\"bA"));
    assert!(Json::parse("{\"a\":1} x").is_err());
}
