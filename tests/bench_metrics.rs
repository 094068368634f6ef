//! Integration tests for the bench report: subsystem coverage and JSON
//! round-trip shape guarantees. (Its counter sections are pinned byte for
//! byte, across worker counts and served paths, by `tests/golden_identity.rs`.)

use fetchvp_experiments::{bench, ExperimentConfig};
use fetchvp_metrics::Json;

fn small_config() -> ExperimentConfig {
    ExperimentConfig { trace_len: 5_000, ..ExperimentConfig::default() }
}

/// Every workload's snapshot must span the five counted subsystems.
#[test]
fn bench_covers_five_subsystems() {
    let report = bench::run(&small_config(), false, 1);
    assert!(!report.workloads.is_empty());
    for w in &report.workloads {
        let namespaces = w.registry.namespaces();
        for required in ["fetch", "machine", "predictor", "sched", "trace"] {
            assert!(
                namespaces.contains(&required),
                "{}: missing `{required}.*` counters (got {namespaces:?})",
                w.name
            );
        }
    }
}

/// A serialized report reparses, and re-serializing the parse is
/// byte-identical (stable key order, shortest-round-trip floats).
#[test]
fn bench_report_round_trips() {
    let report = bench::run(&small_config(), false, 1);
    let text = report.to_json().to_json();
    let reparsed = Json::parse(&text).expect("bench report must be valid JSON");
    assert_eq!(reparsed.to_json(), text, "re-serialization is not byte-stable");
    assert_eq!(
        reparsed.get("schema").and_then(Json::as_str),
        Some(bench::SCHEMA),
        "schema field missing or wrong"
    );
}

/// Counters are integers end to end: no counter value may be serialized
/// through a float (which would lose precision past 2^53).
#[test]
fn bench_counters_are_integer_only() {
    let report = bench::run(&small_config(), false, 1);
    let doc = report.to_json();
    let workloads = doc.get("workloads").and_then(Json::as_object).expect("workloads object");
    for (name, section) in workloads {
        let counters = section.get("counters").and_then(Json::as_object).expect("counters object");
        assert!(!counters.is_empty(), "{name}: empty counters section");
        for (key, value) in counters {
            assert!(
                matches!(value, Json::UInt(_)),
                "{name}: counter `{key}` serialized as {value:?}, expected an integer"
            );
        }
    }
}
