//! Integration tests for the bench report: subsystem coverage and JSON
//! round-trip shape guarantees. (The whole report is pinned byte for byte,
//! across worker counts and served paths, by `tests/golden_identity.rs`.)

use fetchvp_experiments::bench::{self, BenchReport};
use fetchvp_experiments::{ExperimentConfig, Sweep};
use fetchvp_metrics::Json;

fn small_report() -> BenchReport {
    bench::run_with(&Sweep::serial(&ExperimentConfig {
        trace_len: 5_000,
        ..ExperimentConfig::default()
    }))
}

/// Every workload's snapshot must span the five counted subsystems.
#[test]
fn bench_covers_five_subsystems() {
    let report = small_report();
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
/// byte-identical (stable key order, shortest-round-trip floats). The
/// report names its configuration and nothing else besides the workloads.
#[test]
fn bench_report_round_trips() {
    let report = small_report();
    let text = report.to_json().to_json();
    let reparsed = Json::parse(&text).expect("bench report must be valid JSON");
    assert_eq!(reparsed.to_json(), text, "re-serialization is not byte-stable");
    let keys: Vec<_> = reparsed.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["trace_len", "seed", "workloads"]);
    assert_eq!(reparsed.get("trace_len").and_then(Json::as_u64), Some(5_000));
}

/// Counters are integers end to end: no counter value may be serialized
/// through a float (which would lose precision past 2^53).
#[test]
fn bench_counters_are_integer_only() {
    let doc = small_report().to_json();
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
