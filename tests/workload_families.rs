//! Workload-family and fuzzing-harness properties: the nine legacy
//! workloads are exact (byte-identical) points of their families, knob
//! coordinates actually move the generated trace, repro tuples round-trip
//! through their printed form, the fuzzer is deterministic, and a seeded
//! bug injected behind the scheduler's runner seam is caught and shrunk
//! to a small replayable tuple that still fails.

use fetchvp_core::{MachineConfig, MachineResult};
use fetchvp_experiments::fuzz::{self, BatchRunner, CaseRunner, CaseSpec, FuzzOptions};
use fetchvp_testutil::for_cases;
use fetchvp_trace::{trace_program, Trace};
use fetchvp_workloads::{extended_suite, FamilyPoint, WorkloadParams};

const LEGACY_LEN: u64 = 20_000;

#[test]
fn every_legacy_workload_is_an_exact_family_point() {
    let params = WorkloadParams::default();
    for w in extended_suite(&params) {
        let point = FamilyPoint::legacy(w.name())
            .unwrap_or_else(|| panic!("{}: no family for legacy workload", w.name()));
        let legacy = trace_program(w.program(), LEGACY_LEN);
        let family = trace_program(&point.program(), LEGACY_LEN);
        assert_eq!(legacy, family, "{}: family origin drifted from the legacy workload", w.name());
    }
}

#[test]
fn knob_coordinates_move_the_trace() {
    const NAMES: [&str; 9] =
        ["go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex", "mgrid"];
    for_cases(18, |case, rng| {
        let name = NAMES[case % NAMES.len()];
        let mut point = FamilyPoint::legacy(name).expect("legacy point");
        // Each coordinate sits far enough from the origin to quantize to
        // at least one emitted instruction.
        point.knobs.did = 1.0 + 3.0 * rng.unit_f64();
        point.knobs.mix_stride = 0.5 + 0.5 * rng.unit_f64();
        point.knobs.branch_entropy = rng.unit_f64();
        let origin =
            trace_program(&FamilyPoint::legacy(name).expect("legacy point").program(), 6_000);
        let moved = trace_program(&point.program(), 6_000);
        assert_ne!(origin, moved, "case {case}: {name}: non-origin knobs left the trace unchanged");
    });
}

#[test]
fn repro_tuples_round_trip_through_their_printed_form() {
    for_cases(64, |case, rng| {
        let spec = CaseSpec::from_seed(rng.next_u64(), 60_000);
        let printed = spec.to_string();
        let reparsed = CaseSpec::parse(&printed)
            .unwrap_or_else(|e| panic!("case {case}: `{printed}` does not parse: {e}"));
        assert_eq!(reparsed, spec, "case {case}: `{printed}` re-parsed differently");
    });
}

#[test]
fn fuzzing_is_deterministic() {
    let options = FuzzOptions { cases: 8, seed: 7, max_len: 4_000 };
    let first = fuzz::run(&options);
    let second = fuzz::run(&options);
    assert!(first.passed(), "{}", first.render());
    assert_eq!(first.render(), second.render());
    assert_eq!(first.instructions, second.instructions);
}

/// A seeded scheduler bug behind the runner seam: the wide ideal
/// machine's cycle count is silently inflated, so ideal no longer
/// dominates the realistic machine at equal width (invariant I1).
struct InflatedIdealCycles;

impl CaseRunner for InflatedIdealCycles {
    fn run(&self, trace: &Trace, configs: &[MachineConfig]) -> Vec<MachineResult> {
        let mut results = BatchRunner.run(trace, configs);
        results[0].cycles = results[0].cycles.saturating_mul(1_000);
        results
    }
}

/// A second seeded bug: one correct prediction loses its usefulness
/// attribution, breaking `useful + useless == correct` (invariant I2).
struct DroppedAttribution;

impl CaseRunner for DroppedAttribution {
    fn run(&self, trace: &Trace, configs: &[MachineConfig]) -> Vec<MachineResult> {
        let mut results = BatchRunner.run(trace, configs);
        for r in &mut results {
            if r.vp_stats.is_some() && r.usefulness.useful > 0 {
                r.usefulness.useful -= 1;
                break;
            }
        }
        results
    }
}

#[test]
fn injected_scheduler_bug_is_caught_shrunk_and_replayable() {
    let options = FuzzOptions { cases: 4, seed: 7, max_len: 60_000 };
    let report = fuzz::run_with(&InflatedIdealCycles, &options);
    assert!(!report.passed(), "the injected bug went undetected");
    for failure in &report.failures {
        assert!(failure.invariant.contains("I1"), "wrong invariant: {}", failure.invariant);
        // The printed tuple shrinks to a small case and round-trips.
        assert!(
            failure.shrunk.len <= 10_000,
            "shrunk case is still {} instructions",
            failure.shrunk.len
        );
        assert!(failure.shrunk.len >= fuzz::MIN_LEN);
        let printed = failure.shrunk.to_string();
        let reparsed = CaseSpec::parse(&printed)
            .unwrap_or_else(|e| panic!("shrunk tuple `{printed}` does not parse: {e}"));
        assert_eq!(reparsed, failure.shrunk);
        // The shrinker's output still fails the original invariant under
        // the buggy runner, and passes once the bug is gone.
        let message = fuzz::replay_with(&InflatedIdealCycles, &reparsed)
            .expect("shrunk tuple no longer fails under the buggy runner");
        assert!(message.contains("I1"), "shrunk tuple fails differently: {message}");
        assert!(
            fuzz::replay(&reparsed).is_none(),
            "shrunk tuple fails even on the production runner"
        );
    }
}

#[test]
fn dropped_usefulness_attribution_is_caught() {
    let options = FuzzOptions { cases: 2, seed: 7, max_len: 8_000 };
    let report = fuzz::run_with(&DroppedAttribution, &options);
    assert!(!report.passed(), "the dropped attribution went undetected");
    assert!(report.failures.iter().all(|f| f.invariant.contains("I2")));
}
