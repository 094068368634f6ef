//! Shape assertions for every figure and table of the paper, at reduced
//! trace length. These are the headline claims the reproduction must hold.

use fetchvp_experiments::{
    fig3_1, fig3_3, fig3_4, fig3_5, fig5_1, fig5_2, fig5_3, table3_1, table3_2, usefulness,
    ExperimentConfig, Sweep,
};

fn sweep() -> Sweep {
    Sweep::serial(&ExperimentConfig { trace_len: 40_000, ..ExperimentConfig::default() })
}

#[test]
fn table3_1_lists_the_suite_with_plausible_statistics() {
    let r = table3_1::run_with(&sweep());
    assert_eq!(r.rows.len(), 8);
    for (name, _, instrs, taken, vp, run) in &r.rows {
        assert_eq!(*instrs, 40_000, "{name}");
        // Plausible dynamic characteristics for integer code.
        assert!((0.05..0.5).contains(taken), "{name}: taken rate {taken}");
        assert!((0.4..0.95).contains(vp), "{name}: value-producing {vp}");
        assert!((2.0..20.0).contains(run), "{name}: run length {run}");
    }
}

#[test]
fn figure3_1_fetch_bandwidth_gates_value_prediction() {
    let r = fig3_1::run_with(&sweep());
    let avg = r.averages();
    // §3.2: "When the instruction fetch rate is limited to up to 4
    // instructions per cycle the speedup is barely noticeable".
    assert!(avg[0].abs() < 0.05, "fetch-4 average {:.3}", avg[0]);
    // ... and it grows dramatically with bandwidth (paper: 8/33/70/80%).
    assert!(avg[4] > 0.35, "fetch-40 average {:.3}", avg[4]);
    for w in avg.windows(2) {
        assert!(w[1] >= w[0] - 0.03, "not monotone: {avg:?}");
    }
    // m88ksim and vortex are the outliers (112% / 83% at fetch-16).
    let at16 = |n: &str| r.speedups_of(n).unwrap()[2];
    for other in ["go", "gcc", "compress", "li", "ijpeg", "perl"] {
        assert!(at16("m88ksim") > at16(other), "m88ksim vs {other}");
        assert!(at16("vortex") > at16(other), "vortex vs {other}");
    }
}

#[test]
fn table3_2_reproduces_the_pipeline_walkthrough() {
    let r = table3_2::run();
    // The exact schedule of the paper's Table 3.2.
    for s in &r.stages[..4] {
        assert_eq!((s.fetch, s.decode, s.execute, s.commit), (1, 2, 3, 4));
    }
    for s in &r.stages[4..8] {
        assert_eq!((s.fetch, s.decode, s.execute, s.commit), (2, 3, 4, 5));
    }
}

#[test]
fn figure3_3_average_did_exceeds_current_fetch_widths() {
    let r = fig3_3::run_with(&sweep());
    for (name, did) in &r.rows {
        assert!(*did > 4.0, "{name}: avg DID {did:.2}");
    }
}

#[test]
fn figure3_4_most_dependencies_are_long() {
    let r = fig3_4::run_with(&sweep());
    // §3.3: "approximately 60% (on average) of the true-data dependencies
    // span across instructions in a greater or equal distance of 4".
    let avg = r.average_long_fraction();
    assert!((0.40..0.80).contains(&avg), "average DID>=4 fraction {avg:.2}");
}

#[test]
fn figure3_5_predictability_profile_matches_the_paper() {
    let r = fig3_5::run_with(&sweep());
    // §4.1: m88ksim ~40% and vortex >55% predictable-long; others 20-25%
    // (we accept a wider band for the synthetic stand-ins).
    let long = |n: &str| r.row_of(n).unwrap().predictable_long;
    assert!((0.30..0.55).contains(&long("m88ksim")), "m88ksim {:.2}", long("m88ksim"));
    assert!(long("vortex") > 0.55, "vortex {:.2}", long("vortex"));
    for other in ["go", "gcc", "compress", "li", "ijpeg", "perl"] {
        assert!(long(other) < long("m88ksim"), "{other} exceeds m88ksim");
    }
    // §4.1: "only 23% (on average) of the data dependencies are both
    // predictable and span a distance of less than 4 instructions".
    let short = r.average_predictable_short();
    assert!((0.05..0.35).contains(&short), "predictable-short average {short:.2}");
}

#[test]
fn figure5_1_taken_branch_bandwidth_gates_value_prediction() {
    let r = fig5_1::run_with(&sweep());
    let avg = r.averages();
    // §5: "when we allow fetching up to 1 taken branch each cycle the
    // average speedup is barely noticeable (approximately 3%)".
    assert!(avg[0].abs() < 0.06, "n=1 average {:.3}", avg[0]);
    // "...allowing up to 4 taken branches per cycle the average speedup
    // becomes nearly 50%".
    assert!(avg[3] > 0.30, "n=4 average {:.3}", avg[3]);
    for w in avg.windows(2) {
        assert!(w[1] >= w[0] - 0.03, "not monotone: {avg:?}");
    }
}

#[test]
fn figure5_2_realistic_btb_loses_part_of_the_gain() {
    let sweep = sweep();
    let ideal = fig5_1::run_with(&sweep);
    let real = fig5_2::run_with(&sweep);
    let (ia, ra) = (ideal.averages(), real.averages());
    // §5: n=1 still ~3%; and at n=4 the speedup drops substantially
    // relative to the ideal BTB ("by approximately 30%").
    assert!(ra[0].abs() < 0.06, "n=1 average {:.3}", ra[0]);
    assert!(ra[3] > 0.10, "n=4 average {:.3}", ra[3]);
    assert!(
        ra[3] < ia[3],
        "2-level BTB at n=4 ({:.2}) should trail the ideal BTB ({:.2})",
        ra[3],
        ia[3]
    );
}

#[test]
fn figure5_3_trace_cache_value_prediction() {
    let r = fig5_3::run_with(&sweep());
    let (two_level, ideal) = r.averages();
    // §5: "when using a trace cache, value prediction itself can increase
    // the performance by more than 10% (on average)" [2-level BTB], and
    // the ideal-BTB bound is higher.
    assert!(two_level > 0.10, "TC+2level average {two_level:.3}");
    assert!(ideal > two_level, "TC+ideal {ideal:.3} vs TC+2level {two_level:.3}");
}

#[test]
fn usefulness_breakdown_follows_fetch_bandwidth() {
    let r = usefulness::run_with(&sweep());
    assert_eq!(r.rows.len(), 9);
    // §3.3's mechanism: bandwidth converts correct predictions from
    // useless to useful, on average and for every benchmark.
    let (narrow, wide) = (r.average_useful_narrow(), r.average_useful_wide());
    assert!(wide > narrow, "fetch-40 useful {wide:.3} <= fetch-4 useful {narrow:.3}");
    for (name, row) in &r.rows {
        assert!(row.correct > 0, "{name}: no correct predictions");
        assert!(
            row.useful_wide >= row.useful_narrow - 0.03,
            "{name}: usefulness fell with bandwidth ({:.3} -> {:.3})",
            row.useful_narrow,
            row.useful_wide
        );
    }
}
