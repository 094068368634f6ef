//! Reproducibility: identical seeds produce bit-identical results at every
//! level of the stack — the property that makes the experiment tables in
//! `EXPERIMENTS.md` reproducible on any machine. The experiments' own
//! outputs are pinned byte for byte, across `--jobs` and every other
//! execution path, by `tests/golden_identity.rs`.

use std::sync::Arc;

use fetchvp_core::{
    BtbKind, FrontEnd, IdealConfig, IdealMachine, RealisticConfig, RealisticMachine, VpConfig,
};
use fetchvp_dfg::analyze;
use fetchvp_experiments::{for_each_trace, ExperimentConfig, TraceCache};
use fetchvp_fetch::TraceCacheConfig;
use fetchvp_trace::trace_program;
use fetchvp_workloads::{suite, WorkloadParams};

#[test]
fn traces_are_bit_identical_across_runs() {
    let params = WorkloadParams::default();
    for (a, b) in suite(&params).iter().zip(suite(&params).iter()) {
        let ta = trace_program(a.program(), 10_000);
        let tb = trace_program(b.program(), 10_000);
        assert_eq!(ta, tb, "{}", a.name());
    }
}

#[test]
fn machine_results_are_identical_across_runs() {
    let w = &suite(&WorkloadParams::default())[1]; // m88ksim
    let trace = trace_program(w.program(), 20_000);
    let run = || {
        IdealMachine::new(IdealConfig {
            fetch_rate: 16,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        })
        .run(&trace)
    };
    assert_eq!(run(), run());

    let fe =
        FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::two_level_paper() };
    let run = || {
        RealisticMachine::new(RealisticConfig::paper(fe, VpConfig::stride_infinite())).run(&trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn analyses_are_identical_across_runs() {
    let w = &suite(&WorkloadParams::default())[7]; // vortex
    let trace = trace_program(w.program(), 20_000);
    assert_eq!(analyze(&trace), analyze(&trace));
}

/// The trace cache hands out the *same* trace (same allocation, not just
/// equal contents) on every request, and matches the serial
/// `for_each_trace` oracle bit-for-bit.
#[test]
fn trace_cache_shares_one_trace_per_workload() {
    let cfg = ExperimentConfig { trace_len: 2_000, ..ExperimentConfig::default() };
    let cache = TraceCache::new(&cfg);
    let first = cache.trace(0);
    let again = cache.trace(0);
    assert!(Arc::ptr_eq(&first, &again), "repeated requests must return the same Arc");
    assert_eq!(cache.generated(), 1, "one generation despite two requests");

    let mut index = 0;
    for_each_trace(&cfg, |w, serial_trace| {
        assert_eq!(
            *cache.trace(index),
            *serial_trace,
            "{}: cached trace diverges from the serial oracle",
            w.name()
        );
        index += 1;
    });
    assert_eq!(cache.generated(), 8);
}

#[test]
fn different_seeds_change_the_data_but_not_the_conclusions() {
    // Seed robustness: the headline comparison (fetch-40 speedup greatly
    // exceeds fetch-4 speedup on m88ksim) holds for several seeds.
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let params = WorkloadParams { seed, ..WorkloadParams::default() };
        let w = fetchvp_workloads::by_name("m88ksim", &params).unwrap();
        let trace = trace_program(w.program(), 40_000);
        let speedup = |rate| {
            let base = IdealMachine::new(IdealConfig {
                fetch_rate: rate,
                vp: VpConfig::None,
                ..IdealConfig::default()
            })
            .run(&trace);
            let vp = IdealMachine::new(IdealConfig {
                fetch_rate: rate,
                vp: VpConfig::stride_infinite(),
                ..IdealConfig::default()
            })
            .run(&trace);
            vp.speedup_over(&base)
        };
        let (narrow, wide) = (speedup(4), speedup(40));
        assert!(wide > narrow + 0.20, "seed {seed}: fetch-4 {narrow:.2} vs fetch-40 {wide:.2}");
    }
}
