//! End-to-end integration across every crate: workload generation →
//! functional execution → dataflow analysis → both machine models.

use fetchvp_core::{
    BtbKind, FrontEnd, IdealConfig, IdealMachine, RealisticConfig, RealisticMachine, VpConfig,
};
use fetchvp_dfg::analyze;
use fetchvp_fetch::TraceCacheConfig;
use fetchvp_predictor::BankedConfig;
use fetchvp_trace::trace_program;
use fetchvp_workloads::{suite, WorkloadParams};

const TRACE_LEN: u64 = 30_000;

#[test]
fn every_workload_flows_through_the_whole_stack() {
    for workload in suite(&WorkloadParams::default()) {
        let trace = trace_program(workload.program(), TRACE_LEN);
        assert_eq!(trace.len() as u64, TRACE_LEN, "{}", workload.name());

        // DFG analysis: every workload has arcs, with DID >= 1 by
        // construction, and the predictability classes partition the arcs.
        let a = analyze(&trace);
        assert!(a.arcs > 1_000, "{}", workload.name());
        assert_eq!(a.histogram.total(), a.arcs);
        assert_eq!(a.predictability.total(), a.arcs, "{}", workload.name());

        // Ideal machine: both modes retire the full trace.
        let base = IdealMachine::new(IdealConfig::default()).run(&trace);
        let vp = IdealMachine::new(IdealConfig {
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        })
        .run(&trace);
        assert_eq!(base.instructions, TRACE_LEN);
        assert_eq!(vp.instructions, TRACE_LEN);

        // Realistic machine with the full §4/§5 stack: trace cache, 2-level
        // BTB and the banked predictor.
        let fe = FrontEnd::TraceCache {
            config: TraceCacheConfig::paper(),
            btb: BtbKind::two_level_paper(),
        };
        let real = RealisticMachine::new(
            RealisticConfig::paper(fe, VpConfig::stride_infinite())
                .with_banked(BankedConfig::new(16)),
        )
        .run(&trace);
        assert_eq!(real.instructions, TRACE_LEN, "{}", workload.name());
        assert!(real.cycles > 0);
        assert!(real.trace_cache_stats.is_some());
        assert!(real.banked_stats.is_some());
        assert!(real.bpred_stats.is_some());
    }
}

#[test]
fn ipc_never_exceeds_the_configured_widths() {
    for workload in suite(&WorkloadParams::default()) {
        let trace = trace_program(workload.program(), TRACE_LEN);
        for rate in [4usize, 16, 40] {
            let r = IdealMachine::new(IdealConfig {
                fetch_rate: rate,
                vp: VpConfig::Perfect,
                ..IdealConfig::default()
            })
            .run(&trace);
            assert!(
                r.ipc() <= rate as f64 + 1e-9,
                "{} at rate {rate}: IPC {:.2}",
                workload.name(),
                r.ipc()
            );
        }
    }
}

#[test]
fn dependence_classes_partition_all_register_dependencies() {
    for workload in suite(&WorkloadParams::default()) {
        let trace = trace_program(workload.program(), TRACE_LEN);
        let r = IdealMachine::new(IdealConfig {
            fetch_rate: 16,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        })
        .run(&trace);
        let d = r.deps;
        assert_eq!(
            d.total,
            d.useful + d.useless_correct + d.wrong + d.unpredicted,
            "{}",
            workload.name()
        );
        // The machine and the DFG analyzer must agree on the arc count.
        let a = analyze(&trace);
        assert_eq!(d.total, a.arcs, "{}", workload.name());
    }
}

#[test]
fn vp_statistics_are_consistent_with_the_trace() {
    for workload in suite(&WorkloadParams::default()) {
        let trace = trace_program(workload.program(), TRACE_LEN);
        let value_producers = trace.iter().filter(|r| r.produces_value()).count() as u64;
        let r = IdealMachine::new(IdealConfig {
            fetch_rate: 16,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        })
        .run(&trace);
        let s = r.vp_stats.expect("stride predictor reports stats");
        assert_eq!(s.lookups, value_producers, "{}", workload.name());
        assert_eq!(s.correct + s.incorrect + s.unpredicted, value_producers, "{}", workload.name());
    }
}
