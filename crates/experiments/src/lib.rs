//! Experiment runners regenerating every table and figure of the paper.
//!
//! One module per result in the paper's evaluation:
//!
//! | module | paper result |
//! |---|---|
//! | [`table3_1`] | Table 3.1 — the benchmark suite |
//! | [`fig3_1`] | Figure 3.1 — ideal-machine VP speedup vs fetch rate |
//! | [`table3_2`] | Table 3.2 — pipeline walk-through of the Figure 3.2 DFG |
//! | [`fig3_3`] | Figure 3.3 — average dynamic instruction distance |
//! | [`fig3_4`] | Figure 3.4 — DID distribution histograms |
//! | [`fig3_5`] | Figure 3.5 — predictability × DID distribution |
//! | [`fig5_1`] | Figure 5.1 — VP speedup, perfect BTB, ≤ n taken branches/cycle |
//! | [`fig5_2`] | Figure 5.2 — VP speedup, 2-level PAp BTB |
//! | [`fig5_3`] | Figure 5.3 — VP speedup with a trace cache |
//!
//! The [`accuracy`] module tabulates per-benchmark predictor
//! coverage/accuracy (the style of the paper's technical-report
//! references \[7\]/\[8\]), and the [`ablations`] module adds
//! design-space sweeps beyond the paper
//! (prediction-table banks, window size, classification threshold,
//! predictor kind, trace-cache partial matching). The [`mod@bench`] module is
//! the perf-regression suite. The [`usefulness`] module measures the §3.3
//! mechanism directly — which correct predictions actually shorten the
//! critical path at fetch-4 vs fetch-40 — and the [`traceviz`] module
//! exports a cycle-accurate pipeline witness as Chrome trace-event JSON for
//! Perfetto. The [`registry`] lists every figure, table and ablation once:
//! the CLI, the daemon's job specs and the golden-identity matrix all read
//! it.
//!
//! Every runner takes a [`Sweep`] (the [`ExperimentConfig`] — trace length
//! and workload parameters — plus a shared trace cache and a worker count)
//! and returns structured results plus a markdown [`Table`] for reports.
//! The absolute numbers depend on the synthetic workloads; the *shapes* —
//! who wins, by roughly what factor, where the crossovers fall — are what
//! reproduce the paper (see `EXPERIMENTS.md`).
//!
//! # Example
//!
//! ```no_run
//! use fetchvp_experiments::{fig3_3, ExperimentConfig, Sweep};
//!
//! let cfg = ExperimentConfig { trace_len: 200_000, ..ExperimentConfig::default() };
//! let result = fig3_3::run_with(&Sweep::serial(&cfg));
//! println!("{}", result.to_table());
//! ```

// The README's `rust` code blocks must keep compiling: run them as
// doc-tests of this crate, which depends on everything they use.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub mod ablations;
pub mod accuracy;
pub mod atlas;
pub mod bench;
pub mod breakdown;
pub mod chart;
pub mod fig3_1;
pub mod fig3_3;
pub mod fig3_4;
pub mod fig3_5;
pub mod fig5_1;
pub mod fig5_2;
pub mod fig5_3;
pub mod fuzz;
pub mod jobspec;
pub mod registry;
pub mod report;
pub mod sweep;
pub mod table3_1;
pub mod table3_2;
pub mod traceviz;
pub mod usefulness;

pub use jobspec::{JobOutcome, JobSpec};
pub use report::Table;
pub use sweep::{default_jobs, Sweep, SweepProgress, TraceCache, MAX_IN_MEMORY_TRACE_LEN};

use fetchvp_dfg::{DidAnalysis, DidAnalyzer};
use fetchvp_trace::{trace_program, Trace};
use fetchvp_tracestore::TraceSource;
use fetchvp_workloads::{suite, Workload, WorkloadParams};

/// Shared configuration for all experiment runners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Dynamic instructions traced per benchmark (the paper uses 100M from
    /// Shade; it notes that longer traces "barely affect the results").
    pub trace_len: u64,
    /// Workload generation parameters.
    pub workloads: WorkloadParams,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig { trace_len: 1_000_000, workloads: WorkloadParams::default() }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast tests and benches.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig { trace_len: 60_000, ..ExperimentConfig::default() }
    }
}

/// Iterates the benchmark suite serially, capturing one trace at a time
/// (traces are dropped between benchmarks to bound memory).
///
/// This is the original serial path; the runners now go through
/// [`sweep::Sweep`], which caches traces and can run cells in parallel.
/// It is kept public as the independent oracle for the determinism tests.
pub fn for_each_trace(cfg: &ExperimentConfig, mut f: impl FnMut(&Workload, &Trace)) {
    for workload in suite(&cfg.workloads) {
        let trace = trace_program(workload.program(), cfg.trace_len);
        f(&workload, &trace);
    }
}

/// One workload's §3.3 DID analysis (Figures 3.3, 3.4 and 3.5 in one
/// forward walk).
pub(crate) fn did_analysis(workload: &Workload, source: &TraceSource) -> DidAnalysis {
    sweep::fold_slots(workload, source, DidAnalyzer::new(), DidAnalyzer::feed).finish()
}

/// The arithmetic mean of a slice (0 for an empty slice).
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        assert!(ExperimentConfig::quick().trace_len < ExperimentConfig::default().trace_len);
    }

    #[test]
    fn for_each_trace_visits_the_whole_suite() {
        let cfg = ExperimentConfig { trace_len: 500, ..ExperimentConfig::default() };
        let mut names = Vec::new();
        for_each_trace(&cfg, |w, t| {
            assert_eq!(t.len(), 500);
            names.push(w.name());
        });
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
