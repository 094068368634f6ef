//! The `fetchvp bench` standard workload suite and its JSON report.
//!
//! A bench run executes, for every benchmark of the extended suite, a fixed
//! set of machine configurations spanning every subsystem the workspace
//! counts — the §3 ideal machine, the §5 conventional front-end behind the
//! §4 banked prediction table, the §2.2 branch address cache and the §5
//! trace cache — and records per workload the simulated instruction count
//! and the merged, namespaced [`Registry`] snapshot of every machine run
//! plus the trace statistics (`trace.*`, `predictor.*`,
//! `predictor.banked.*`, `fetch.bpred.*`, `fetch.bac.*`,
//! `fetch.trace_cache.*`, `sched.*`, `machine.*`).
//!
//! The report is a pure function of `(trace_len, seed)`: independent of
//! `--jobs`, of the trace directory and of the host, so the CLI's output
//! and the daemon's served (and result-cached) document are the same
//! bytes. It reads no clock; timing the simulator is the benchmark
//! harness's job (`perfbench/`).
//!
//! # Example
//!
//! ```no_run
//! use fetchvp_experiments::{bench, ExperimentConfig, Sweep};
//!
//! let sweep = Sweep::new(&ExperimentConfig::quick());
//! println!("{}", bench::run_with(&sweep).to_json().to_json());
//! ```

use fetchvp_core::{BtbKind, FrontEnd, IdealConfig, MachineConfig, RealisticConfig, VpConfig};
use fetchvp_fetch::{BacConfig, TraceCacheConfig};
use fetchvp_metrics::{Json, MetricsSink, Registry};
use fetchvp_predictor::BankedConfig;
use fetchvp_trace::StatsAccum;
use fetchvp_tracestore::{run_batch_source, TraceSource};
use fetchvp_workloads::Workload;

use crate::sweep::fold_slots;
use crate::Sweep;

/// One benchmark's bench result.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Benchmark name (extended-suite order).
    pub name: &'static str,
    /// Dynamic instructions simulated across all machine configurations.
    pub instructions: u64,
    /// The merged metrics snapshot of every machine configuration.
    pub registry: Registry,
}

/// A full bench run: its configuration and per-workload sections.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Dynamic instructions traced per benchmark.
    pub trace_len: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Per-benchmark results, extended-suite order.
    pub workloads: Vec<WorkloadBench>,
}

impl BenchReport {
    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let workloads = Json::object(self.workloads.iter().map(|w| {
            (
                w.name.to_string(),
                Json::object([
                    ("instructions".to_string(), Json::UInt(w.instructions)),
                    ("counters".to_string(), w.registry.counters_json()),
                    ("gauges".to_string(), w.registry.gauges_json()),
                ]),
            )
        }));
        Json::object([
            ("trace_len".to_string(), Json::UInt(self.trace_len)),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("workloads".to_string(), workloads),
        ])
    }
}

/// The machine configurations a bench cell runs, spanning every counted
/// subsystem. All four advance in batched lockstep over one trace walk.
fn bench_configs() -> [MachineConfig; 4] {
    let btb = BtbKind::two_level_paper();
    [
        // §3 ideal machine, fetch 16, stride VP: predictor.* and sched.*.
        MachineConfig::Ideal(IdealConfig {
            fetch_rate: 16,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        }),
        // §5 conventional fetch behind the §4 banked table:
        // predictor.banked.*.
        MachineConfig::Realistic(
            RealisticConfig::paper(
                FrontEnd::Conventional { width: 40, max_taken: Some(4), btb },
                VpConfig::stride_infinite(),
            )
            .with_banked(BankedConfig::default()),
        ),
        // §2.2 branch address cache: fetch.bac.*.
        MachineConfig::Realistic(RealisticConfig::paper(
            FrontEnd::BranchAddressCache { config: BacConfig::classic(), btb },
            VpConfig::stride_infinite(),
        )),
        // §5 trace cache: fetch.trace_cache.*.
        MachineConfig::Realistic(RealisticConfig::paper(
            FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb },
            VpConfig::stride_infinite(),
        )),
    ]
}

/// Runs the bench suite on an existing [`Sweep`] (its configuration decides
/// trace length and seed; its job count decides parallelism).
pub fn run_with(sweep: &Sweep) -> BenchReport {
    let cfg = *sweep.config();
    let workloads = sweep
        .cells_extended(&[()], |w, source, ()| bench_cell(w, source))
        .into_iter()
        .flat_map(|(_, cells)| cells)
        .collect();
    BenchReport { trace_len: cfg.trace_len, seed: cfg.workloads.seed, workloads }
}

/// One workload's bench cell: its trace statistics plus every bench
/// machine in one batched walk.
fn bench_cell(w: &Workload, source: &TraceSource) -> WorkloadBench {
    let stats = fold_slots(w, source, StatsAccum::new(), StatsAccum::push).finish();
    let runs = run_batch_source(source, &bench_configs(), None)
        .unwrap_or_else(|e| panic!("bench replay of `{}`: {e}", w.name()));
    let mut registry = Registry::new();
    stats.export_metrics(&mut registry, "trace");
    for run in &runs {
        registry.merge(&run.metrics());
    }
    WorkloadBench {
        name: w.name(),
        instructions: runs.iter().map(|r| r.instructions).sum(),
        registry,
    }
}
