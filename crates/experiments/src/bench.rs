//! The `fetchvp bench` standard workload suite and its JSON reports.
//!
//! A bench run executes, for every benchmark of the extended suite, a fixed
//! set of machine configurations spanning every subsystem the workspace
//! counts — the §3 ideal machine, the §5 conventional front-end behind the
//! §4 banked prediction table, the §2.2 branch address cache and the §5
//! trace cache — and records per-workload:
//!
//! * **throughput** — wall-clock seconds and simulated instructions per
//!   second (the number the CI regression gate compares);
//! * **counters** — the merged, namespaced
//!   [`Registry`] snapshot of every machine run
//!   plus the trace statistics (`trace.*`, `predictor.*`,
//!   `predictor.banked.*`, `fetch.bpred.*`, `fetch.bac.*`,
//!   `fetch.trace_cache.*`, `sched.*`, `machine.*`).
//!
//! Counters are bit-deterministic for a given `(trace_len, seed)` —
//! independent of `--jobs` and of the host — while the throughput numbers
//! are what tracks simulator performance over time in the committed
//! `BENCH_<date>.json` trajectory. `scripts/bench_compare.sh` (or
//! `fetchvp bench-compare`) diffs two reports and fails on a throughput
//! regression beyond a threshold; per-workload cells that ran under
//! [`MIN_GATE_WALL_SECONDS`] warn instead of failing (they are too quick
//! to time), while the suite total always gates.
//!
//! # Example
//!
//! ```no_run
//! use fetchvp_experiments::{bench, ExperimentConfig, Sweep};
//!
//! let sweep = Sweep::new(&ExperimentConfig::quick());
//! let report = bench::run_with(&sweep, true);
//! println!("{}", report.to_json().to_json());
//! ```

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use fetchvp_core::{BtbKind, FrontEnd, IdealConfig, MachineConfig, RealisticConfig, VpConfig};
use fetchvp_fetch::{BacConfig, TraceCacheConfig};
use fetchvp_metrics::{Json, MetricsSink, Registry};
use fetchvp_predictor::BankedConfig;
use fetchvp_trace::StatsAccum;
use fetchvp_tracestore::{run_batch_source, CacheCounters, TraceSource};
use fetchvp_workloads::Workload;

use crate::sweep::fold_slots;
use crate::{ExperimentConfig, Sweep};

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "fetchvp-bench/v1";

/// Default regression threshold of the compare gate, as a fraction (15%).
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// Minimum per-workload wall time (seconds, in both reports) for a
/// regression to *fail* the gate. Quick-config cells run in ~10 ms, where
/// scheduler jitter alone exceeds the threshold; below this floor a
/// regression is demoted to a warning. The suite total always gates.
pub const MIN_GATE_WALL_SECONDS: f64 = 0.05;

/// One benchmark's bench result.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Benchmark name (extended-suite order).
    pub name: &'static str,
    /// Dynamic instructions simulated across all machine configurations.
    pub instructions: u64,
    /// Wall-clock seconds for this workload's cell (tracing + all machine
    /// runs).
    pub wall_seconds: f64,
    /// The merged metrics snapshot of every machine configuration.
    pub registry: Registry,
}

impl WorkloadBench {
    /// Simulated instructions per wall-clock second.
    pub fn sim_ips(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.wall_seconds
        }
    }
}

/// A full bench run: environment, totals and per-workload sections.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// Whether the reduced `--quick` configuration was used.
    pub quick: bool,
    /// Worker threads used.
    pub jobs: usize,
    /// Timing repetitions per workload cell (the best wall time is kept).
    pub repeat: usize,
    /// Dynamic instructions traced per benchmark.
    pub trace_len: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Sum of the per-workload best wall times: the suite's simulation
    /// seconds, excluding trace generation and harness overhead (which are
    /// not what the throughput gate tracks).
    pub wall_seconds: f64,
    /// On-disk trace-cache effectiveness (hits/misses/bytes), when the run
    /// used a trace directory. A warm second run shows zero misses.
    pub trace_cache: Option<CacheCounters>,
    /// Per-benchmark results, extended-suite order.
    pub workloads: Vec<WorkloadBench>,
}

impl BenchReport {
    /// Total simulated instructions across all workloads.
    pub fn total_instructions(&self) -> u64 {
        self.workloads.iter().map(|w| w.instructions).sum()
    }

    /// Suite-level simulated instructions per wall-clock second.
    pub fn sim_ips(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.total_instructions() as f64 / self.wall_seconds
        }
    }

    /// The default output filename, `BENCH_<date>.json`.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.date)
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let env = Json::object([
            ("arch".to_string(), Json::Str(std::env::consts::ARCH.to_string())),
            ("os".to_string(), Json::Str(std::env::consts::OS.to_string())),
            ("host_cpus".to_string(), Json::UInt(crate::default_jobs() as u64)),
            ("jobs".to_string(), Json::UInt(self.jobs as u64)),
            ("repeat".to_string(), Json::UInt(self.repeat as u64)),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("trace_len".to_string(), Json::UInt(self.trace_len)),
            ("seed".to_string(), Json::UInt(self.seed)),
        ]);
        let totals = Json::object([
            ("instructions".to_string(), Json::UInt(self.total_instructions())),
            ("wall_seconds".to_string(), Json::Float(self.wall_seconds)),
            ("sim_ips".to_string(), Json::Float(self.sim_ips())),
        ]);
        let workloads = Json::object(self.workloads.iter().map(|w| {
            (
                w.name.to_string(),
                Json::object([
                    ("instructions".to_string(), Json::UInt(w.instructions)),
                    ("wall_seconds".to_string(), Json::Float(w.wall_seconds)),
                    ("sim_ips".to_string(), Json::Float(w.sim_ips())),
                    ("counters".to_string(), w.registry.counters_json()),
                    ("gauges".to_string(), w.registry.gauges_json()),
                ]),
            )
        }));
        let mut pairs = vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("date".to_string(), Json::Str(self.date.clone())),
            ("env".to_string(), env),
            ("totals".to_string(), totals),
        ];
        if let Some(c) = self.trace_cache {
            pairs.push((
                "trace_cache".to_string(),
                Json::object([
                    ("hits".to_string(), Json::UInt(c.hits)),
                    ("misses".to_string(), Json::UInt(c.misses)),
                    ("bytes".to_string(), Json::UInt(c.bytes)),
                ]),
            ));
        }
        pairs.push(("workloads".to_string(), workloads));
        Json::object(pairs)
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
/// trace length and seed; its job count decides parallelism), timing each
/// cell once.
pub fn run_with(sweep: &Sweep, quick: bool) -> BenchReport {
    run_repeat(sweep, quick, 1)
}

/// Like [`run_with`] but times each workload cell `repeat` times and keeps
/// the best (minimum) wall time — the standard noise-trimming estimator:
/// scheduler preemption and cache-cold effects only ever *add* time, so the
/// minimum is the closest observation to the true cost. The counters are
/// deterministic across repeats, so only the first repetition's registry is
/// kept.
pub fn run_repeat(sweep: &Sweep, quick: bool, repeat: usize) -> BenchReport {
    let repeat = repeat.max(1);
    let cfg = *sweep.config();
    let workloads: Vec<WorkloadBench> = sweep
        .cells_extended(&[()], |w, source, ()| bench_cell(repeat, w, source))
        .into_iter()
        .flat_map(|(_, cells)| cells)
        .collect();
    BenchReport {
        date: iso_date_today(),
        quick,
        jobs: sweep.jobs(),
        repeat,
        trace_len: cfg.trace_len,
        seed: cfg.workloads.seed,
        wall_seconds: workloads.iter().map(|w| w.wall_seconds).sum(),
        trace_cache: sweep.trace_counters(),
        workloads,
    }
}

/// Times one workload's bench cell — its trace statistics plus every
/// bench machine in one batched walk — `repeat` times (best wall time
/// kept, first repetition's deterministic counters kept).
fn bench_cell(repeat: usize, w: &Workload, source: &TraceSource) -> WorkloadBench {
    let mut cell = WorkloadBench {
        name: w.name(),
        instructions: 0,
        wall_seconds: f64::INFINITY,
        registry: Registry::new(),
    };
    for rep in 0..repeat {
        let cell_start = Instant::now();
        let stats = fold_slots(w, source, StatsAccum::new(), StatsAccum::push).finish();
        let runs = run_batch_source(source, &bench_configs(), None)
            .unwrap_or_else(|e| panic!("bench replay of `{}`: {e}", w.name()));
        let mut registry = Registry::new();
        stats.export_metrics(&mut registry, "trace");
        for run in &runs {
            registry.merge(&run.metrics());
        }
        cell.wall_seconds = cell.wall_seconds.min(cell_start.elapsed().as_secs_f64());
        if rep == 0 {
            cell.instructions = runs.iter().map(|r| r.instructions).sum();
            cell.registry = registry;
        }
    }
    cell
}

/// Runs the bench suite from scratch with `jobs` workers. `quick` selects
/// the reduced [`ExperimentConfig::quick`] trace length.
pub fn run(base: &ExperimentConfig, quick: bool, jobs: usize) -> BenchReport {
    let cfg = if quick {
        ExperimentConfig { trace_len: ExperimentConfig::quick().trace_len, ..*base }
    } else {
        *base
    };
    run_with(&Sweep::with_jobs(&cfg, jobs), quick)
}

/// Today's UTC date as `YYYY-MM-DD` (no external time crates: civil date
/// from the Unix epoch, Howard Hinnant's `civil_from_days` algorithm).
pub fn iso_date_today() -> String {
    let secs =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or_default();
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The outcome of comparing two bench reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Human-readable per-workload and total throughput deltas.
    pub lines: Vec<String>,
    /// Non-fatal observations (environment mismatches, workload set
    /// changes).
    pub warnings: Vec<String>,
    /// Throughput regressions beyond the threshold; non-empty means the
    /// gate fails.
    pub regressions: Vec<String>,
}

impl Comparison {
    /// Whether the regression gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn ips_of(section: &Json) -> Option<f64> {
    section.get("sim_ips").and_then(Json::as_f64)
}

/// Compares two parsed bench reports; `threshold` is the tolerated
/// throughput drop as a fraction (0.15 = a 15% slowdown fails).
///
/// Comparable sections are the suite totals and every workload present in
/// both reports. Environment differences (trace length, seed, quick flag)
/// make throughput incomparable in principle, so they are surfaced as
/// warnings rather than silently ignored.
pub fn compare(old: &Json, new: &Json, threshold: f64) -> Result<Comparison, String> {
    for (label, doc) in [("old", old), ("new", new)] {
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("{label} report has unknown schema `{other}`")),
            None => return Err(format!("{label} report is missing the schema field")),
        }
    }
    let mut out = Comparison::default();
    for key in ["trace_len", "seed", "quick", "jobs", "repeat"] {
        let (a, b) = (
            old.get_path("env").and_then(|e| e.get(key)),
            new.get_path("env").and_then(|e| e.get(key)),
        );
        if a != b {
            out.warnings.push(format!(
                "env.{key} differs ({} vs {}): throughput numbers may not be comparable",
                a.map_or("missing".to_string(), Json::to_json),
                b.map_or("missing".to_string(), Json::to_json),
            ));
        }
    }

    fn check(out: &mut Comparison, threshold: f64, label: &str, old_sec: &Json, new_sec: &Json) {
        let (Some(a), Some(b)) = (ips_of(old_sec), ips_of(new_sec)) else {
            out.warnings.push(format!("{label}: missing sim_ips, skipped"));
            return;
        };
        // A zero, negative or non-finite baseline makes the ratio
        // meaningless; it must not silently count as "no regression".
        if !(a.is_finite() && a > 0.0 && b.is_finite()) {
            out.warnings.push(format!(
                "{label}: degenerate sim_ips ({a} -> {b}), gate skipped for this section"
            ));
            return;
        }
        let delta = b / a - 1.0;
        out.lines
            .push(format!("{label:<12} {a:>14.0} -> {b:>14.0} instr/s  ({:+.1}%)", 100.0 * delta));
        if b < a * (1.0 - threshold) {
            // A cell too quick to time cannot fail the gate — its jitter
            // alone exceeds any sane threshold. Sections without a wall
            // time (and the suite total, which always carries one measured
            // over the whole run) gate normally.
            let wall = |sec: &Json| sec.get("wall_seconds").and_then(Json::as_f64);
            let below_floor = match (wall(old_sec), wall(new_sec)) {
                (Some(wa), Some(wb)) => wa.min(wb) < MIN_GATE_WALL_SECONDS,
                _ => false,
            };
            if below_floor {
                out.warnings.push(format!(
                    "{label}: throughput fell {:.1}% but the cell ran under {:.0} ms — \
                     too quick to time, not gated",
                    -100.0 * delta,
                    1000.0 * MIN_GATE_WALL_SECONDS
                ));
            } else {
                out.regressions.push(format!(
                    "{label}: throughput fell {:.1}% (threshold {:.1}%)",
                    -100.0 * delta,
                    100.0 * threshold
                ));
            }
        }
    }

    let empty = Json::Object(Vec::new());
    let (old_wl, new_wl) =
        (old.get("workloads").unwrap_or(&empty), new.get("workloads").unwrap_or(&empty));
    for (name, old_sec) in old_wl.as_object().unwrap_or(&[]) {
        match new_wl.get(name) {
            Some(new_sec) => check(&mut out, threshold, name, old_sec, new_sec),
            None => out.warnings.push(format!("workload `{name}` disappeared from the new report")),
        }
    }
    for (name, _) in new_wl.as_object().unwrap_or(&[]) {
        if old_wl.get(name).is_none() {
            out.warnings.push(format!("workload `{name}` is new in the new report"));
        }
    }
    if let (Some(a), Some(b)) = (old.get("totals"), new.get("totals")) {
        check(&mut out, threshold, "TOTAL", a, b);
    } else {
        out.warnings.push("totals section missing, suite-level gate skipped".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29));
        assert_eq!(civil_from_days(20_666), (2026, 8, 1));
    }

    #[test]
    fn iso_date_shape() {
        let d = iso_date_today();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }

    fn tiny_report(ips: f64) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema": "fetchvp-bench/v1",
              "env": {{"trace_len": 100, "seed": 0, "quick": true, "jobs": 1}},
              "totals": {{"instructions": 100, "wall_seconds": 1.0, "sim_ips": {ips:?}}},
              "workloads": {{"go": {{"instructions": 100, "sim_ips": {ips:?}}}}}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_passes_within_threshold() {
        let c = compare(&tiny_report(1000.0), &tiny_report(900.0), 0.15).unwrap();
        assert!(c.passed(), "{:?}", c.regressions);
        assert!(c.warnings.is_empty(), "{:?}", c.warnings);
        assert_eq!(c.lines.len(), 2); // go + TOTAL
    }

    #[test]
    fn compare_fails_beyond_threshold() {
        let c = compare(&tiny_report(1000.0), &tiny_report(800.0), 0.15).unwrap();
        assert!(!c.passed());
        assert_eq!(c.regressions.len(), 2);
    }

    /// Like [`tiny_report`] but the `go` cell carries a wall time.
    fn timed_report(ips: f64, wall: f64) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema": "fetchvp-bench/v1",
              "env": {{"trace_len": 100, "seed": 0, "quick": true, "jobs": 1}},
              "totals": {{"instructions": 100, "wall_seconds": 1.0, "sim_ips": 1000.0}},
              "workloads": {{"go": {{"instructions": 100, "wall_seconds": {wall:?}, "sim_ips": {ips:?}}}}}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn sub_floor_cells_warn_instead_of_failing() {
        // A 10 ms cell regressing 50%: jitter, not a verdict.
        let c = compare(&timed_report(1000.0, 0.010), &timed_report(500.0, 0.010), 0.15).unwrap();
        assert!(c.passed(), "{:?}", c.regressions);
        assert!(c.warnings.iter().any(|w| w.contains("too quick to time")), "{:?}", c.warnings);
    }

    #[test]
    fn well_timed_cells_still_gate() {
        let c = compare(&timed_report(1000.0, 1.0), &timed_report(500.0, 1.0), 0.15).unwrap();
        assert!(!c.passed());
        assert_eq!(c.regressions.len(), 1, "{:?}", c.regressions);
    }

    #[test]
    fn zero_baseline_warns_instead_of_passing_silently() {
        // Old gate bug: a 0.0 baseline made `delta = 0.0`, so an arbitrary
        // regression against a broken baseline always passed quietly.
        let c = compare(&tiny_report(0.0), &tiny_report(500.0), 0.15).unwrap();
        assert!(c.passed(), "degenerate sections must not fail the gate");
        let degenerate = c.warnings.iter().filter(|w| w.contains("degenerate sim_ips")).count();
        assert_eq!(degenerate, 2, "go + TOTAL should both warn: {:?}", c.warnings);
        assert!(c.lines.is_empty(), "no delta line for an unmeasurable ratio");
    }

    /// Builds a schema-correct report with `sim_ips` set to an arbitrary
    /// float (including non-finite values JSON text cannot carry).
    fn report_with_raw_ips(ips: f64) -> Json {
        let section = Json::object([
            ("instructions".to_string(), Json::UInt(100)),
            ("wall_seconds".to_string(), Json::Float(1.0)),
            ("sim_ips".to_string(), Json::Float(ips)),
        ]);
        Json::object([
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("env".to_string(), Json::object([("trace_len".to_string(), Json::UInt(100))])),
            ("totals".to_string(), section.clone()),
            ("workloads".to_string(), Json::object([("go".to_string(), section)])),
        ])
    }

    #[test]
    fn non_finite_sim_ips_warns_instead_of_gating() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let c = compare(&report_with_raw_ips(bad), &report_with_raw_ips(500.0), 0.15).unwrap();
            assert!(c.passed(), "{bad}: {:?}", c.regressions);
            assert!(
                c.warnings.iter().any(|w| w.contains("degenerate sim_ips")),
                "{bad}: {:?}",
                c.warnings
            );
        }
    }

    #[test]
    fn compare_speedups_never_fail() {
        let c = compare(&tiny_report(1000.0), &tiny_report(5000.0), 0.15).unwrap();
        assert!(c.passed());
    }

    #[test]
    fn compare_warns_on_env_mismatch() {
        let mut fast = tiny_report(1000.0);
        if let Json::Object(pairs) = &mut fast {
            for (k, v) in pairs.iter_mut() {
                if k == "env" {
                    *v = Json::object([("trace_len".to_string(), Json::UInt(999))]);
                }
            }
        }
        let c = compare(&tiny_report(1000.0), &fast, 0.15).unwrap();
        assert!(!c.warnings.is_empty());
    }

    #[test]
    fn compare_rejects_wrong_schema() {
        let bad = Json::object([("schema".to_string(), Json::Str("nope".to_string()))]);
        assert!(compare(&bad, &tiny_report(1.0), 0.15).is_err());
        assert!(compare(&tiny_report(1.0), &bad, 0.15).is_err());
    }
}
