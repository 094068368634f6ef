//! Ablation studies beyond the paper's figures.
//!
//! The paper fixes most design parameters (window 40, 2-bit classification,
//! one predictor, one trace-cache policy). These runners sweep the choices
//! `DESIGN.md` calls out, quantifying how sensitive the headline result is
//! to each:
//!
//! * [`bank_sweep_with`] — how many banks the §4 interleaved prediction table
//!   needs before router denials stop costing performance.
//! * [`window_sweep_with`] — the instruction-window size the ideal machine needs
//!   before fetch bandwidth (not the window) is the binding constraint.
//! * [`confidence_sweep_with`] — the classification threshold's
//!   coverage/accuracy trade-off (§3.1's saturating-counter unit).
//! * [`predictor_comparison_with`] — last-value vs stride vs two-delta vs the
//!   §4.2 hybrid, on equal footing.
//! * [`partial_matching_with`] — the trace-cache policy alternative of paper
//!   reference \[6\] (Friendly, Patel & Patt).
//! * [`btb_sensitivity_with`] — branch predictors of increasing quality under
//!   the §5 machine, quantifying the paper's closing remark that BTB
//!   accuracy directly scales the value-prediction gain.
//! * [`fetch_mechanisms_with`] — the §2.2 high-bandwidth fetch mechanisms
//!   (taken-branch-limited, branch address cache, trace cache) compared
//!   head-to-head.
//! * [`penalty_sweep_with`] — branch/value misprediction penalties around the
//!   paper's (3, 1) operating point.
//! * [`tc_geometry_with`] — trace-cache size and line length.
//! * [`hint_study_with`] — the hybrid predictor's dynamic classification vs the
//!   profiling hints of §4.2 (reference \[9\]).
//! * [`model_assumptions_with`] — relaxing the §3 idealizations (structural
//!   hazards, memory dependencies) one at a time.
//! * [`seed_stability_with`] — the Figure 3.1 averages across five workload
//!   seeds, showing the conclusions do not hinge on one dataset.

use fetchvp_bpred::{GshareConfig, TwoLevelConfig};
use fetchvp_core::{
    BtbKind, FrontEnd, IdealConfig, MachineConfig, PredictorKind, RealisticConfig, VpConfig,
};
use fetchvp_dfg::profiling::{hints_from_profiles, Profiler};
use fetchvp_fetch::{BacConfig, TraceCacheConfig};
use fetchvp_predictor::{BankedConfig, ConfidenceConfig, StrideKind, TableGeometry};
use fetchvp_predictor::{HybridPredictor, PredictorStats, StridePredictor, ValuePredictor};
use fetchvp_tracestore::TraceSource;
use fetchvp_workloads::Workload;

use crate::report::{num, pct, Table};
use crate::sweep::{fold_slots, Sweep};
use crate::{mean, ExperimentConfig};

/// Per-workload rows of (coverage, accuracy, speedup) triples, one
/// column per swept predictor variant.
type VpTripleRows = Vec<(&'static str, Vec<(f64, f64, f64)>)>;

/// The arithmetic mean of column `i` across per-workload result rows.
fn column_mean<R>(rows: &[(&'static str, Vec<R>)], i: usize, f: impl Fn(&R) -> f64) -> f64 {
    mean(&rows.iter().map(|(_, cols)| f(&cols[i])).collect::<Vec<_>>())
}

/// The bank counts swept by [`bank_sweep_with`].
pub const BANK_SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 64];

/// Result of the bank-count ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSweepResult {
    /// Per bank count: (average speedup, average denial rate).
    pub points: Vec<(u32, f64, f64)>,
}

impl BankSweepResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — prediction-table banks (trace cache, ideal BTB)",
            &["banks", "avg speedup", "avg denial rate"],
        );
        for (banks, speedup, denial) in &self.points {
            t.row(&[banks.to_string(), pct(*speedup), pct(*denial)]);
        }
        t
    }
}

fn tc_front_end() -> FrontEnd {
    FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::Perfect }
}

/// Sweeps the number of banks in the §4 interleaved prediction table.
///
/// Per benchmark, the baseline and all bank counts advance in batched
/// lockstep over one trace walk.
pub fn bank_sweep_with(sweep: &Sweep) -> BankSweepResult {
    let mut configs =
        vec![MachineConfig::Realistic(RealisticConfig::paper(tc_front_end(), VpConfig::None))];
    configs.extend(BANK_SWEEP.iter().map(|&banks| {
        MachineConfig::Realistic(
            RealisticConfig::paper(tc_front_end(), VpConfig::stride_infinite())
                .with_banked(BankedConfig::new(banks)),
        )
    }));
    let rows: Vec<(&'static str, Vec<(f64, f64)>)> = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let (base, vps) = (&results[0], &results[1..]);
            let cols = vps
                .iter()
                .map(|vp| {
                    let banked = vp.banked_stats.as_ref().expect("banked stats");
                    (vp.speedup_over(base), banked.denial_rate())
                })
                .collect();
            (name, cols)
        })
        .collect();
    BankSweepResult {
        points: BANK_SWEEP
            .iter()
            .enumerate()
            .map(|(i, &banks)| {
                (banks, column_mean(&rows, i, |c| c.0), column_mean(&rows, i, |c| c.1))
            })
            .collect(),
    }
}

/// The window sizes swept by [`window_sweep_with`].
pub const WINDOW_SWEEP: [usize; 4] = [16, 40, 80, 160];

/// Result of the instruction-window ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSweepResult {
    /// Per window size: average VP speedup on the fetch-16 ideal machine.
    pub points: Vec<(usize, f64)>,
}

impl WindowSweepResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — instruction-window size (ideal machine, fetch 16)",
            &["window", "avg speedup"],
        );
        for (window, speedup) in &self.points {
            t.row(&[window.to_string(), pct(*speedup)]);
        }
        t
    }
}

/// Sweeps the ideal machine's instruction-window size at fetch rate 16.
///
/// Per benchmark, the base/VP pairs of all window sizes advance in batched
/// lockstep over one trace walk.
pub fn window_sweep_with(sweep: &Sweep) -> WindowSweepResult {
    let configs: Vec<MachineConfig> = WINDOW_SWEEP
        .iter()
        .flat_map(|&window| {
            [VpConfig::None, VpConfig::stride_infinite()].map(|vp| {
                MachineConfig::Ideal(IdealConfig {
                    fetch_rate: 16,
                    window,
                    vp,
                    ..IdealConfig::default()
                })
            })
        })
        .collect();
    let rows: Vec<(&'static str, Vec<f64>)> = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            (name, results.chunks_exact(2).map(|pair| pair[1].speedup_over(&pair[0])).collect())
        })
        .collect();
    WindowSweepResult {
        points: WINDOW_SWEEP
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, column_mean(&rows, i, |&s| s)))
            .collect(),
    }
}

/// Result of the classification-threshold ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceSweepResult {
    /// Per threshold: (threshold, avg coverage, avg accuracy, avg speedup).
    pub points: Vec<(u8, f64, f64, f64)>,
}

impl ConfidenceSweepResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — classification threshold (2-bit counters, ideal machine, fetch 16)",
            &["predict at", "coverage", "accuracy", "avg speedup"],
        );
        for (at, cov, acc, speedup) in &self.points {
            t.row(&[at.to_string(), pct(*cov), pct(*acc), pct(*speedup)]);
        }
        t
    }
}

/// Sweeps the saturating-counter confidence threshold.
///
/// Per benchmark, the baseline and all thresholds advance in batched
/// lockstep over one trace walk.
pub fn confidence_sweep_with(sweep: &Sweep) -> ConfidenceSweepResult {
    let thresholds: [u8; 4] = [0, 1, 2, 3];
    let ideal16 =
        |vp| MachineConfig::Ideal(IdealConfig { fetch_rate: 16, vp, ..IdealConfig::default() });
    let mut configs = vec![ideal16(VpConfig::None)];
    configs.extend(thresholds.iter().map(|&predict_at| {
        ideal16(VpConfig::Predictor(PredictorKind::Stride {
            geometry: TableGeometry::Infinite,
            confidence: ConfidenceConfig { bits: 2, predict_at, initial: 0 },
            kind: StrideKind::Simple,
        }))
    }));
    let rows: VpTripleRows = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let (base, vps) = (&results[0], &results[1..]);
            let cols = vps
                .iter()
                .map(|vp| {
                    let s = vp.vp_stats.as_ref().expect("predictor stats");
                    (s.coverage(), s.accuracy(), vp.speedup_over(base))
                })
                .collect();
            (name, cols)
        })
        .collect();
    ConfidenceSweepResult {
        points: thresholds
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                (
                    at,
                    column_mean(&rows, i, |c| c.0),
                    column_mean(&rows, i, |c| c.1),
                    column_mean(&rows, i, |c| c.2),
                )
            })
            .collect(),
    }
}

/// Result of the predictor-kind comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorComparisonResult {
    /// Per predictor: (name, avg coverage, avg accuracy, avg speedup).
    pub points: Vec<(String, f64, f64, f64)>,
}

impl PredictorComparisonResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — predictor kind (ideal machine, fetch 16)",
            &["predictor", "coverage", "accuracy", "avg speedup"],
        );
        for (name, cov, acc, speedup) in &self.points {
            t.row(&[name.clone(), pct(*cov), pct(*acc), pct(*speedup)]);
        }
        t
    }

    /// The average speedup of one predictor.
    pub fn speedup_of(&self, name: &str) -> Option<f64> {
        self.points.iter().find(|(n, ..)| n == name).map(|&(_, _, _, s)| s)
    }
}

/// Compares last-value, simple-stride, two-delta-stride, hybrid and FCM
/// prediction under identical machine conditions (§4.2's discussion plus
/// the context-based scheme of reference \[22\]).
///
/// Per benchmark, the baseline and all predictor kinds advance in batched
/// lockstep over one trace walk.
pub fn predictor_comparison_with(sweep: &Sweep) -> PredictorComparisonResult {
    let kinds: [(&str, PredictorKind); 5] = [
        (
            "last-value",
            PredictorKind::LastValue {
                geometry: TableGeometry::Infinite,
                confidence: ConfidenceConfig::paper(),
            },
        ),
        (
            "stride",
            PredictorKind::Stride {
                geometry: TableGeometry::Infinite,
                confidence: ConfidenceConfig::paper(),
                kind: StrideKind::Simple,
            },
        ),
        (
            "stride-2delta",
            PredictorKind::Stride {
                geometry: TableGeometry::Infinite,
                confidence: ConfidenceConfig::paper(),
                kind: StrideKind::TwoDelta,
            },
        ),
        ("hybrid", PredictorKind::Hybrid),
        ("fcm", PredictorKind::Fcm { confidence: ConfidenceConfig::paper() }),
    ];
    let mut configs = vec![MachineConfig::Ideal(IdealConfig {
        fetch_rate: 16,
        vp: VpConfig::None,
        ..IdealConfig::default()
    })];
    configs.extend(kinds.iter().map(|(_, kind)| {
        MachineConfig::Ideal(IdealConfig {
            fetch_rate: 16,
            vp: VpConfig::Predictor(*kind),
            ..IdealConfig::default()
        })
    }));
    let rows: VpTripleRows = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let (base, vps) = (&results[0], &results[1..]);
            let cols = vps
                .iter()
                .map(|vp| {
                    let s = vp.vp_stats.as_ref().expect("predictor stats");
                    (s.coverage(), s.accuracy(), vp.speedup_over(base))
                })
                .collect();
            (name, cols)
        })
        .collect();
    PredictorComparisonResult {
        points: kinds
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                (
                    name.to_string(),
                    column_mean(&rows, i, |c| c.0),
                    column_mean(&rows, i, |c| c.1),
                    column_mean(&rows, i, |c| c.2),
                )
            })
            .collect(),
    }
}

/// Result of the seed-stability study.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedStabilityResult {
    /// Per fetch rate: (rate, min, mean, max) of the Figure 3.1 suite
    /// average across seeds.
    pub points: Vec<(usize, f64, f64, f64)>,
}

impl SeedStabilityResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — seed stability of the Figure 3.1 averages",
            &["fetch rate", "min", "mean", "max"],
        );
        for (rate, min, mean_, max) in &self.points {
            t.row(&[rate.to_string(), pct(*min), pct(*mean_), pct(*max)]);
        }
        t
    }
}

/// Re-runs the Figure 3.1 averages across several workload-data seeds: the
/// paper's conclusions must not depend on one synthetic dataset.
///
/// The caller's own seed runs on the caller's sweep. Every other seed
/// generates *different* traces, so it cannot share the caller's
/// [`TraceCache`](crate::TraceCache); each gets its own sweep (with the
/// caller's job count and trace directory) and runs in turn.
pub fn seed_stability_with(sweep: &Sweep) -> SeedStabilityResult {
    let cfg = sweep.config();
    let trace_dir = sweep.cache().trace_dir();
    let seeds = [cfg.workloads.seed, 1, 42, 0xDEAD_BEEF, 0x1998];
    let mut per_rate: Vec<Vec<f64>> = vec![Vec::new(); crate::fig3_1::FETCH_RATES.len()];
    for (i, seed) in seeds.into_iter().enumerate() {
        let seeded = ExperimentConfig {
            workloads: fetchvp_workloads::WorkloadParams { seed, ..cfg.workloads },
            ..*cfg
        };
        let averages = if i == 0 {
            crate::fig3_1::run_with(sweep).averages()
        } else {
            let seeded = Sweep::with_trace_dir(&seeded, trace_dir.cloned(), sweep.jobs());
            crate::fig3_1::run_with(&seeded).averages()
        };
        for (i, a) in averages.into_iter().enumerate() {
            per_rate[i].push(a);
        }
    }
    SeedStabilityResult {
        points: crate::fig3_1::FETCH_RATES
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                let xs = &per_rate[i];
                let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
                let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (rate, min, mean(xs), max)
            })
            .collect(),
    }
}

/// Result of the model-assumption study.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAssumptionsResult {
    /// Per model variant: (name, avg base IPC, avg VP speedup) on the
    /// fetch-16 ideal machine.
    pub points: Vec<(String, f64, f64)>,
}

impl ModelAssumptionsResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — model assumptions (ideal machine, fetch 16)",
            &["model", "base IPC", "avg VP speedup"],
        );
        for (name, ipc, speedup) in &self.points {
            t.row(&[name.clone(), num(*ipc), pct(*speedup)]);
        }
        t
    }
}

/// Relaxes the §3 model's idealizations one at a time: finite execution
/// units (structural hazards) and memory dependencies (store-to-load
/// ordering), quantifying how much each assumption contributes to the
/// reported speedups.
///
/// Per benchmark, the base/VP pairs of all variants advance in batched
/// lockstep over one trace walk.
pub fn model_assumptions_with(sweep: &Sweep) -> ModelAssumptionsResult {
    let variants: [(&str, Option<usize>, bool); 4] = [
        ("paper model (no structural/memory constraints)", None, false),
        ("+ memory dependencies", None, true),
        ("+ 8 execution units", Some(8), false),
        ("+ both", Some(8), true),
    ];
    let configs: Vec<MachineConfig> = variants
        .iter()
        .flat_map(|&(_, exec_units, memory_deps)| {
            [VpConfig::None, VpConfig::stride_infinite()].map(|vp| {
                MachineConfig::Ideal(IdealConfig {
                    fetch_rate: 16,
                    vp,
                    exec_units,
                    memory_deps,
                    ..IdealConfig::default()
                })
            })
        })
        .collect();
    let rows: Vec<(&'static str, Vec<(f64, f64)>)> = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let cols = results
                .chunks_exact(2)
                .map(|pair| (pair[0].ipc(), pair[1].speedup_over(&pair[0])))
                .collect();
            (name, cols)
        })
        .collect();
    ModelAssumptionsResult {
        points: variants
            .iter()
            .enumerate()
            .map(|(i, (name, _, _))| {
                (name.to_string(), column_mean(&rows, i, |c| c.0), column_mean(&rows, i, |c| c.1))
            })
            .collect(),
    }
}

/// Result of the misprediction-penalty sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct PenaltySweepResult {
    /// Per (branch penalty, value penalty): average VP speedup at n=4 with
    /// the 2-level BTB.
    pub points: Vec<(u64, u64, f64)>,
}

impl PenaltySweepResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — misprediction penalties (conventional fetch, n=4, 2-level BTB)",
            &["branch penalty", "value penalty", "avg VP speedup"],
        );
        for (bp, vp, speedup) in &self.points {
            t.row(&[bp.to_string(), vp.to_string(), pct(*speedup)]);
        }
        t
    }
}

/// Sweeps the branch- and value-misprediction penalties around the paper's
/// (3, 1) operating point.
///
/// Per benchmark, the base/VP pairs of all grid points advance in batched
/// lockstep over one trace walk.
pub fn penalty_sweep_with(sweep: &Sweep) -> PenaltySweepResult {
    let grid: [(u64, u64); 5] = [(0, 1), (3, 0), (3, 1), (3, 3), (10, 1)];
    let fe =
        FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::two_level_paper() };
    let configs: Vec<MachineConfig> = grid
        .iter()
        .flat_map(|&(branch_penalty, value_penalty)| {
            [VpConfig::None, VpConfig::stride_infinite()].map(|vp| {
                MachineConfig::Realistic(RealisticConfig {
                    branch_penalty,
                    value_penalty,
                    ..RealisticConfig::paper(fe, vp)
                })
            })
        })
        .collect();
    let rows: Vec<(&'static str, Vec<f64>)> = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            (name, results.chunks_exact(2).map(|pair| pair[1].speedup_over(&pair[0])).collect())
        })
        .collect();
    PenaltySweepResult {
        points: grid
            .iter()
            .enumerate()
            .map(|(i, &(bp, vp))| (bp, vp, column_mean(&rows, i, |&s| s)))
            .collect(),
    }
}

/// Result of the trace-cache geometry sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TcGeometryResult {
    /// Per geometry: (entries, line size, avg base IPC, avg VP speedup).
    pub points: Vec<(usize, usize, f64, f64)>,
}

impl TcGeometryResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — trace-cache geometry (2-level BTB, stride VP)",
            &["entries", "line instrs", "base IPC", "avg VP speedup"],
        );
        for (entries, line, ipc, speedup) in &self.points {
            t.row(&[entries.to_string(), line.to_string(), num(*ipc), pct(*speedup)]);
        }
        t
    }
}

/// Sweeps the trace-cache size and line length around the paper's
/// 64-entry, 32-instruction design point — §5's "improving the performance
/// of the trace cache".
///
/// Per benchmark, the base/VP pairs of all geometries advance in batched
/// lockstep over one trace walk.
pub fn tc_geometry_with(sweep: &Sweep) -> TcGeometryResult {
    let geometries: [(usize, usize); 4] = [(16, 16), (64, 16), (64, 32), (256, 32)];
    let configs: Vec<MachineConfig> = geometries
        .iter()
        .flat_map(|&(entries, max_instrs)| {
            let fe = FrontEnd::TraceCache {
                config: TraceCacheConfig { entries, max_instrs, ..TraceCacheConfig::paper() },
                btb: BtbKind::two_level_paper(),
            };
            [VpConfig::None, VpConfig::stride_infinite()]
                .map(|vp| MachineConfig::Realistic(RealisticConfig::paper(fe, vp)))
        })
        .collect();
    let rows: Vec<(&'static str, Vec<(f64, f64)>)> = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let cols = results
                .chunks_exact(2)
                .map(|pair| (pair[0].ipc(), pair[1].speedup_over(&pair[0])))
                .collect();
            (name, cols)
        })
        .collect();
    TcGeometryResult {
        points: geometries
            .iter()
            .enumerate()
            .map(|(i, &(e, l))| {
                (e, l, column_mean(&rows, i, |c| c.0), column_mean(&rows, i, |c| c.1))
            })
            .collect(),
    }
}

/// Result of the hint-classification study (§4.2 / reference \[9\]).
#[derive(Debug, Clone, PartialEq)]
pub struct HintStudyResult {
    /// Per scheme: (name, avg coverage, avg accuracy).
    pub points: Vec<(String, f64, f64)>,
}

impl HintStudyResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — hybrid classification: dynamic vs profiling hints",
            &["scheme", "coverage", "accuracy"],
        );
        for (name, cov, acc) in &self.points {
            t.row(&[name.clone(), pct(*cov), pct(*acc)]);
        }
        t
    }

    /// The `(coverage, accuracy)` of one scheme.
    pub fn point_of(&self, name: &str) -> Option<(f64, f64)> {
        self.points.iter().find(|(n, ..)| n == name).map(|&(_, c, a)| (c, a))
    }
}

/// Compares the hybrid predictor's dynamic classification against
/// profiling-based opcode hints (§4.2, reference \[9\]): the first half of
/// each trace trains the profile, the second half evaluates all schemes.
///
/// Runs one job per benchmark (the three schemes share the measuring pass
/// over the trace).
pub fn hint_study_with(sweep: &Sweep) -> HintStudyResult {
    let names = ["stride", "hybrid (dynamic)", "hybrid (profiled hints)"];
    let rows = sweep.per_workload(hint_row);
    HintStudyResult {
        points: names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (name.to_string(), column_mean(&rows, i, |c| c.0), column_mean(&rows, i, |c| c.1))
            })
            .collect(),
    }
}

/// One benchmark's `(coverage, accuracy)` per scheme on the evaluation
/// half.
pub(crate) fn hint_row(w: &Workload, source: &TraceSource) -> Vec<(f64, f64)> {
    // Two walks: the first profiles the training half; the second warms
    // all predictors on it and measures the evaluation half as the change
    // in their statistics from the split to the end.
    let split = source.len() / 2;
    let profiler = fold_slots(w, source, Profiler::default(), |profiler, rec| {
        if rec.seq() < split {
            profiler.feed(rec);
        }
    });
    let hints = hints_from_profiles(&profiler.finish(), 0.85);
    let predictors: [Box<dyn ValuePredictor>; 3] = [
        Box::new(StridePredictor::infinite()),
        Box::new(HybridPredictor::paper()),
        Box::new(HybridPredictor::paper().with_hints(hints)),
    ];
    let stats = |ps: &[Box<dyn ValuePredictor>; 3]| ps.each_ref().map(|p| p.stats());
    let (predictors, at_split) =
        fold_slots(w, source, (predictors, None), |(predictors, at_split), rec| {
            if rec.seq() == split {
                *at_split = Some(stats(predictors));
            }
            if rec.produces_value() {
                for p in predictors.iter_mut() {
                    let predicted = p.lookup(rec.pc());
                    p.commit(rec.pc(), rec.result(), predicted);
                }
            }
        });
    let end = stats(&predictors);
    let evaluation = |e: &PredictorStats, s: PredictorStats| PredictorStats {
        lookups: e.lookups - s.lookups,
        predictions: e.predictions - s.predictions,
        correct: e.correct - s.correct,
        incorrect: e.incorrect - s.incorrect,
        unpredicted: e.unpredicted - s.unpredicted,
    };
    let at_split = at_split.unwrap_or(end);
    end.iter()
        .zip(at_split)
        .map(|(e, s)| evaluation(e, s))
        .map(|e| (e.coverage(), e.accuracy()))
        .collect()
}

/// Result of the fetch-mechanism comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchMechanismResult {
    /// Per front-end: (name, avg baseline IPC, avg VP speedup).
    pub points: Vec<(String, f64, f64)>,
}

impl FetchMechanismResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — high-bandwidth fetch mechanisms (2-level BTB, stride VP)",
            &["front-end", "base IPC", "avg VP speedup"],
        );
        for (name, ipc, speedup) in &self.points {
            t.row(&[name.clone(), num(*ipc), pct(*speedup)]);
        }
        t
    }

    /// The `(base IPC, speedup)` of one front-end.
    pub fn point_of(&self, name: &str) -> Option<(f64, f64)> {
        self.points.iter().find(|(n, ..)| n == name).map(|&(_, i, s)| (i, s))
    }
}

/// Compares the §2.2 high-bandwidth fetch mechanisms head-to-head: one
/// taken branch per cycle (present processors), the branch address cache
/// (\[28\]), and the trace cache (\[18\]) — all with the paper's 2-level
/// BTB and stride value prediction.
///
/// Per benchmark, the base/VP pairs of all front-ends advance in batched
/// lockstep over one trace walk.
pub fn fetch_mechanisms_with(sweep: &Sweep) -> FetchMechanismResult {
    let front_ends: [(&str, FrontEnd); 4] = [
        (
            "conventional, 1 taken/cycle",
            FrontEnd::Conventional {
                width: 40,
                max_taken: Some(1),
                btb: BtbKind::two_level_paper(),
            },
        ),
        (
            "conventional, 4 taken/cycle",
            FrontEnd::Conventional {
                width: 40,
                max_taken: Some(4),
                btb: BtbKind::two_level_paper(),
            },
        ),
        (
            "branch address cache (3 blocks)",
            FrontEnd::BranchAddressCache {
                config: BacConfig::classic(),
                btb: BtbKind::two_level_paper(),
            },
        ),
        (
            "trace cache (64 x 32)",
            FrontEnd::TraceCache {
                config: TraceCacheConfig::paper(),
                btb: BtbKind::two_level_paper(),
            },
        ),
    ];
    let configs: Vec<MachineConfig> = front_ends
        .iter()
        .flat_map(|&(_, fe)| {
            [VpConfig::None, VpConfig::stride_infinite()]
                .map(|vp| MachineConfig::Realistic(RealisticConfig::paper(fe, vp)))
        })
        .collect();
    let rows: Vec<(&'static str, Vec<(f64, f64)>)> = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let cols = results
                .chunks_exact(2)
                .map(|pair| (pair[0].ipc(), pair[1].speedup_over(&pair[0])))
                .collect();
            (name, cols)
        })
        .collect();
    FetchMechanismResult {
        points: front_ends
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                (name.to_string(), column_mean(&rows, i, |c| c.0), column_mean(&rows, i, |c| c.1))
            })
            .collect(),
    }
}

/// Result of the BTB-sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct BtbSensitivityResult {
    /// Per BTB: (name, avg conditional accuracy, avg VP speedup at n=4).
    pub points: Vec<(String, f64, f64)>,
}

impl BtbSensitivityResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — BTB sensitivity (conventional fetch, n=4, stride VP)",
            &["branch predictor", "cond accuracy", "avg VP speedup"],
        );
        for (name, acc, speedup) in &self.points {
            t.row(&[name.clone(), pct(*acc), pct(*speedup)]);
        }
        t
    }
}

/// Quantifies §5's closing remark — "any small improvement in the BTB
/// accuracy can considerably affect the performance gain of value
/// prediction" — by sweeping branch predictors of increasing quality under
/// the Figure 5.1/5.2 machine at n = 4.
///
/// Per benchmark, the base/VP pairs of all BTBs advance in batched lockstep
/// over one trace walk.
pub fn btb_sensitivity_with(sweep: &Sweep) -> BtbSensitivityResult {
    let btbs: [(&str, BtbKind); 4] = [
        (
            "2-level, 512-entry",
            BtbKind::TwoLevel(TwoLevelConfig { entries: 512, assoc: 2, history_bits: 4 }),
        ),
        ("2-level, 2K-entry (paper)", BtbKind::two_level_paper()),
        ("gshare, 12-bit history", BtbKind::Gshare(GshareConfig::default_budget())),
        ("ideal", BtbKind::Perfect),
    ];
    let configs: Vec<MachineConfig> = btbs
        .iter()
        .flat_map(|&(_, btb)| {
            let fe = FrontEnd::Conventional { width: 40, max_taken: Some(4), btb };
            [VpConfig::None, VpConfig::stride_infinite()]
                .map(|vp| MachineConfig::Realistic(RealisticConfig::paper(fe, vp)))
        })
        .collect();
    let rows: Vec<(&'static str, Vec<(f64, f64)>)> = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let cols = results
                .chunks_exact(2)
                .zip(&btbs)
                .map(|(pair, &(_, btb))| {
                    let bp = pair[1].bpred_stats.as_ref().expect("bpred stats");
                    // The perfect predictor never sees conditional branches
                    // as "cond" mispredictions; report 100% explicitly.
                    let acc =
                        if matches!(btb, BtbKind::Perfect) { 1.0 } else { bp.cond_accuracy() };
                    (acc, pair[1].speedup_over(&pair[0]))
                })
                .collect();
            (name, cols)
        })
        .collect();
    BtbSensitivityResult {
        points: btbs
            .iter()
            .enumerate()
            .map(|(i, (name, _))| {
                (name.to_string(), column_mean(&rows, i, |c| c.0), column_mean(&rows, i, |c| c.1))
            })
            .collect(),
    }
}

/// Result of the partial-matching ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialMatchingResult {
    /// Per benchmark: (name, base-policy IPC, partial-matching IPC).
    pub rows: Vec<(String, f64, f64)>,
}

impl PartialMatchingResult {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Ablation — trace-cache partial matching (2-level BTB, stride VP)",
            &["benchmark", "full-match IPC", "partial-match IPC", "gain"],
        );
        for (name, full, partial) in &self.rows {
            t.row(&[name.clone(), num(*full), num(*partial), pct(partial / full - 1.0)]);
        }
        t
    }
}

/// Compares the base (full-match-or-miss) trace cache against partial
/// matching (paper reference \[6\]).
///
/// Per benchmark, both policies advance in batched lockstep over one trace
/// walk.
pub fn partial_matching_with(sweep: &Sweep) -> PartialMatchingResult {
    let configs = [false, true].map(|partial_matching| {
        let fe = FrontEnd::TraceCache {
            config: TraceCacheConfig { partial_matching, ..TraceCacheConfig::paper() },
            btb: BtbKind::two_level_paper(),
        };
        MachineConfig::Realistic(RealisticConfig::paper(fe, VpConfig::stride_infinite()))
    });
    let rows = sweep
        .machines(&configs)
        .into_iter()
        .map(|(n, ipcs)| (n.to_string(), ipcs[0].ipc(), ipcs[1].ipc()))
        .collect();
    PartialMatchingResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Sweep {
        Sweep::serial(&ExperimentConfig { trace_len: 15_000, ..ExperimentConfig::default() })
    }

    #[test]
    fn bank_sweep_denials_fall_monotonically() {
        let r = bank_sweep_with(&sweep());
        assert_eq!(r.points.len(), BANK_SWEEP.len());
        for w in r.points.windows(2) {
            assert!(w[1].2 <= w[0].2 + 1e-9, "denial rate rose: {:?}", r.points);
        }
        // Enough banks eliminate denials entirely.
        assert!(r.points.last().unwrap().2 < 0.01);
    }

    #[test]
    fn window_sweep_speedup_grows_with_window() {
        let r = window_sweep_with(&sweep());
        let first = r.points.first().unwrap().1;
        let last = r.points.last().unwrap().1;
        assert!(last >= first - 0.02, "window growth hurt: {:?}", r.points);
    }

    #[test]
    fn confidence_sweep_trades_coverage_for_accuracy() {
        let r = confidence_sweep_with(&sweep());
        for w in r.points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "coverage must fall: {:?}", r.points);
            assert!(w[1].2 >= w[0].2 - 0.02, "accuracy must rise: {:?}", r.points);
        }
    }

    #[test]
    fn stride_beats_last_value_on_this_suite() {
        let r = predictor_comparison_with(&sweep());
        let stride = r.speedup_of("stride").unwrap();
        let last = r.speedup_of("last-value").unwrap();
        assert!(
            stride > last,
            "stride {stride:.2} should beat last-value {last:.2} on strided workloads"
        );
        assert_eq!(r.points.len(), 5);
    }

    #[test]
    fn partial_matching_does_not_hurt() {
        let r = partial_matching_with(&sweep());
        for (name, full, partial) in &r.rows {
            assert!(partial >= &(full * 0.97), "{name}: partial matching lost >3%");
        }
    }

    #[test]
    fn conclusions_hold_across_seeds() {
        let cfg = ExperimentConfig { trace_len: 8_000, ..ExperimentConfig::default() };
        let r = seed_stability_with(&Sweep::serial(&cfg));
        // Fetch-4 is negligible for every seed; fetch-40 is large for every
        // seed.
        let at4 = r.points[0];
        let at40 = *r.points.last().unwrap();
        assert!(at4.3 < 0.10, "fetch-4 max {:?}", at4);
        assert!(at40.1 > 0.25, "fetch-40 min {:?}", at40);
    }

    #[test]
    fn relaxed_assumptions_only_reduce_ipc() {
        let r = model_assumptions_with(&sweep());
        let base = r.points[0].1;
        for (name, ipc, _) in &r.points[1..] {
            assert!(*ipc <= base + 1e-9, "{name}: IPC {ipc:.2} above the ideal {base:.2}");
        }
    }

    #[test]
    fn harsher_penalties_reduce_the_gain() {
        let r = penalty_sweep_with(&sweep());
        let find = |bp, vp| {
            r.points.iter().find(|&&(b, v, _)| (b, v) == (bp, vp)).map(|&(_, _, s)| s).unwrap()
        };
        // A 3-cycle value penalty cannot beat a free one.
        assert!(find(3, 3) <= find(3, 0) + 0.03, "{:?}", r.points);
        assert_eq!(r.points.len(), 5);
    }

    #[test]
    fn bigger_trace_caches_do_not_hurt() {
        let r = tc_geometry_with(&sweep());
        let small = r.points[0].2;
        let big = r.points.last().unwrap().2;
        assert!(big >= small - 0.05, "bigger cache lost IPC: {:?}", r.points);
    }

    #[test]
    fn profiled_hints_trade_coverage_for_accuracy() {
        let r = hint_study_with(&sweep());
        let (dyn_cov, _) = r.point_of("hybrid (dynamic)").unwrap();
        let (hint_cov, hint_acc) = r.point_of("hybrid (profiled hints)").unwrap();
        // Hints exclude unpredictable PCs entirely: lower coverage, high
        // accuracy.
        assert!(hint_cov <= dyn_cov + 0.02, "{:?}", r.points);
        assert!(hint_acc > 0.9, "hinted accuracy {hint_acc:.2}");
    }

    #[test]
    fn high_bandwidth_mechanisms_beat_single_taken_branch_fetch() {
        let r = fetch_mechanisms_with(&sweep());
        let (one_ipc, _) = r.point_of("conventional, 1 taken/cycle").unwrap();
        let (bac_ipc, _) = r.point_of("branch address cache (3 blocks)").unwrap();
        let (tc_ipc, _) = r.point_of("trace cache (64 x 32)").unwrap();
        assert!(bac_ipc >= one_ipc * 0.95, "BAC {bac_ipc:.2} vs 1-taken {one_ipc:.2}");
        assert!(tc_ipc > one_ipc, "TC {tc_ipc:.2} vs 1-taken {one_ipc:.2}");
    }

    #[test]
    fn btb_quality_scales_vp_gain() {
        let r = btb_sensitivity_with(&sweep());
        assert_eq!(r.points.len(), 4);
        let small = r.points[0].2;
        let ideal = r.points[3].2;
        assert!(ideal >= small - 0.02, "ideal BTB {ideal:.2} vs small {small:.2}");
        // Accuracy orders with predictor quality.
        assert!(r.points[3].1 >= r.points[0].1);
    }

    #[test]
    fn tables_render() {
        let s = sweep();
        assert!(bank_sweep_with(&s).to_table().to_string().contains("banks"));
        assert!(window_sweep_with(&s).to_table().num_rows() == WINDOW_SWEEP.len());
    }
}
