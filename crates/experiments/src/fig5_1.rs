//! Figure 5.1 — value-prediction speedup on the realistic machine with an
//! ideal branch predictor, sweeping the number of taken branches fetched
//! per cycle.
//!
//! Paper shape: ≈3% average speedup at 1 taken branch/cycle, rising to
//! ≈50% at 4 and beyond.

use fetchvp_core::{BtbKind, FrontEnd, MachineConfig, RealisticConfig};

use crate::chart::BarChart;
use crate::grid::{column_means, vp_pairs, Grid, Layout, Measure};
use crate::report::Table;
use crate::sweep::Sweep;

/// The taken-branch allowances the paper sweeps (`None` = unlimited; the
/// paper uses the decode width, 40, as "unlimited").
pub const TAKEN_SWEEP: [Option<u32>; 5] = [Some(1), Some(2), Some(3), Some(4), None];

/// Labels for [`TAKEN_SWEEP`] columns.
pub fn sweep_labels() -> Vec<String> {
    TAKEN_SWEEP
        .iter()
        .map(|n| match n {
            Some(k) => format!("n={k}"),
            None => "unlimited".to_string(),
        })
        .collect()
}

/// The taken-branch sweep with the given BTB as a grid (shared by Figures
/// 5.1 and 5.2): per benchmark, the base/VP machine pair of each
/// allowance, one speedup per allowance.
pub(crate) fn taken_grid(btb: BtbKind, title: &str) -> Grid {
    Grid {
        title: title.to_string(),
        headers: std::iter::once("benchmark".to_string()).chain(sweep_labels()).collect(),
        configs: vp_pairs(&TAKEN_SWEEP, |&max_taken, vp| {
            let fe = FrontEnd::Conventional { width: 40, max_taken, btb };
            MachineConfig::Realistic(RealisticConfig::paper(fe, vp))
        }),
        extended: false,
        measures: (0..TAKEN_SWEEP.len()).map(Measure::pair_speedup).collect(),
        layout: Layout::Benchmarks { average: true },
    }
}

/// Figure 5.1 as a grid.
pub fn grid() -> Grid {
    taken_grid(
        BtbKind::Perfect,
        "Figure 5.1 — value-prediction speedup vs taken branches/cycle (ideal BTB)",
    )
}

/// Per-benchmark speedups for one BTB choice across [`TAKEN_SWEEP`].
#[derive(Debug, Clone, PartialEq)]
pub struct TakenSweepResult {
    /// Which figure this instance reproduces (for the table title).
    pub title: String,
    /// `(benchmark, speedups[allowance])` in suite order.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl TakenSweepResult {
    /// The per-allowance averages.
    pub fn averages(&self) -> Vec<f64> {
        column_means(&self.rows)
    }

    /// The speedups of one benchmark.
    pub fn speedups_of(&self, name: &str) -> Option<&[f64]> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, s)| s.as_slice())
    }

    /// The grid this result renders through: either figure's columns, under
    /// this result's title.
    fn grid(&self) -> Grid {
        Grid { title: self.title.clone(), ..grid() }
    }

    /// Renders as a terminal bar chart.
    pub fn to_chart(&self) -> BarChart {
        self.grid().chart(&self.rows)
    }

    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        self.grid().table(&self.rows)
    }
}

/// Runs the experiment on a [`Sweep`]: per benchmark, the base/VP machine
/// pairs of all five allowances advance in batched lockstep over one trace
/// walk.
pub fn run_with(sweep: &Sweep) -> TakenSweepResult {
    let grid = grid();
    TakenSweepResult { rows: grid.values(sweep), title: grid.title }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn speedup_grows_with_taken_branch_allowance() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let avg = r.averages();
        assert!(avg[0] < 0.20, "n=1 average {:.2} too large", avg[0]);
        assert!(*avg.last().unwrap() > avg[0] + 0.05, "no growth across the sweep: {avg:?}");
        for w in avg.windows(2) {
            assert!(w[1] >= w[0] - 0.03, "averages not monotone: {avg:?}");
        }
    }

    #[test]
    fn table_shape() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.to_table().num_rows(), 9);
        assert_eq!(sweep_labels().last().unwrap(), "unlimited");
    }
}
