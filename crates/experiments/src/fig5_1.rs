//! Figure 5.1 — value-prediction speedup on the realistic machine with an
//! ideal branch predictor, sweeping the number of taken branches fetched
//! per cycle.
//!
//! Paper shape: ≈3% average speedup at 1 taken branch/cycle, rising to
//! ≈50% at 4 and beyond.

use fetchvp_core::{BtbKind, FrontEnd, MachineConfig, RealisticConfig, VpConfig};

use crate::chart::BarChart;
use crate::mean;
use crate::report::{pct, Table};
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
        (0..TAKEN_SWEEP.len())
            .map(|i| mean(&self.rows.iter().map(|(_, s)| s[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// The speedups of one benchmark.
    pub fn speedups_of(&self, name: &str) -> Option<&[f64]> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, s)| s.as_slice())
    }

    /// Renders as a terminal bar chart.
    pub fn to_chart(&self) -> BarChart {
        let mut c = BarChart::new(self.title.clone(), 40);
        let labels = sweep_labels();
        for (name, speedups) in &self.rows {
            let bars: Vec<(&str, f64)> =
                labels.iter().map(String::as_str).zip(speedups.iter().copied()).collect();
            c.row(name.clone(), &bars);
        }
        c
    }

    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let headers: Vec<String> =
            std::iter::once("benchmark".to_string()).chain(sweep_labels()).collect();
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(self.title.clone(), &headers_ref);
        for (name, speedups) in &self.rows {
            let mut cells = vec![name.clone()];
            cells.extend(speedups.iter().map(|&s| pct(s)));
            t.row(&cells);
        }
        let mut avg = vec!["avg".to_string()];
        avg.extend(self.averages().iter().map(|&s| pct(s)));
        t.row(&avg);
        t
    }
}

/// Runs the taken-branch sweep with the given BTB (shared by Figures 5.1
/// and 5.2): per benchmark, the base/VP machine pairs of all five
/// allowances advance in batched lockstep over one trace walk.
pub(crate) fn taken_sweep(sweep: &Sweep, btb: BtbKind, title: &str) -> TakenSweepResult {
    let configs: Vec<MachineConfig> = TAKEN_SWEEP
        .iter()
        .flat_map(|&max_taken| {
            let fe = FrontEnd::Conventional { width: 40, max_taken, btb };
            [VpConfig::None, VpConfig::stride_infinite()]
                .map(|vp| MachineConfig::Realistic(RealisticConfig::paper(fe, vp)))
        })
        .collect();
    let rows = sweep
        .machines(&configs)
        .into_iter()
        .map(|(name, results)| {
            let speedups =
                results.chunks_exact(2).map(|pair| pair[1].speedup_over(&pair[0])).collect();
            (name.to_string(), speedups)
        })
        .collect();
    TakenSweepResult { title: title.to_string(), rows }
}

/// Runs the experiment on a [`Sweep`].
pub fn run_with(sweep: &Sweep) -> TakenSweepResult {
    taken_sweep(
        sweep,
        BtbKind::Perfect,
        "Figure 5.1 — value-prediction speedup vs taken branches/cycle (ideal BTB)",
    )
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
