//! Figure 3.1 — value-prediction speedup on the ideal machine as a function
//! of the instruction-fetch rate.
//!
//! Paper shape: at fetch-4 the speedup is "barely noticeable"; at 8, 16, 32
//! and 40 the averages are roughly 8%, 33%, 70% and 80%, with m88ksim and
//! vortex as dramatic outliers (4% → 112% and 1.5% → 83% between fetch-4
//! and fetch-16).

use fetchvp_core::{IdealConfig, MachineConfig};

use crate::chart::BarChart;
use crate::grid::{column_means, vp_pairs, Grid, Layout, Measure};
use crate::report::Table;
use crate::sweep::Sweep;

/// The fetch rates the paper sweeps.
pub const FETCH_RATES: [usize; 5] = [4, 8, 16, 32, 40];

/// The figure as a grid: per benchmark, the base/VP machine pair at each
/// fetch rate, one speedup per rate.
pub fn grid() -> Grid {
    Grid {
        title: "Figure 3.1 — value-prediction speedup vs instruction-fetch rate (ideal machine)"
            .into(),
        headers: std::iter::once("benchmark".to_string())
            .chain(FETCH_RATES.iter().map(|r| format!("BW={r}")))
            .collect(),
        configs: vp_pairs(&FETCH_RATES, |&fetch_rate, vp| {
            MachineConfig::Ideal(IdealConfig { fetch_rate, vp, ..IdealConfig::default() })
        }),
        extended: false,
        measures: (0..FETCH_RATES.len()).map(Measure::pair_speedup).collect(),
        layout: Layout::Benchmarks { average: true },
    }
}

/// Per-benchmark speedups at each fetch rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig31Result {
    /// `(benchmark, speedups[rate])` in suite order.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Fig31Result {
    /// The per-rate averages (the paper's "avg" bars).
    pub fn averages(&self) -> Vec<f64> {
        column_means(&self.rows)
    }

    /// The speedups of one benchmark.
    pub fn speedups_of(&self, name: &str) -> Option<&[f64]> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, s)| s.as_slice())
    }

    /// Renders the figure as a terminal bar chart.
    pub fn to_chart(&self) -> BarChart {
        let title = "Figure 3.1 — value-prediction speedup vs instruction-fetch rate";
        Grid { title: title.into(), ..grid() }.chart(&self.rows)
    }

    /// Renders the figure as a markdown table.
    pub fn to_table(&self) -> Table {
        grid().table(&self.rows)
    }
}

/// Runs the experiment on a [`Sweep`]: per benchmark, all ten machines
/// (base + VP at each fetch rate) advance in batched lockstep over one
/// trace walk.
pub fn run_with(sweep: &Sweep) -> Fig31Result {
    Fig31Result { rows: grid().values(sweep) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn speedup_grows_with_fetch_rate_on_average() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let avg = r.averages();
        assert_eq!(avg.len(), 5);
        // The paper's headline: fetch-4 speedup is marginal, fetch-40 large.
        assert!(avg[0] < 0.15, "fetch-4 average {:.2} too large", avg[0]);
        assert!(avg[4] > avg[0] + 0.10, "no growth: {avg:?}");
        // Weak monotonicity across the sweep.
        for w in avg.windows(2) {
            assert!(w[1] >= w[0] - 0.03, "averages not monotone: {avg:?}");
        }
    }

    #[test]
    fn m88ksim_and_vortex_are_the_outliers() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let at16 = |name: &str| r.speedups_of(name).unwrap()[2];
        let others = ["go", "gcc", "compress", "li", "ijpeg", "perl"];
        let other_max = others.iter().map(|n| at16(n)).fold(f64::NEG_INFINITY, f64::max);
        assert!(
            at16("m88ksim") > other_max && at16("vortex") > other_max,
            "m88ksim {:.2} / vortex {:.2} vs other max {:.2}",
            at16("m88ksim"),
            at16("vortex"),
            other_max
        );
    }

    #[test]
    fn table_has_one_row_per_benchmark_plus_average() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.to_table().num_rows(), 9);
    }
}
