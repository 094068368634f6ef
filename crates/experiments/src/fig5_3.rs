//! Figure 5.3 — value-prediction speedup on the realistic machine with a
//! trace-cache front-end, for both BTB choices.
//!
//! The value predictions flow through the §4 banked front-end (trace
//! addresses buffer → address router → interleaved table → value
//! distributor), since a trace-cache line can contain several copies of the
//! same instruction.
//!
//! Paper shape: with the 2-level BTB, value prediction gains more than 10%
//! on average; with an ideal BTB the average is below 40% — and both are
//! bounded by the BTB/trace-cache quality.

use fetchvp_core::{BtbKind, FrontEnd, MachineConfig, RealisticConfig, VpConfig};
use fetchvp_fetch::TraceCacheConfig;
use fetchvp_predictor::BankedConfig;

use crate::chart::BarChart;
use crate::grid::{column_means, Grid, Layout, Measure};
use crate::report::Table;
use crate::sweep::Sweep;

/// Number of prediction-table banks in the §4 front-end ("highly
/// interleaved").
pub const BANKS: u32 = 16;

/// The figure as a grid: per benchmark, the base/VP machine pair of each
/// BTB, one speedup per BTB. Matching the paper's figure, whose x-axis
/// includes the SPECfp benchmark `mgrid`, it runs the extended suite.
pub fn grid() -> Grid {
    let pair = |btb| {
        let fe = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb };
        [
            MachineConfig::Realistic(RealisticConfig::paper(fe, VpConfig::None)),
            MachineConfig::Realistic(
                RealisticConfig::paper(fe, VpConfig::stride_infinite())
                    .with_banked(BankedConfig::new(BANKS)),
            ),
        ]
    };
    Grid {
        title: "Figure 5.3 — value-prediction speedup with a trace cache".into(),
        headers: ["benchmark", "TC+2levelBTB", "TC+idealBTB"].map(String::from).to_vec(),
        configs: [BtbKind::two_level_paper(), BtbKind::Perfect]
            .into_iter()
            .flat_map(pair)
            .collect(),
        extended: true,
        measures: vec![Measure::pair_speedup(0), Measure::pair_speedup(1)],
        layout: Layout::Benchmarks { average: true },
    }
}

/// Per-benchmark speedups for the two BTB configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig53Result {
    /// `(benchmark, TC+2levelBTB speedup, TC+idealBTB speedup)` in suite
    /// order (the figure's two series).
    pub rows: Vec<(String, f64, f64)>,
}

impl Fig53Result {
    /// Averages `(TC+2levelBTB, TC+idealBTB)`.
    pub fn averages(&self) -> (f64, f64) {
        let means = column_means(&self.values());
        (means[0], means[1])
    }

    /// The `(TC+2levelBTB, TC+idealBTB)` speedups of one benchmark.
    pub fn row_of(&self, name: &str) -> Option<(f64, f64)> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|(_, a, b)| (*a, *b))
    }

    /// The rows as the grid's values.
    fn values(&self) -> Vec<(String, Vec<f64>)> {
        self.rows.iter().map(|(n, a, b)| (n.clone(), vec![*a, *b])).collect()
    }

    /// Renders as a terminal bar chart.
    pub fn to_chart(&self) -> BarChart {
        grid().chart(&self.values())
    }

    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        grid().table(&self.values())
    }
}

/// Runs the experiment on a [`Sweep`]: per benchmark, both BTBs' base/VP
/// pairs advance in batched lockstep over one trace walk.
pub fn run_with(sweep: &Sweep) -> Fig53Result {
    let rows = grid().values(sweep).into_iter().map(|(n, v)| (n, v[0], v[1])).collect();
    Fig53Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn trace_cache_value_prediction_pays_off_on_average() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let (two_level, ideal) = r.averages();
        // Paper: >10% with the 2-level BTB; <40%-ish with the ideal BTB.
        assert!(two_level > 0.02, "TC+2level average {two_level:.2} too small");
        assert!(ideal > two_level - 0.05, "ideal BTB should not trail the 2-level one");
    }

    #[test]
    fn table_shape_includes_mgrid() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.to_table().num_rows(), 10); // 9 benchmarks + avg
        assert!(r.row_of("go").is_some());
        assert!(r.row_of("mgrid").is_some(), "the paper's figure includes mgrid");
    }
}
