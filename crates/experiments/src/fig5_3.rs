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
use crate::mean;
use crate::report::{pct, Table};
use crate::sweep::Sweep;

/// Number of prediction-table banks in the §4 front-end ("highly
/// interleaved").
pub const BANKS: u32 = 16;

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
        (
            mean(&self.rows.iter().map(|(_, a, _)| *a).collect::<Vec<_>>()),
            mean(&self.rows.iter().map(|(_, _, b)| *b).collect::<Vec<_>>()),
        )
    }

    /// The `(TC+2levelBTB, TC+idealBTB)` speedups of one benchmark.
    pub fn row_of(&self, name: &str) -> Option<(f64, f64)> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|(_, a, b)| (*a, *b))
    }

    /// Renders as a terminal bar chart.
    pub fn to_chart(&self) -> BarChart {
        let mut c = BarChart::new("Figure 5.3 — value-prediction speedup with a trace cache", 40);
        for (name, two_level, ideal) in &self.rows {
            c.row(name.clone(), &[("TC+2levelBTB", *two_level), ("TC+idealBTB", *ideal)]);
        }
        c
    }

    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Figure 5.3 — value-prediction speedup with a trace cache",
            &["benchmark", "TC+2levelBTB", "TC+idealBTB"],
        );
        for (name, two_level, ideal) in &self.rows {
            t.row(&[name.clone(), pct(*two_level), pct(*ideal)]);
        }
        let (a2, ai) = self.averages();
        t.row(&["avg".into(), pct(a2), pct(ai)]);
        t
    }
}

/// The base/VP machine pair for one BTB choice.
fn config_pair(btb: BtbKind) -> [MachineConfig; 2] {
    let fe = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb };
    [
        MachineConfig::Realistic(RealisticConfig::paper(fe, VpConfig::None)),
        MachineConfig::Realistic(
            RealisticConfig::paper(fe, VpConfig::stride_infinite())
                .with_banked(BankedConfig::new(BANKS)),
        ),
    ]
}

/// Runs the experiment on a [`Sweep`], one job per (benchmark, BTB) cell.
///
/// Matching the paper's figure, whose x-axis includes the SPECfp benchmark
/// `mgrid` alongside the integer suite, this runner uses the extended
/// suite (the only consumer of the trace cache's ninth slot).
pub fn run_with(sweep: &Sweep) -> Fig53Result {
    let configs: Vec<MachineConfig> =
        [BtbKind::two_level_paper(), BtbKind::Perfect].into_iter().flat_map(config_pair).collect();
    let rows = sweep
        .machines_extended(&configs)
        .into_iter()
        .map(|(n, r)| (n.to_string(), r[1].speedup_over(&r[0]), r[3].speedup_over(&r[2])))
        .collect();
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
