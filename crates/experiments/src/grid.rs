//! One machine grid: benchmarks × machine configurations, one number per
//! cell.
//!
//! Every speedup figure (3.1, 5.1–5.3) and most ablations have this shape.
//! A [`Grid`] is the whole experiment as data — its configurations, the
//! [`Measure`]s read from each benchmark's results, and the table layout —
//! so a new machine sweep is one function returning a `Grid` plus one
//! registry entry: see [`crate::ablations`] for ten of them.

use fetchvp_core::{MachineConfig, MachineResult, VpConfig};

use crate::chart::BarChart;
use crate::mean;
use crate::report::{num, pct, Table};
use crate::sweep::Sweep;

/// One number read from a benchmark's results, by config index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// The speedup of config `vp` over config `base`.
    Speedup {
        /// The machine measured.
        vp: usize,
        /// Its baseline.
        base: usize,
    },
    /// A config's IPC.
    Ipc(usize),
    /// A config's value-prediction coverage.
    Coverage(usize),
    /// A config's value-prediction accuracy.
    Accuracy(usize),
    /// A config's banked-table router denial rate.
    DenialRate(usize),
    /// A config's conditional-branch prediction accuracy.
    CondAccuracy(usize),
}

impl Measure {
    /// The speedup of pair `i` of baseline and VP machines laid out in
    /// turn: config `2i + 1` over config `2i`.
    pub fn pair_speedup(i: usize) -> Measure {
        Measure::Speedup { vp: 2 * i + 1, base: 2 * i }
    }

    /// Reads this measure from one benchmark's results, in config order.
    ///
    /// # Panics
    ///
    /// Panics if the config lacks the statistics the measure reads.
    fn read(self, results: &[MachineResult]) -> f64 {
        match self {
            Measure::Speedup { vp, base } => results[vp].speedup_over(&results[base]),
            Measure::Ipc(i) => results[i].ipc(),
            Measure::Coverage(i) => results[i].vp_stats.as_ref().expect("vp stats").coverage(),
            Measure::Accuracy(i) => results[i].vp_stats.as_ref().expect("vp stats").accuracy(),
            Measure::DenialRate(i) => {
                results[i].banked_stats.as_ref().expect("banked stats").denial_rate()
            }
            Measure::CondAccuracy(i) => {
                results[i].bpred_stats.as_ref().expect("bpred stats").cond_accuracy()
            }
        }
    }

    /// Formats a value of this measure: IPC as a plain number, every ratio
    /// as a percentage.
    fn format(self, value: f64) -> String {
        match self {
            Measure::Ipc(_) => num(value),
            _ => pct(value),
        }
    }
}

/// How a grid's table lays out its measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// One row per benchmark (its name, then one cell per measure), then,
    /// if `average`, an `avg` row of the column means.
    Benchmarks {
        /// Whether the table ends with the `avg` row.
        average: bool,
    },
    /// One row per swept variant: its label cells, then the suite mean of
    /// each of its measures. The measures split evenly over the variants,
    /// in order.
    Variants(Vec<Vec<String>>),
}

/// A machine experiment as data.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// The table (and chart) title.
    pub title: String,
    /// The table's column headers.
    pub headers: Vec<String>,
    /// The machines every benchmark runs, in the order the sweep receives
    /// them.
    pub configs: Vec<MachineConfig>,
    /// Runs the extended suite (with `mgrid`) rather than the integer
    /// suite.
    pub extended: bool,
    /// What each benchmark's results yield, in column order.
    pub measures: Vec<Measure>,
    /// The table layout.
    pub layout: Layout,
}

impl Grid {
    /// Runs every configuration over the suite on `sweep` and reads each
    /// benchmark's measures: per benchmark in suite order, its name and
    /// one value per measure.
    pub fn values(&self, sweep: &Sweep) -> Vec<(String, Vec<f64>)> {
        let results = if self.extended {
            sweep.machines_extended(&self.configs)
        } else {
            sweep.machines(&self.configs)
        };
        results
            .into_iter()
            .map(|(name, r)| (name.to_string(), self.measures.iter().map(|m| m.read(&r)).collect()))
            .collect()
    }

    /// Runs the grid on `sweep` and renders its table.
    pub fn run(&self, sweep: &Sweep) -> Table {
        self.table(&self.values(sweep))
    }

    /// Renders `values` (what [`Grid::values`] returned) as the grid's
    /// table.
    pub fn table(&self, values: &[(String, Vec<f64>)]) -> Table {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut t = Table::new(self.title.clone(), &headers);
        let cells = |labels: &[String], measures: &[Measure], values: &[f64]| -> Vec<String> {
            let formatted = measures.iter().zip(values).map(|(m, &v)| m.format(v));
            labels.iter().cloned().chain(formatted).collect()
        };
        match &self.layout {
            Layout::Benchmarks { average } => {
                for (name, row) in values {
                    t.row(&cells(std::slice::from_ref(name), &self.measures, row));
                }
                if *average {
                    t.row(&cells(&["avg".to_string()], &self.measures, &column_means(values)));
                }
            }
            Layout::Variants(labels) => {
                let share = self.measures.len() / labels.len();
                assert_eq!(self.measures.len() % labels.len(), 0, "uneven measures per variant");
                let means = column_means(values);
                let groups = self.measures.chunks(share).zip(means.chunks(share));
                for (labels, (measures, means)) in labels.iter().zip(groups) {
                    t.row(&cells(labels, measures, means));
                }
            }
        }
        t
    }

    /// Renders `values` as a terminal bar chart: one group per benchmark,
    /// one bar per measure, labelled by its column header.
    pub fn chart(&self, values: &[(String, Vec<f64>)]) -> BarChart {
        let mut c = BarChart::new(self.title.clone(), 40);
        for (name, row) in values {
            let bars: Vec<(&str, f64)> =
                self.headers[1..].iter().map(String::as_str).zip(row.iter().copied()).collect();
            c.row(name.clone(), &bars);
        }
        c
    }
}

/// The mean of each column of `values` across benchmarks.
pub(crate) fn column_means(values: &[(String, Vec<f64>)]) -> Vec<f64> {
    let width = values.first().map_or(0, |(_, row)| row.len());
    (0..width).map(|i| mean(&values.iter().map(|(_, row)| row[i]).collect::<Vec<_>>())).collect()
}

/// One baseline and one stride-VP machine per variant, in pairs: variant
/// `i`'s baseline is config `2i` and its VP machine config `2i + 1`
/// (read them with [`Measure::pair_speedup`]).
pub(crate) fn vp_pairs<T>(
    variants: &[T],
    machine: impl Fn(&T, VpConfig) -> MachineConfig,
) -> Vec<MachineConfig> {
    variants
        .iter()
        .flat_map(|v| [VpConfig::None, VpConfig::stride_infinite()].map(|vp| machine(v, vp)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(layout: Layout) -> Grid {
        Grid {
            title: "T".into(),
            headers: vec!["x".into(), "speedup".into(), "IPC".into()],
            configs: Vec::new(),
            extended: false,
            measures: vec![Measure::pair_speedup(0), Measure::Ipc(0)],
            layout,
        }
    }

    #[test]
    fn both_layouts_render_their_rows() {
        let values = [("a".to_string(), vec![0.25, 1.5]), ("b".to_string(), vec![0.75, 2.5])];
        let benchmarks = grid(Layout::Benchmarks { average: true });
        let csv = "x,speedup,IPC\na,25.0%,1.50\nb,75.0%,2.50\navg,50.0%,2.00\n";
        assert_eq!(benchmarks.table(&values).to_csv(), csv);
        assert_eq!(grid(Layout::Benchmarks { average: false }).table(&values).num_rows(), 2);
        let chart = benchmarks.chart(&values).to_string();
        assert!(chart.starts_with("T\n") && chart.contains("a speedup |"), "{chart}");
        assert_eq!(Measure::pair_speedup(1), Measure::Speedup { vp: 3, base: 2 });
        let variants = Grid {
            headers: vec!["variant".into(), "speedup".into()],
            measures: vec![Measure::pair_speedup(0), Measure::pair_speedup(1)],
            ..grid(Layout::Variants(vec![vec!["p".into()], vec!["q".into()]]))
        };
        assert_eq!(variants.table(&values).to_csv(), "variant,speedup\np,50.0%\nq,200.0%\n");
    }
}
