//! Figure 3.4 — the distribution of dependencies according to their DID.
//!
//! Paper shape: "approximately 60% (on average) of the true-data
//! dependencies span across instructions in a greater or equal distance of
//! 4 instructions".

use fetchvp_dfg::DidHistogram;

use crate::report::{pct, Table};
use crate::sweep::Sweep;
use crate::{did_analysis, mean};

/// Per-benchmark DID histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig34Result {
    /// `(benchmark, histogram)` in suite order.
    pub rows: Vec<(String, DidHistogram)>,
}

impl Fig34Result {
    /// The suite-average fraction with DID ≥ 4 (the paper's ≈60%).
    pub fn average_long_fraction(&self) -> f64 {
        mean(&self.rows.iter().map(|(_, h)| h.fraction_at_least(4)).collect::<Vec<_>>())
    }

    /// Renders the figure as a markdown table (one bin per column).
    pub fn to_table(&self) -> Table {
        let labels: Vec<String> =
            (0..DidHistogram::NUM_BINS).map(DidHistogram::bin_label).collect();
        let headers: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(labels)
            .chain(std::iter::once(">=4 total".to_string()))
            .collect();
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new("Figure 3.4 — distribution of dependencies by DID", &headers_ref);
        for (name, hist) in &self.rows {
            let mut cells = vec![name.clone()];
            cells.extend((0..DidHistogram::NUM_BINS).map(|i| pct(hist.fraction(i))));
            cells.push(pct(hist.fraction_at_least(4)));
            t.row(&cells);
        }
        t
    }
}

/// Runs the experiment on a [`Sweep`], one job per benchmark.
pub fn run_with(sweep: &Sweep) -> Fig34Result {
    let rows = sweep.per_workload(|w, source| did_analysis(w, source).histogram);
    Fig34Result { rows: rows.into_iter().map(|(n, h)| (n.to_string(), h)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn long_dependencies_dominate_on_average() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let avg = r.average_long_fraction();
        // The paper reports ≈60%; accept a generous band around it.
        assert!((0.40..=0.85).contains(&avg), "average DID>=4 fraction {avg:.2}");
    }

    #[test]
    fn histograms_are_nonempty_for_every_benchmark() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 10_000,
            ..ExperimentConfig::default()
        }));
        for (name, h) in &r.rows {
            assert!(h.total() > 1_000, "{name}: too few arcs");
        }
        assert_eq!(r.to_table().num_rows(), 8);
    }
}
