//! Figure 3.3 — average dynamic instruction distance per benchmark.
//!
//! Paper shape: every benchmark's average DID exceeds the 4-instruction
//! fetch width of then-current processors.

use crate::report::{num, Table};
use crate::sweep::Sweep;
use crate::{did_analysis, mean};

/// Per-benchmark average DID.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig33Result {
    /// `(benchmark, average DID)` in suite order.
    pub rows: Vec<(String, f64)>,
}

impl Fig33Result {
    /// The suite-average DID.
    pub fn average(&self) -> f64 {
        mean(&self.rows.iter().map(|(_, d)| *d).collect::<Vec<_>>())
    }

    /// The average DID of one benchmark.
    pub fn avg_did_of(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }

    /// Renders the figure as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Figure 3.3 — average dynamic instruction distance",
            &["benchmark", "avg DID"],
        );
        for (name, did) in &self.rows {
            t.row(&[name.clone(), num(*did)]);
        }
        t.row(&["avg".into(), num(self.average())]);
        t
    }
}

/// Runs the experiment on a [`Sweep`], one job per benchmark.
pub fn run_with(sweep: &Sweep) -> Fig33Result {
    let rows = sweep.per_workload(|w, source| did_analysis(w, source).avg_did());
    Fig33Result { rows: rows.into_iter().map(|(n, d)| (n.to_string(), d)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn every_benchmark_exceeds_the_4_wide_fetch() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        for (name, did) in &r.rows {
            assert!(*did > 4.0, "{name}: average DID {did:.2} not > 4");
        }
        assert!(r.average() > 4.0);
    }

    #[test]
    fn table_lists_all_benchmarks() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.to_table().num_rows(), 9);
        assert!(r.avg_did_of("vortex").is_some());
        assert!(r.avg_did_of("nonesuch").is_none());
    }
}
