//! Figure 3.5 — the distribution of data dependencies according to their
//! value predictability and DID.
//!
//! Paper shape: ≈23% of dependencies (average) are predictable with DID < 4
//! (exploitable by a 4-wide machine); the predictable-and-long fraction is
//! ≈40% for m88ksim and >55% for vortex versus ≈20–25% elsewhere.

use crate::report::{pct, Table};
use crate::sweep::Sweep;
use crate::{did_analysis, mean};

/// One benchmark's predictability breakdown (fractions of all arcs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredRow {
    /// Producer instance not correctly predicted.
    pub unpredictable: f64,
    /// Predictable with DID < 4.
    pub predictable_short: f64,
    /// Predictable with DID ≥ 4.
    pub predictable_long: f64,
}

/// Per-benchmark predictability × DID breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig35Result {
    /// `(benchmark, breakdown)` in suite order.
    pub rows: Vec<(String, PredRow)>,
}

impl Fig35Result {
    /// The breakdown of one benchmark.
    pub fn row_of(&self, name: &str) -> Option<PredRow> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, r)| *r)
    }

    /// Suite-average fraction predictable with DID < 4 (paper: ≈23%).
    pub fn average_predictable_short(&self) -> f64 {
        mean(&self.rows.iter().map(|(_, r)| r.predictable_short).collect::<Vec<_>>())
    }

    /// Renders the figure as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Figure 3.5 — dependencies by value predictability and DID",
            &["benchmark", "unpredictable", "predictable DID<4", "predictable DID>=4"],
        );
        for (name, r) in &self.rows {
            t.row(&[
                name.clone(),
                pct(r.unpredictable),
                pct(r.predictable_short),
                pct(r.predictable_long),
            ]);
        }
        t
    }
}

/// Runs the experiment on a [`Sweep`], one job per benchmark.
pub fn run_with(sweep: &Sweep) -> Fig35Result {
    let rows = sweep.per_workload(|w, source| {
        let p = did_analysis(w, source).predictability;
        PredRow {
            unpredictable: 1.0 - p.fraction_predictable(),
            predictable_short: p.fraction_predictable_short(4),
            predictable_long: p.fraction_predictable_long(4),
        }
    });
    Fig35Result { rows: rows.into_iter().map(|(n, r)| (n.to_string(), r)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn fractions_sum_to_one() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 20_000,
            ..ExperimentConfig::default()
        }));
        for (name, row) in &r.rows {
            let sum = row.unpredictable + row.predictable_short + row.predictable_long;
            assert!((sum - 1.0).abs() < 1e-9, "{name}: fractions sum to {sum}");
        }
    }

    #[test]
    fn m88ksim_and_vortex_lead_in_predictable_long_dependencies() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let long = |n: &str| r.row_of(n).unwrap().predictable_long;
        let others = ["go", "gcc", "compress", "li", "ijpeg", "perl"];
        let other_max = others.iter().map(|n| long(n)).fold(f64::NEG_INFINITY, f64::max);
        assert!(long("m88ksim") > other_max, "m88ksim {:.2} <= {other_max:.2}", long("m88ksim"));
        assert!(long("vortex") > other_max, "vortex {:.2} <= {other_max:.2}", long("vortex"));
        // Vortex is the extreme case in the paper (>55%).
        assert!(long("vortex") > 0.45, "vortex predictable-long {:.2}", long("vortex"));
    }

    #[test]
    fn short_predictable_fraction_is_modest_on_average() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let avg = r.average_predictable_short();
        // Paper: ≈23% on average. Accept a band.
        assert!((0.05..=0.40).contains(&avg), "avg predictable-short {avg:.2}");
    }
}
