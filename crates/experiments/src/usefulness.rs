//! Prediction-usefulness breakdown vs fetch bandwidth — the §3.3 mechanism
//! as a first-class observable.
//!
//! For each benchmark, the ideal machine runs with the stride predictor at
//! fetch-4 and fetch-40, and every *correct* prediction is attributed by
//! the first-consumer rule (useful iff the consumer dispatched before the
//! producer's writeback; see [`fetchvp_core::UsefulnessStats`]). Paper
//! shape: at fetch-4 the majority of correct predictions are useless — the
//! consumer arrives after the value is architecturally ready — while at
//! fetch-40 the majority becomes useful. This is the same story Figure 3.5
//! tells statically over DFG arcs, now measured dynamically in the machine.

use fetchvp_core::{IdealConfig, MachineConfig, VpConfig};

use crate::mean;
use crate::report::{pct, Table};
use crate::sweep::Sweep;

/// The bandwidth-starved fetch rate (the paper's 4-wide machine).
pub const NARROW_FETCH: usize = 4;
/// The high-bandwidth fetch rate (the paper's 40-wide machine).
pub const WIDE_FETCH: usize = 40;

/// One benchmark's per-prediction usefulness at both fetch rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsefulnessRow {
    /// Correct predictions made (identical at both rates: the predictor
    /// sees the same trace in the same order regardless of fetch width).
    pub correct: u64,
    /// Fraction of correct predictions useful at fetch-4.
    pub useful_narrow: f64,
    /// Fraction of correct predictions useful at fetch-40.
    pub useful_wide: f64,
}

/// Per-benchmark usefulness breakdown over the nine-workload suite.
#[derive(Debug, Clone, PartialEq)]
pub struct UsefulnessResult {
    /// `(benchmark, row)` in extended-suite order (including `mgrid`).
    pub rows: Vec<(String, UsefulnessRow)>,
}

impl UsefulnessResult {
    /// The row of one benchmark.
    pub fn row_of(&self, name: &str) -> Option<UsefulnessRow> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, r)| *r)
    }

    /// Suite-average useful fraction at fetch-4.
    pub fn average_useful_narrow(&self) -> f64 {
        mean(&self.rows.iter().map(|(_, r)| r.useful_narrow).collect::<Vec<_>>())
    }

    /// Suite-average useful fraction at fetch-40.
    pub fn average_useful_wide(&self) -> f64 {
        mean(&self.rows.iter().map(|(_, r)| r.useful_wide).collect::<Vec<_>>())
    }

    /// Renders the figure as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Prediction usefulness vs fetch bandwidth (ideal machine, stride VP)",
            &["benchmark", "correct preds", "useful @ fetch-4", "useful @ fetch-40"],
        );
        for (name, r) in &self.rows {
            t.row(&[name.clone(), r.correct.to_string(), pct(r.useful_narrow), pct(r.useful_wide)]);
        }
        t.row(&[
            "average".to_string(),
            String::new(),
            pct(self.average_useful_narrow()),
            pct(self.average_useful_wide()),
        ]);
        t
    }
}

/// Runs the experiment on a [`Sweep`]: per benchmark, both fetch rates
/// advance in batched lockstep over one trace walk.
pub fn run_with(sweep: &Sweep) -> UsefulnessResult {
    let configs = [NARROW_FETCH, WIDE_FETCH].map(|rate| {
        MachineConfig::Ideal(IdealConfig {
            fetch_rate: rate,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        })
    });
    let rows = sweep
        .machines_extended(&configs)
        .into_iter()
        .map(|(name, results)| {
            let cells: Vec<(u64, f64)> = results
                .iter()
                .map(|r| {
                    let correct = r.vp_stats.as_ref().map_or(0, |s| s.correct);
                    debug_assert_eq!(r.usefulness.useful + r.usefulness.useless, correct);
                    (correct, r.usefulness.useful_fraction())
                })
                .collect();
            let [(correct, narrow), (correct_wide, wide)] =
                cells.try_into().expect("two rates per benchmark");
            assert_eq!(correct, correct_wide, "{name}: fetch rate must not change the predictor");
            (name.to_string(), UsefulnessRow { correct, useful_narrow: narrow, useful_wide: wide })
        })
        .collect();
    UsefulnessResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn covers_the_extended_suite() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.rows.len(), 9);
        assert!(r.row_of("mgrid").is_some());
        for (name, row) in &r.rows {
            assert!(row.correct > 0, "{name}: no correct predictions");
            assert!((0.0..=1.0).contains(&row.useful_narrow), "{name}");
            assert!((0.0..=1.0).contains(&row.useful_wide), "{name}");
        }
    }

    #[test]
    fn fetch_bandwidth_flips_the_usefulness_majority() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let narrow = r.average_useful_narrow();
        let wide = r.average_useful_wide();
        // The paper's qualitative claim: most correct predictions are
        // useless at fetch-4 and useful at fetch-40.
        assert!(narrow < 0.5, "fetch-4 average useful fraction {narrow:.2} >= 0.5");
        assert!(wide > 0.5, "fetch-40 average useful fraction {wide:.2} <= 0.5");
        assert!(wide > narrow, "bandwidth must increase usefulness");
    }

    #[test]
    fn table_has_one_row_per_benchmark_plus_average() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 2_000,
            ..ExperimentConfig::default()
        }));
        let text = r.to_table().to_string();
        assert_eq!(text.lines().filter(|l| l.starts_with('|')).count(), 2 + 9 + 1);
    }
}
