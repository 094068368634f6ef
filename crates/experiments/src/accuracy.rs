//! Per-benchmark value-prediction accuracy — the style of table the
//! paper's own technical reports (\[7\], \[8\]) use to characterize
//! predictors before the machine-level studies.

use fetchvp_predictor::{
    ConfidenceConfig, FcmPredictor, HybridPredictor, LastValuePredictor, PredictorStats,
    StridePredictor, TableGeometry, ValuePredictor,
};

use fetchvp_tracestore::TraceSource;
use fetchvp_workloads::Workload;

use crate::report::{pct, Table};
use crate::sweep::{fold_slots, Sweep};

/// The predictors compared (in column order).
pub const PREDICTORS: [&str; 4] = ["last-value", "stride", "hybrid", "fcm"];

fn build_predictors() -> [Box<dyn ValuePredictor>; 4] {
    [
        Box::new(LastValuePredictor::new(TableGeometry::Infinite, ConfidenceConfig::paper())),
        Box::new(StridePredictor::infinite()),
        Box::new(HybridPredictor::paper()),
        Box::new(FcmPredictor::infinite()),
    ]
}

/// Per-benchmark, per-predictor statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyResult {
    /// `(benchmark, stats[predictor])` in suite order, predictors in
    /// [`PREDICTORS`] order.
    pub rows: Vec<(String, [PredictorStats; 4])>,
}

impl AccuracyResult {
    /// The stats of one benchmark/predictor pair.
    pub fn stats_of(&self, benchmark: &str, predictor: &str) -> Option<PredictorStats> {
        let col = PREDICTORS.iter().position(|p| *p == predictor)?;
        self.rows.iter().find(|(n, _)| n == benchmark).map(|(_, s)| s[col])
    }

    /// Renders as a markdown table (`coverage / accuracy` per cell).
    pub fn to_table(&self) -> Table {
        let headers: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(PREDICTORS.iter().map(|p| format!("{p} (cov/acc)")))
            .collect();
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Value-prediction coverage and accuracy per benchmark (2-bit classification)",
            &headers_ref,
        );
        for (name, stats) in &self.rows {
            let mut cells = vec![name.clone()];
            cells.extend(
                stats.iter().map(|s| format!("{} / {}", pct(s.coverage()), pct(s.accuracy()))),
            );
            t.row(&cells);
        }
        t
    }
}

/// Runs every predictor over every benchmark's value stream on a
/// [`Sweep`], one job per benchmark (the four predictors share a single
/// pass over the trace).
pub fn run_with(sweep: &Sweep) -> AccuracyResult {
    let rows = sweep.per_workload(predictor_stats);
    AccuracyResult { rows: rows.into_iter().map(|(n, s)| (n.to_string(), s)).collect() }
}

/// One benchmark's statistics, predictors in [`PREDICTORS`] order.
pub(crate) fn predictor_stats(workload: &Workload, source: &TraceSource) -> [PredictorStats; 4] {
    let predictors = fold_slots(workload, source, build_predictors(), |predictors, rec| {
        if rec.produces_value() {
            for p in predictors.iter_mut() {
                let predicted = p.lookup(rec.pc());
                p.commit(rec.pc(), rec.result(), predicted);
            }
        }
    });
    predictors.map(|p| p.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig { trace_len: 20_000, ..ExperimentConfig::default() }
    }

    #[test]
    fn stride_dominates_on_the_strided_outliers() {
        let r = run_with(&Sweep::serial(&cfg()));
        for bench in ["m88ksim", "vortex"] {
            let stride = r.stats_of(bench, "stride").unwrap();
            let last = r.stats_of(bench, "last-value").unwrap();
            assert!(
                stride.coverage() > last.coverage(),
                "{bench}: stride cov {:.2} <= last-value {:.2}",
                stride.coverage(),
                last.coverage()
            );
        }
    }

    #[test]
    fn classified_predictions_are_accurate_everywhere() {
        let r = run_with(&Sweep::serial(&cfg()));
        for (name, stats) in &r.rows {
            // The classification unit's whole job: whatever is predicted,
            // is predicted well.
            let stride = stats[1];
            if stride.predictions > 100 {
                assert!(stride.accuracy() > 0.85, "{name}: stride acc {:.2}", stride.accuracy());
            }
        }
    }

    #[test]
    fn table_shape() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.to_table().num_rows(), 8);
        assert!(r.stats_of("go", "fcm").is_some());
        assert!(r.stats_of("go", "nonesuch").is_none());
    }
}
