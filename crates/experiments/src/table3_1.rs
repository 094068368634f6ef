//! Table 3.1 — the SPECint95 benchmark suite, plus measured trace
//! characteristics of the synthetic stand-ins.

use fetchvp_trace::StatsAccum;
use fetchvp_tracestore::TraceSource;
use fetchvp_workloads::Workload;

use crate::report::{num, Table};
use crate::sweep::{fold_slots, Sweep};

/// Per-benchmark descriptions and trace statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Table31Result {
    /// `(name, description, instructions, taken-control %, value-producing %,
    /// avg run length)` in suite order.
    pub rows: Vec<(String, String, u64, f64, f64, f64)>,
}

impl Table31Result {
    /// Renders as a markdown table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Table 3.1 — Spec95 integer benchmarks (synthetic stand-ins)",
            &[
                "benchmark",
                "description",
                "instructions",
                "taken ctl %",
                "value-producing %",
                "avg run",
            ],
        );
        for (name, desc, instrs, taken, vp, run) in &self.rows {
            t.row(&[
                name.clone(),
                desc.clone(),
                instrs.to_string(),
                num(100.0 * taken),
                num(100.0 * vp),
                num(*run),
            ]);
        }
        t
    }
}

/// Runs the measurement on a [`Sweep`], one job per benchmark.
pub fn run_with(sweep: &Sweep) -> Table31Result {
    Table31Result { rows: sweep.per_workload(row).into_iter().map(|(_, row)| row).collect() }
}

/// One benchmark's row: trace statistics from one forward walk.
pub(crate) fn row(
    workload: &Workload,
    source: &TraceSource,
) -> (String, String, u64, f64, f64, f64) {
    let s = fold_slots(workload, source, StatsAccum::new(), StatsAccum::push).finish();
    (
        workload.name().to_string(),
        workload.description().to_string(),
        s.total,
        s.taken_control_rate(),
        s.value_producing_rate(),
        s.avg_run_length(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    #[test]
    fn lists_all_eight_benchmarks_with_descriptions() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.rows.len(), 8);
        assert!(r.rows.iter().all(|(_, desc, ..)| !desc.is_empty()));
        let t = r.to_table();
        assert!(t.to_string().contains("Lisp interpreter"));
    }
}
