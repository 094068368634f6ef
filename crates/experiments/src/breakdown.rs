//! Retire-slot attribution: where every cycle goes, with and without value
//! prediction.
//!
//! The paper's story in one table: a fetch-limited machine loses its slots
//! to *fetch starvation* and value prediction cannot help; a
//! bandwidth-rich machine loses them to *dataflow stalls*, which value
//! prediction converts into retirement. Uses the event-driven machine,
//! which attributes every retire slot (see
//! [`fetchvp_core::CycleBreakdown`]).

use fetchvp_core::event::EventMachine;
use fetchvp_core::{BtbKind, CycleBreakdown, FrontEnd, RealisticConfig, VpConfig};

use crate::report::{pct, Table};
use crate::sweep::Sweep;

/// Per-benchmark slot attribution for baseline and VP machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakdownResult {
    /// `(benchmark, baseline attribution, VP attribution)` in suite order.
    pub rows: Vec<(String, CycleBreakdown, CycleBreakdown)>,
}

impl BreakdownResult {
    /// The `(baseline, VP)` attribution of one benchmark.
    pub fn row_of(&self, name: &str) -> Option<(CycleBreakdown, CycleBreakdown)> {
        self.rows.iter().find(|(n, ..)| n == name).map(|&(_, b, v)| (b, v))
    }

    /// Renders as a markdown table (fractions of all retire slots).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Retire-slot attribution (event machine, 4 taken branches/cycle, 2-level BTB)",
            &[
                "benchmark",
                "config",
                "retiring",
                "dataflow stall",
                "fetch starved",
                "mispredict stall",
            ],
        );
        for (name, base, vp) in &self.rows {
            for (config, b) in [("baseline", base), ("stride VP", vp)] {
                t.row(&[
                    name.clone(),
                    config.to_string(),
                    pct(b.fraction(b.retiring)),
                    pct(b.fraction(b.dataflow_stall)),
                    pct(b.fraction(b.fetch_starved)),
                    pct(b.fraction(b.mispredict_stall)),
                ]);
            }
        }
        t
    }
}

/// Runs the attribution for the whole suite on a [`Sweep`], one job per
/// (benchmark, config) cell.
pub fn run_with(sweep: &Sweep) -> BreakdownResult {
    let fe =
        FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::two_level_paper() };
    let configs = [VpConfig::None, VpConfig::stride_infinite()];
    // The event machine is the kernel-independent oracle: it runs over a
    // whole resident trace, not the kernel's windowed feed.
    sweep.cache().assert_resident();
    let rows = sweep.cells(&configs, |_, source, &vp| {
        let trace = source.resident().expect("asserted resident above");
        EventMachine::new(RealisticConfig::paper(fe, vp))
            .run(trace)
            .cycle_breakdown
            .expect("event machine attributes slots")
    });
    BreakdownResult { rows: rows.into_iter().map(|(n, b)| (n.to_string(), b[0], b[1])).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig { trace_len: 20_000, ..ExperimentConfig::default() }
    }

    #[test]
    fn attributions_cover_every_slot() {
        let r = run_with(&Sweep::serial(&cfg()));
        assert_eq!(r.rows.len(), 8);
        for (name, base, vp) in &r.rows {
            assert!(base.total() > 0, "{name}");
            // VP retires the same instruction count in (hopefully) fewer
            // slots-total; both attributions must be complete.
            assert_eq!(base.retiring, vp.retiring, "{name}: same retired work");
            assert!(vp.total() <= base.total() + 40, "{name}: VP should not add slots");
        }
    }

    #[test]
    fn vp_reduces_dataflow_stalls_where_it_speeds_up() {
        let r = run_with(&Sweep::serial(&cfg()));
        let (base, vp) = r.row_of("vortex").expect("vortex in suite");
        assert!(
            vp.dataflow_stall < base.dataflow_stall,
            "vortex dataflow slots {} -> {}",
            base.dataflow_stall,
            vp.dataflow_stall
        );
    }

    #[test]
    fn table_shape() {
        let r = run_with(&Sweep::serial(&ExperimentConfig {
            trace_len: 5_000,
            ..ExperimentConfig::default()
        }));
        assert_eq!(r.to_table().num_rows(), 16); // 8 benchmarks x 2 configs
    }
}
