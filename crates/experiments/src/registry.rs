//! The experiment registry: every figure, table and ablation as one entry.
//!
//! The CLI dispatches through it (each entry is a subcommand; `all` and
//! `ablations` run a [`Group`]), its scale gate and the daemon's job-spec
//! admission read the [`Experiment::resident`] and [`Experiment::served`]
//! flags, and the golden-identity matrix (`tests/golden_identity.rs`)
//! checks every entry's output byte for byte. Adding an experiment is one
//! entry here plus its digests in `tests/golden.json`.

use crate::chart::BarChart;
use crate::{
    ablations, accuracy, breakdown, fig3_1, fig3_3, fig3_4, fig3_5, fig5_1, fig5_2, fig5_3,
    table3_1, table3_2, usefulness, Sweep, Table,
};
use Group::{Ablation, Extra, Paper};

/// Which meta-command, if any, runs an experiment besides its own name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// One of the paper's results; `all` runs them in paper order.
    Paper,
    /// An analysis beyond the paper's figures, run only by name.
    Extra,
    /// A design-space sweep beyond the paper; `ablations` runs them all.
    Ablation,
}

impl Group {
    /// The meta-command that runs every experiment of this group.
    pub fn command(self) -> Option<&'static str> {
        match self {
            Group::Paper => Some("all"),
            Group::Extra => None,
            Group::Ablation => Some("ablations"),
        }
    }
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The CLI subcommand and job-spec name.
    pub name: &'static str,
    /// Runs the experiment and renders its table.
    pub run: fn(&Sweep) -> Table,
    /// Runs the experiment and renders its terminal bar chart (`--chart`),
    /// for the figures that have one.
    pub chart: Option<fn(&Sweep) -> BarChart>,
    /// The meta-command group.
    pub group: Group,
    /// Needs each whole trace resident in memory, so never runs beyond
    /// [`crate::MAX_IN_MEMORY_TRACE_LEN`], even with a trace directory.
    pub resident: bool,
    /// Accepted by the daemon's job specs ([`crate::JobSpec`]).
    pub served: bool,
}

impl Experiment {
    const fn new(name: &'static str, group: Group, run: fn(&Sweep) -> Table) -> Experiment {
        Experiment { name, run, chart: None, group, resident: false, served: false }
    }

    const fn charted(self, chart: fn(&Sweep) -> BarChart) -> Experiment {
        Experiment { chart: Some(chart), ..self }
    }

    const fn serve(self) -> Experiment {
        Experiment { served: true, ..self }
    }

    const fn whole_traces(self) -> Experiment {
        Experiment { resident: true, ..self }
    }

    /// Runs the experiment and renders exactly what the CLI prints: its
    /// chart when `chart` is asked for and it has one, else its table as
    /// CSV (`csv`) or markdown.
    pub fn render(&self, sweep: &Sweep, chart: bool, csv: bool) -> String {
        match self.chart.filter(|_| chart) {
            Some(chart) => format!("{}\n", chart(sweep)),
            None if csv => (self.run)(sweep).to_csv(),
            None => format!("{}\n", (self.run)(sweep)),
        }
    }
}

/// Every experiment: the paper's results in paper order, then the extra
/// analyses, then the ablations.
pub static ENTRIES: &[Experiment] = &[
    Experiment::new("table3-1", Paper, |s| table3_1::run_with(s).to_table()).serve(),
    Experiment::new("fig3-1", Paper, |s| fig3_1::run_with(s).to_table())
        .charted(|s| fig3_1::run_with(s).to_chart())
        .serve(),
    // Takes no configuration, so serving it would bypass the sweep pool
    // for no benefit.
    Experiment::new("table3-2", Paper, |_| table3_2::run().to_table()),
    Experiment::new("fig3-3", Paper, |s| fig3_3::run_with(s).to_table()).serve(),
    Experiment::new("fig3-4", Paper, |s| fig3_4::run_with(s).to_table()).serve(),
    Experiment::new("fig3-5", Paper, |s| fig3_5::run_with(s).to_table()).serve(),
    Experiment::new("fig5-1", Paper, |s| fig5_1::run_with(s).to_table())
        .charted(|s| fig5_1::run_with(s).to_chart())
        .serve(),
    Experiment::new("fig5-2", Paper, |s| fig5_2::run_with(s).to_table())
        .charted(|s| fig5_2::run_with(s).to_chart())
        .serve(),
    Experiment::new("fig5-3", Paper, |s| fig5_3::run_with(s).to_table())
        .charted(|s| fig5_3::run_with(s).to_chart())
        .serve(),
    Experiment::new("accuracy", Extra, |s| accuracy::run_with(s).to_table()).serve(),
    // The event-machine oracle runs over whole resident traces.
    Experiment::new("breakdown", Extra, |s| breakdown::run_with(s).to_table())
        .serve()
        .whole_traces(),
    Experiment::new("usefulness", Extra, |s| usefulness::run_with(s).to_table()).serve(),
    Experiment::new("ablation-banks", Ablation, |s| ablations::bank_sweep().run(s)),
    Experiment::new("ablation-window", Ablation, |s| ablations::window_sweep().run(s)),
    Experiment::new("ablation-confidence", Ablation, |s| ablations::confidence_sweep().run(s)),
    Experiment::new("ablation-predictors", Ablation, |s| ablations::predictor_comparison().run(s))
        .serve(),
    Experiment::new("ablation-partial", Ablation, |s| ablations::partial_matching().run(s)),
    Experiment::new("ablation-btb", Ablation, |s| ablations::btb_sensitivity().run(s)),
    Experiment::new("ablation-fetch", Ablation, |s| ablations::fetch_mechanisms().run(s)).serve(),
    Experiment::new("ablation-penalty", Ablation, |s| ablations::penalty_sweep().run(s)),
    Experiment::new("ablation-tc", Ablation, |s| ablations::tc_geometry().run(s)),
    Experiment::new("ablation-hints", Ablation, |s| ablations::hint_study_with(s).to_table()),
    Experiment::new("ablation-model", Ablation, |s| ablations::model_assumptions().run(s)),
    Experiment::new("ablation-seeds", Ablation, |s| ablations::seed_stability_with(s).to_table()),
];

/// The experiment named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// What the command `name` runs, in order: the one experiment of that
/// name, every experiment of the group `name` is the command of, or
/// nothing.
pub fn select(name: &str) -> Vec<&'static Experiment> {
    ENTRIES.iter().filter(|e| e.name == name || e.group.command() == Some(name)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_selects_exactly_its_entry() {
        // Unique names, none shadowing a group command.
        for entry in ENTRIES {
            assert_eq!(select(entry.name).iter().map(|e| e.name).collect::<Vec<_>>(), [entry.name]);
        }
    }

    #[test]
    fn groups_select_their_members_in_order() {
        let names = |cmd| select(cmd).iter().map(|e| e.name).collect::<Vec<_>>();
        assert_eq!(
            names("all"),
            [
                "table3-1", "fig3-1", "table3-2", "fig3-3", "fig3-4", "fig3-5", "fig5-1", "fig5-2",
                "fig5-3"
            ]
        );
        assert_eq!(names("ablations").len(), 12);
        assert_eq!(names("fig5-2"), ["fig5-2"]);
        assert!(select("fig9-9").is_empty());
        let charted: Vec<_> =
            ENTRIES.iter().filter(|e| e.chart.is_some()).map(|e| e.name).collect();
        assert_eq!(charted, ["fig3-1", "fig5-1", "fig5-2", "fig5-3"]);
    }
}
