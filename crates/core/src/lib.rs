//! Machine models reproducing Gabbay & Mendelson, *"The Effect of
//! Instruction Fetch Bandwidth on Value Prediction"*, ISCA 1998.
//!
//! Two execution models are provided:
//!
//! * [`IdealMachine`] (§3) — an implementation-independent limit model that
//!   is "only limited by true-data dependencies in the program and the
//!   instruction window size", with the fetch/issue rate artificially capped
//!   at 4–40 instructions per cycle. It reproduces Figure 3.1 and the
//!   pipeline walk-through of Table 3.2.
//! * [`RealisticMachine`] (§5) — a 40-entry-window, 40-unit machine with
//!   register renaming, a pluggable fetch engine (taken-branch-limited
//!   conventional fetch or trace cache), a pluggable branch predictor
//!   (3-cycle misprediction penalty) and value prediction with a 1-cycle
//!   value-misprediction penalty. It reproduces Figures 5.1–5.3.
//!
//! A third, [`event`]-driven realization of the §5 machine cross-validates
//! the analytic one with explicit per-cycle structures and fetch-queue
//! back-pressure.
//!
//! Both primary machines are thin wrappers over the [`batch`] kernel:
//! [`run_batch`] advances many configurations in lockstep over a single
//! trace walk, and configurations with the same predictor share one
//! value-prediction stream. Both use the dataflow [`sched`]uling core and
//! follow the paper's pipeline of Table 3.2 (Fetch → Decode/Issue →
//! Execute → Commit, unit execution latency).
//!
//! Modelling notes (see `DESIGN.md` for the full list):
//!
//! * True dependencies are carried through registers; memory disambiguation
//!   is assumed perfect and store-to-load forwarding free, matching the
//!   paper's dataflow-graph analysis, which is built over register
//!   dependencies.
//! * Wrong-path instructions are not simulated; a branch misprediction
//!   stalls fetch until the branch executes plus the 3-cycle penalty.
//!
//! # Example
//!
//! Measure the value-prediction speedup of an ideal fetch-16 machine:
//!
//! ```
//! use fetchvp_core::{IdealConfig, IdealMachine, VpConfig};
//! use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
//! use fetchvp_trace::trace_program;
//!
//! # fn main() -> Result<(), fetchvp_isa::ProgramError> {
//! let mut b = ProgramBuilder::new("chain");
//! b.load_imm(Reg::R1, 0);
//! b.load_imm(Reg::R2, 10_000);
//! let head = b.bind_label("head");
//! b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 3); // strided chain
//! b.branch(Cond::Lt, Reg::R1, Reg::R2, head);
//! b.halt();
//! let trace = trace_program(&b.build()?, 100_000);
//!
//! let base = IdealMachine::new(IdealConfig { fetch_rate: 16, vp: VpConfig::None, ..IdealConfig::default() });
//! let vp = IdealMachine::new(IdealConfig { fetch_rate: 16, vp: VpConfig::stride_infinite(), ..IdealConfig::default() });
//! let (b_res, v_res) = (base.run(&trace), vp.run(&trace));
//! assert!(v_res.ipc() > b_res.ipc());
//! # Ok(())
//! # }
//! ```

// Public API of the hot path: every item must explain itself.
#![deny(missing_docs)]

pub mod batch;
pub mod event;
pub mod ideal;
pub mod realistic;
pub mod sched;
pub mod vp;

pub use batch::{run_batch, BatchRunner, MachineConfig, ProgressSink};
pub use event::EventMachine;
pub use ideal::{pipeline_trace, IdealConfig, IdealMachine, StageTimes};
pub use realistic::{BtbKind, FrontEnd, RealisticConfig, RealisticMachine};
pub use sched::{DepStats, SchedStats, UsefulnessStats};
pub use vp::{PredictorKind, VpConfig};

use std::fmt;

use fetchvp_bpred::BpredStats;
use fetchvp_fetch::{BacStats, TraceCacheStats};
use fetchvp_metrics::{MetricsSink, Registry};
use fetchvp_predictor::{BankedStats, PredictorStats};

/// Attribution of every *retire slot* (issue width × cycles) to the
/// resource that filled or squandered it, as recorded by the event-driven
/// machine (the analytic models do not step cycles and leave this `None`).
///
/// This is the classic simulator cycle-accounting view of the paper's
/// story: value prediction converts `dataflow_stall` slots into `retiring`
/// ones — but only the slots that fetch bandwidth actually delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Slots that retired an instruction.
    pub retiring: u64,
    /// Slots lost while fetch waited on a mispredicted branch.
    pub mispredict_stall: u64,
    /// Slots lost with an empty window and queue (fetch bandwidth).
    pub fetch_starved: u64,
    /// Slots lost while in-flight instructions waited on true data
    /// dependencies — the stall value prediction attacks.
    pub dataflow_stall: u64,
}

impl CycleBreakdown {
    /// Total attributed slots.
    pub fn total(&self) -> u64 {
        self.retiring + self.mispredict_stall + self.fetch_starved + self.dataflow_stall
    }

    /// The fraction of slots attributed to `count`.
    pub fn fraction(&self, count: u64) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            count as f64 / self.total() as f64
        }
    }
}

impl MetricsSink for CycleBreakdown {
    fn export_metrics(&self, reg: &mut Registry, prefix: &str) {
        reg.counter(prefix, "retiring", self.retiring);
        reg.counter(prefix, "mispredict_stall", self.mispredict_stall);
        reg.counter(prefix, "fetch_starved", self.fetch_starved);
        reg.counter(prefix, "dataflow_stall", self.dataflow_stall);
    }
}

/// The outcome of one machine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineResult {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Value-predictor statistics, when value prediction was enabled.
    pub vp_stats: Option<PredictorStats>,
    /// Dependence-level usefulness classification.
    pub deps: DepStats,
    /// Per-prediction usefulness attribution (first-consumer rule). All
    /// zero when value prediction is off.
    pub usefulness: UsefulnessStats,
    /// Consumers replayed due to a value misprediction (1-cycle penalty).
    pub value_replays: u64,
    /// Branch-predictor statistics (realistic machine only).
    pub bpred_stats: Option<BpredStats>,
    /// Trace-cache statistics (realistic machine with trace cache only).
    pub trace_cache_stats: Option<TraceCacheStats>,
    /// Banked prediction front-end statistics (when the §4 front-end is in
    /// use).
    pub banked_stats: Option<BankedStats>,
    /// Branch-address-cache statistics (realistic machine with the §2.2
    /// BAC front-end only).
    pub bac_stats: Option<BacStats>,
    /// Per-cycle stall attribution (event machine only).
    pub cycle_breakdown: Option<CycleBreakdown>,
}

impl MachineResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Exports every statistic this run produced into one namespaced
    /// [`Registry`] snapshot.
    ///
    /// Sections present on every run: `machine.*` (instructions, cycles,
    /// IPC) and `sched.*` (scheduling and dependence-classification
    /// counters). Optional sections appear when the corresponding hardware
    /// was configured: `predictor.*` (value predictor),
    /// `predictor.banked.*` (§4 banked front-end), `fetch.bpred.*`,
    /// `fetch.trace_cache.*`, `fetch.bac.*` and `machine.slots.*` (event
    /// machine cycle accounting).
    ///
    /// ```
    /// use fetchvp_core::{IdealConfig, IdealMachine, VpConfig};
    /// use fetchvp_isa::{ProgramBuilder, Reg};
    /// use fetchvp_trace::trace_program;
    ///
    /// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
    /// let mut b = ProgramBuilder::new("p");
    /// b.load_imm(Reg::R1, 1);
    /// b.halt();
    /// let trace = trace_program(&b.build()?, 10);
    /// let cfg = IdealConfig { vp: VpConfig::stride_infinite(), ..IdealConfig::default() };
    /// let reg = IdealMachine::new(cfg).run(&trace).metrics();
    /// assert_eq!(reg.get_counter("machine.instructions"), Some(1));
    /// assert!(reg.get_counter("predictor.lookups").is_some());
    /// # Ok(())
    /// # }
    /// ```
    pub fn metrics(&self) -> Registry {
        let mut reg = Registry::new();
        reg.counter("machine", "instructions", self.instructions);
        reg.counter("machine", "cycles", self.cycles);
        reg.gauge("machine", "ipc", self.ipc());
        let sched = SchedStats {
            instructions: self.instructions,
            last_complete: self.cycles,
            value_replays: self.value_replays,
            deps: self.deps,
        };
        sched.export_metrics(&mut reg, "sched");
        if let Some(s) = &self.vp_stats {
            s.export_metrics(&mut reg, "predictor");
        }
        // Prediction-level attribution: `predictor.useful` /
        // `predictor.useless` (summing to the correct predictions) and the
        // DID histograms under `machine.did_hist.*`. Omitted entirely when
        // no prediction was made, like the other optional sections.
        if self.vp_stats.is_some() || self.usefulness != UsefulnessStats::default() {
            self.usefulness.export(&mut reg);
        }
        if let Some(s) = &self.banked_stats {
            s.export_metrics(&mut reg, "predictor.banked");
        }
        if let Some(s) = &self.bpred_stats {
            s.export_metrics(&mut reg, "fetch.bpred");
        }
        if let Some(s) = &self.trace_cache_stats {
            s.export_metrics(&mut reg, "fetch.trace_cache");
        }
        if let Some(s) = &self.bac_stats {
            s.export_metrics(&mut reg, "fetch.bac");
        }
        if let Some(s) = &self.cycle_breakdown {
            s.export_metrics(&mut reg, "machine.slots");
        }
        reg
    }

    /// The speedup of `self` over `baseline` (same workload, same fetch
    /// configuration, value prediction off), expressed as a fraction:
    /// `0.5` means 50% faster, the unit the paper's figures use.
    ///
    /// # Panics
    ///
    /// Panics if the two results ran different instruction counts.
    pub fn speedup_over(&self, baseline: &MachineResult) -> f64 {
        assert_eq!(
            self.instructions, baseline.instructions,
            "speedup requires identical workloads"
        );
        if self.cycles == 0 {
            return 0.0;
        }
        baseline.cycles as f64 / self.cycles as f64 - 1.0
    }
}

impl fmt::Display for MachineResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions in {} cycles (IPC {:.2})",
            self.instructions,
            self.cycles,
            self.ipc()
        )?;
        if let Some(s) = &self.vp_stats {
            writeln!(
                f,
                "value prediction : coverage {:.1}%, accuracy {:.1}%, {} replays",
                100.0 * s.coverage(),
                100.0 * s.accuracy(),
                self.value_replays
            )?;
        }
        let d = self.deps;
        writeln!(
            f,
            "dependencies     : {} total — {} useful, {} correct-but-useless, {} wrong, {} unpredicted",
            d.total, d.useful, d.useless_correct, d.wrong, d.unpredicted
        )?;
        let u = &self.usefulness;
        if u.useful + u.useless > 0 {
            writeln!(
                f,
                "prediction use   : {} useful, {} useless ({:.1}% useful)",
                u.useful,
                u.useless,
                100.0 * u.useful_fraction()
            )?;
        }
        if let Some(b) = &self.bpred_stats {
            writeln!(
                f,
                "branch prediction: {:.1}% ({:.1}% conditional)",
                100.0 * b.accuracy(),
                100.0 * b.cond_accuracy()
            )?;
        }
        if let Some(tc) = &self.trace_cache_stats {
            writeln!(
                f,
                "trace cache      : {:.1}% hit rate, {} fills",
                100.0 * tc.hit_rate(),
                tc.fills
            )?;
        }
        if let Some(bk) = &self.banked_stats {
            writeln!(f, "banked predictor : {bk}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_mentions_ipc() {
        let r = MachineResult { instructions: 100, cycles: 50, ..MachineResult::default() };
        let text = r.to_string();
        assert!(text.contains("IPC 2.00"), "{text}");
        assert!(text.contains("dependencies"));
    }

    #[test]
    fn ipc_and_speedup() {
        let base = MachineResult { instructions: 100, cycles: 200, ..MachineResult::default() };
        let fast = MachineResult { instructions: 100, cycles: 100, ..MachineResult::default() };
        assert!((base.ipc() - 0.5).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 1.0).abs() < 1e-12);
        assert!((base.speedup_over(&base)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "identical workloads")]
    fn speedup_rejects_mismatched_runs() {
        let a = MachineResult { instructions: 10, cycles: 10, ..MachineResult::default() };
        let b = MachineResult { instructions: 20, cycles: 10, ..MachineResult::default() };
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn zero_cycles_guards() {
        let z = MachineResult::default();
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.speedup_over(&z), 0.0);
    }
}
