//! Trace summary statistics.

use std::fmt;

use fetchvp_metrics::{FxHashSet, MetricsSink, Registry};

use crate::columns::{Slot, TraceView};
use crate::record::DynInstr;

/// Instruction-mix and control-flow statistics for a dynamic trace.
///
/// These are the trace-level quantities the paper's results actually depend
/// on (taken-branch density bounds the effective fetch rate; the
/// value-producing fraction bounds how many instructions a value predictor
/// can serve), and they are used by the workload tests to check that each
/// synthetic benchmark behaves like its SPECint95 counterpart.
///
/// # Example
///
/// ```
/// use fetchvp_isa::{ProgramBuilder, Reg};
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// let mut b = ProgramBuilder::new("p");
/// b.load_imm(Reg::R1, 1);
/// b.halt();
/// let stats = trace_program(&b.build()?, 10).stats();
/// assert_eq!(stats.total, 1);
/// assert_eq!(stats.value_producing, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub total: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Control-flow instructions retired (branches, jumps, calls).
    pub control: u64,
    /// Conditional branches retired.
    pub cond_branches: u64,
    /// Conditional branches that were taken.
    pub taken_cond_branches: u64,
    /// Control instructions that redirected the PC (taken branches, jumps,
    /// calls, indirect jumps).
    pub taken_control: u64,
    /// Instructions that wrote a (non-zero) destination register.
    pub value_producing: u64,
    /// Distinct static PCs touched.
    pub static_footprint: u64,
}

impl TraceStats {
    /// Computes statistics over a columnar trace view (zero-copy).
    pub fn from_view(view: TraceView<'_>) -> TraceStats {
        let mut accum = StatsAccum::new();
        view.slots().for_each(|slot| accum.push(slot));
        accum.finish()
    }

    /// Computes statistics over a record slice (cold-path convenience;
    /// prefer [`TraceStats::from_view`]).
    pub fn from_records(records: &[DynInstr]) -> TraceStats {
        TraceStats::from_view(crate::columns::TraceColumns::from_records(records).view())
    }

    /// Fraction of instructions that redirect control flow when executed.
    pub fn taken_control_rate(&self) -> f64 {
        ratio(self.taken_control, self.total)
    }

    /// Average number of instructions between consecutive taken control
    /// transfers — the mean *dynamic* basic-block length, which bounds the
    /// contiguous-fetch rate of a conventional front-end.
    pub fn avg_run_length(&self) -> f64 {
        if self.taken_control == 0 {
            self.total as f64
        } else {
            self.total as f64 / self.taken_control as f64
        }
    }

    /// Fraction of conditional branches that were taken.
    pub fn taken_branch_rate(&self) -> f64 {
        ratio(self.taken_cond_branches, self.cond_branches)
    }

    /// Fraction of instructions that produce a register value.
    pub fn value_producing_rate(&self) -> f64 {
        ratio(self.value_producing, self.total)
    }
}

/// A streaming accumulator for [`TraceStats`], for traces visited one
/// window at a time (e.g. chunked replay from an on-disk store, where the
/// whole trace never materializes). Per-window counts are pure sums; the
/// distinct-PC set is carried across windows so `static_footprint` matches
/// a single whole-trace pass exactly. The set is bounded by the program's
/// static footprint, not the trace length, so the accumulator stays small.
///
/// [`TraceStats::from_view`] is the one-shot form of this.
#[derive(Debug, Default)]
pub struct StatsAccum {
    stats: TraceStats,
    pcs: FxHashSet<u64>,
}

impl StatsAccum {
    /// An empty accumulator.
    pub fn new() -> StatsAccum {
        StatsAccum::default()
    }

    /// Folds one slot into the running statistics.
    #[inline]
    pub fn push(&mut self, r: Slot<'_>) {
        let s = &mut self.stats;
        s.total += 1;
        self.pcs.insert(r.pc());
        if r.is_mem() {
            if r.produces_value() {
                s.loads += 1;
            } else {
                s.stores += 1;
            }
        }
        if r.is_control() {
            s.control += 1;
            if r.taken() {
                s.taken_control += 1;
            }
            if r.is_cond_branch() {
                s.cond_branches += 1;
                if r.taken() {
                    s.taken_cond_branches += 1;
                }
            }
        }
        if r.produces_value() {
            s.value_producing += 1;
        }
    }

    /// The accumulated statistics.
    pub fn finish(self) -> TraceStats {
        TraceStats { static_footprint: self.pcs.len() as u64, ..self.stats }
    }
}

impl MetricsSink for TraceStats {
    fn export_metrics(&self, reg: &mut Registry, prefix: &str) {
        reg.counter(prefix, "instructions", self.total);
        reg.counter(prefix, "loads", self.loads);
        reg.counter(prefix, "stores", self.stores);
        reg.counter(prefix, "control", self.control);
        reg.counter(prefix, "cond_branches", self.cond_branches);
        reg.counter(prefix, "taken_cond_branches", self.taken_cond_branches);
        reg.counter(prefix, "taken_control", self.taken_control);
        reg.counter(prefix, "value_producing", self.value_producing);
        reg.counter(prefix, "static_footprint", self.static_footprint);
        reg.gauge(prefix, "taken_control_rate", self.taken_control_rate());
        reg.gauge(prefix, "avg_run_length", self.avg_run_length());
        reg.gauge(prefix, "value_producing_rate", self.value_producing_rate());
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instructions     : {}", self.total)?;
        writeln!(f, "loads / stores   : {} / {}", self.loads, self.stores)?;
        writeln!(
            f,
            "control (taken)  : {} ({:.1}%)",
            self.control,
            100.0 * self.taken_control_rate()
        )?;
        writeln!(f, "avg run length   : {:.2}", self.avg_run_length())?;
        writeln!(
            f,
            "value-producing  : {} ({:.1}%)",
            self.value_producing,
            100.0 * self.value_producing_rate()
        )?;
        write!(f, "static footprint : {}", self.static_footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};

    use crate::trace_program;

    #[test]
    fn loop_statistics() {
        let mut b = ProgramBuilder::new("loop");
        b.load_imm(Reg::R1, 4);
        let head = b.bind_label("head");
        b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
        b.branch(Cond::Ne, Reg::R1, Reg::R0, head);
        b.halt();
        let stats = trace_program(&b.build().unwrap(), 1000).stats();
        assert_eq!(stats.total, 1 + 4 * 2);
        assert_eq!(stats.cond_branches, 4);
        assert_eq!(stats.taken_cond_branches, 3);
        assert_eq!(stats.taken_control, 3);
        assert_eq!(stats.static_footprint, 3);
        assert!((stats.taken_branch_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn run_length_with_no_taken_control_is_trace_length() {
        let mut b = ProgramBuilder::new("straight");
        for _ in 0..10 {
            b.nop();
        }
        b.halt();
        let stats = trace_program(&b.build().unwrap(), 1000).stats();
        assert_eq!(stats.avg_run_length(), 10.0);
    }

    #[test]
    fn memory_ops_are_split_into_loads_and_stores() {
        let mut b = ProgramBuilder::new("mem");
        b.load_imm(Reg::R1, 0x100);
        b.store(Reg::R1, Reg::R1, 0);
        b.load(Reg::R2, Reg::R1, 0);
        b.halt();
        let stats = trace_program(&b.build().unwrap(), 1000).stats();
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        // load_imm, load produce values; store does not.
        assert_eq!(stats.value_producing, 2);
    }

    #[test]
    fn windowed_accumulation_matches_single_pass() {
        let mut b = ProgramBuilder::new("loop");
        b.load_imm(Reg::R1, 0x200);
        let head = b.bind_label("head");
        b.store(Reg::R1, Reg::R1, 0);
        b.load(Reg::R2, Reg::R1, 0);
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 8);
        b.branch(Cond::Ne, Reg::R1, Reg::R0, head);
        b.halt();
        let t = trace_program(&b.build().unwrap(), 997);
        let whole = TraceStats::from_view(t.view());
        for window in [1, 7, 256, t.len()] {
            let mut accum = StatsAccum::new();
            let mut start = 0;
            while start < t.len() {
                let end = (start + window).min(t.len());
                t.view().slots_in(start..end).for_each(|slot| accum.push(slot));
                start = end;
            }
            assert_eq!(accum.finish(), whole, "window {window}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        let stats = TraceStats::default();
        assert!(!stats.to_string().is_empty());
    }

    #[test]
    fn ratios_guard_against_zero_denominator() {
        let stats = TraceStats::default();
        assert_eq!(stats.taken_branch_rate(), 0.0);
        assert_eq!(stats.value_producing_rate(), 0.0);
    }
}
