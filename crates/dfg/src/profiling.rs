//! Profiling-based value-predictability classification.
//!
//! §4.2 of the paper notes that the hybrid predictor "can be assisted by
//! opcode hints, inserted by the compiler, in order to classify
//! instructions to each of the prediction tables according to their value
//! predictability patterns", citing the authors' MICRO-30 paper *"Can
//! Program Profiling Support Value Prediction?"* (reference \[9\]).
//!
//! This module is that profiling pass: it replays a training trace through
//! both fundamental predictors and classifies every static instruction by
//! which (if either) predicts it well. The resulting
//! [`fetchvp_predictor::hybrid::HintClass`] map plugs directly
//! into [`fetchvp_predictor::HybridPredictor::with_hints`].

use std::collections::HashMap;

use fetchvp_predictor::hybrid::HintClass;
use fetchvp_predictor::{
    ConfidenceConfig, LastValuePredictor, StridePredictor, TableGeometry, ValuePredictor,
};
use fetchvp_trace::{Slot, Trace};

/// Per-PC profiling statistics gathered by a [`Profiler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcProfile {
    /// Dynamic instances observed.
    pub instances: u64,
    /// Instances the (ungated) last-value predictor got right.
    pub last_value_correct: u64,
    /// Instances the (ungated) stride predictor got right.
    pub stride_correct: u64,
}

impl PcProfile {
    /// Last-value accuracy for this PC.
    pub fn last_value_accuracy(&self) -> f64 {
        ratio(self.last_value_correct, self.instances)
    }

    /// Stride accuracy for this PC.
    pub fn stride_accuracy(&self) -> f64 {
        ratio(self.stride_correct, self.instances)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The profiling pass as a forward fold: feed a training trace's slots in
/// order through ungated last-value and stride predictors, recording
/// per-PC accuracies.
#[derive(Debug)]
pub struct Profiler {
    lvp: LastValuePredictor,
    svp: StridePredictor,
    profiles: HashMap<u64, PcProfile>,
}

impl Profiler {
    /// Feeds one dynamic instruction (must be called in trace order).
    pub fn feed(&mut self, rec: Slot<'_>) {
        if !rec.produces_value() {
            return;
        }
        let (pc, result) = (rec.pc(), rec.result());
        let p = self.profiles.entry(pc).or_default();
        p.instances += 1;
        let lp = self.lvp.lookup(pc);
        self.lvp.commit(pc, result, lp);
        p.last_value_correct += u64::from(lp == Some(result));
        let sp = self.svp.lookup(pc);
        self.svp.commit(pc, result, sp);
        p.stride_correct += u64::from(sp == Some(result));
    }

    /// The per-PC profiles gathered so far.
    pub fn finish(self) -> HashMap<u64, PcProfile> {
        self.profiles
    }
}

impl Default for Profiler {
    /// A profiler with empty predictors.
    fn default() -> Profiler {
        Profiler {
            lvp: LastValuePredictor::new(
                TableGeometry::Infinite,
                ConfidenceConfig::always_predict(),
            ),
            svp: StridePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict()),
            profiles: HashMap::new(),
        }
    }
}

/// Converts per-PC profiles into hybrid-predictor hints.
///
/// An instruction is steered to the table that predicts it at or above
/// `threshold` accuracy (the stride table wins ties, since a stride entry
/// subsumes last-value behaviour with Δ = 0); instructions below the
/// threshold on both are marked [`HintClass::NotPredictable`], which — as
/// §4.2 observes — "can significantly reduce the number of conflicts that
/// need to be resolved by the router".
pub fn hints_from_profiles(
    profiles: &HashMap<u64, PcProfile>,
    threshold: f64,
) -> HashMap<u64, HintClass> {
    profiles
        .iter()
        .map(|(&pc, p)| {
            let class = if p.stride_accuracy() >= threshold
                && p.stride_accuracy() >= p.last_value_accuracy()
            {
                HintClass::Stride
            } else if p.last_value_accuracy() >= threshold {
                HintClass::LastValue
            } else {
                HintClass::NotPredictable
            };
            (pc, class)
        })
        .collect()
}

/// Convenience: profile a training trace and emit hints in one call.
///
/// # Example
///
/// ```
/// use fetchvp_dfg::profiling::profile_hints;
/// use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
/// use fetchvp_predictor::hybrid::HintClass;
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// let mut b = ProgramBuilder::new("p");
/// b.load_imm(Reg::R1, 500);
/// let head = b.bind_label("head");
/// b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1); // strided
/// b.branch(Cond::Ne, Reg::R1, Reg::R0, head);
/// b.halt();
/// let trace = trace_program(&b.build()?, 10_000);
/// let hints = profile_hints(&trace, 0.9);
/// assert_eq!(hints.get(&1), Some(&HintClass::Stride));
/// # Ok(())
/// # }
/// ```
pub fn profile_hints(trace: &Trace, threshold: f64) -> HashMap<u64, HintClass> {
    let mut profiler = Profiler::default();
    trace.view().slots().for_each(|rec| profiler.feed(rec));
    hints_from_profiles(&profiler.finish(), threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use fetchvp_trace::trace_program;

    /// A loop with one strided, one constant and one erratic producer.
    fn mixed_trace() -> Trace {
        let mut b = ProgramBuilder::new("mixed");
        b.load_imm(Reg::R1, 2_000);
        let head = b.bind_label("head");
        b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1); // pc 1: strided
        b.load_imm(Reg::R2, 42); // pc 2: constant
        b.alu_imm(AluOp::Shl, Reg::R3, Reg::R1, 13); // pc 3: affine of R1 (strided-ish)
        b.alu(AluOp::Xor, Reg::R4, Reg::R4, Reg::R3); // pc 4: erratic accumulator
        b.branch(Cond::Ne, Reg::R1, Reg::R0, head);
        b.halt();
        trace_program(&b.build().unwrap(), 50_000)
    }

    #[test]
    fn profiles_measure_both_predictors() {
        let mut profiler = Profiler::default();
        mixed_trace().view().slots().for_each(|rec| profiler.feed(rec));
        let p = profiler.finish();
        // pc 1 (counter): stride-perfect after warm-up, last-value-hostile.
        let counter = p[&1];
        assert!(counter.stride_accuracy() > 0.99, "{counter:?}");
        assert!(counter.last_value_accuracy() < 0.01, "{counter:?}");
        // pc 2 (constant): both predict it.
        let constant = p[&2];
        assert!(constant.last_value_accuracy() > 0.99);
        assert!(constant.stride_accuracy() > 0.99);
    }

    #[test]
    fn hints_classify_by_pattern() {
        let hints = profile_hints(&mixed_trace(), 0.9);
        assert_eq!(hints[&1], HintClass::Stride);
        // The constant is claimed by the stride table (Δ = 0 subsumes it).
        assert_eq!(hints[&2], HintClass::Stride);
        assert_eq!(hints[&4], HintClass::NotPredictable);
    }

    #[test]
    fn threshold_one_rejects_warmup_misses() {
        // With threshold 1.0 even the strided counter fails (its first two
        // instances are unpredictable), so everything is NotPredictable.
        let hints = profile_hints(&mixed_trace(), 1.0);
        assert_eq!(hints[&1], HintClass::NotPredictable);
    }

    #[test]
    fn hints_feed_the_hybrid_predictor() {
        use fetchvp_predictor::HybridPredictor;
        let trace = mixed_trace();
        let hints = profile_hints(&trace, 0.9);
        let mut hinted = HybridPredictor::paper().with_hints(hints);
        for rec in &trace {
            if rec.produces_value() {
                let predicted = hinted.lookup(rec.pc);
                hinted.commit(rec.pc, rec.result, predicted);
            }
        }
        let s = hinted.stats();
        assert!(s.accuracy() > 0.95, "hinted hybrid accuracy {:.2}", s.accuracy());
        // The erratic accumulator never reaches the tables: no wrong
        // predictions wasted on it.
        assert!(s.coverage() < 0.9);
    }

    #[test]
    fn empty_trace_produces_no_hints() {
        let mut b = ProgramBuilder::new("empty");
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 10);
        assert!(profile_hints(&trace, 0.5).is_empty());
    }
}
