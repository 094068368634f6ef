//! Width- and taken-branch-limited conventional fetch.

use fetchvp_bpred::{BpredStats, BranchPredictor};
use fetchvp_trace::TraceView;

use crate::{FetchEngine, FetchGroup};

/// A conventional fetch front-end.
///
/// Each cycle it fetches up to `width` consecutive-on-the-predicted-path
/// instructions, ending the group early when:
///
/// * the configured number of *taken* control transfers for one cycle has
///   been included (`max_taken`, the paper's §5 parameter `n`; `None`
///   removes the limit, as in the §3 ideal model where "the number of taken
///   branches per cycle is unlimited"), or
/// * the embedded branch predictor mispredicts a control instruction, in
///   which case the group ends at that instruction and
///   [`FetchGroup::mispredict`] is set.
///
/// # Example
///
/// ```
/// use fetchvp_bpred::PerfectBtb;
/// use fetchvp_fetch::{ConventionalFetch, FetchEngine};
/// use fetchvp_isa::{Cond, ProgramBuilder, Reg};
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// // An infinite loop over 2 instructions: every 2nd instruction is a
/// // taken branch.
/// let mut b = ProgramBuilder::new("loop");
/// let head = b.bind_label("head");
/// b.nop();
/// b.branch(Cond::Eq, Reg::R0, Reg::R0, head);
/// let trace = trace_program(&b.build()?, 64);
/// // One taken branch per cycle: the fetch group is [nop, branch].
/// let mut f = ConventionalFetch::new(16, Some(1), PerfectBtb::new());
/// assert_eq!(f.fetch(trace.view(), 0, usize::MAX).len, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConventionalFetch<P> {
    width: usize,
    max_taken: Option<u32>,
    bpred: P,
}

impl<P: BranchPredictor> ConventionalFetch<P> {
    /// Creates a front-end fetching up to `width` instructions and up to
    /// `max_taken` taken control transfers per cycle (`None` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `max_taken` is `Some(0)`.
    pub fn new(width: usize, max_taken: Option<u32>, bpred: P) -> ConventionalFetch<P> {
        assert!(width > 0, "fetch width must be positive");
        assert!(max_taken != Some(0), "a zero taken-branch allowance can never fetch past a loop");
        ConventionalFetch { width, max_taken, bpred }
    }

    /// The per-cycle instruction width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The per-cycle taken-transfer allowance.
    pub fn max_taken(&self) -> Option<u32> {
        self.max_taken
    }
}

impl<P: BranchPredictor> FetchEngine for ConventionalFetch<P> {
    fn name(&self) -> &str {
        "conventional"
    }

    fn fetch(&mut self, trace: TraceView<'_>, pos: usize, max: usize) -> FetchGroup {
        let limit = self.width.min(max).min(trace.len().saturating_sub(pos));
        let mut taken = 0u32;
        for i in 0..limit {
            let rec = trace.slot(pos + i);
            if !rec.is_control() {
                continue;
            }
            let prediction = self.bpred.predict(rec);
            self.bpred.update(rec);
            if !prediction.correct_for(rec) {
                return FetchGroup { len: i + 1, mispredict: Some(i) };
            }
            if prediction.taken {
                taken += 1;
                if Some(taken) == self.max_taken {
                    return FetchGroup { len: i + 1, mispredict: None };
                }
            }
        }
        FetchGroup { len: limit, mispredict: None }
    }

    fn bpred_stats(&self) -> BpredStats {
        self.bpred.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_bpred::{PerfectBtb, TwoLevelBtb};
    use fetchvp_isa::{Cond, ProgramBuilder, Reg};
    use fetchvp_trace::{trace_program, Trace};

    /// An infinite loop whose body is `body_nops` nops plus a taken branch.
    fn loop_trace(body_nops: usize, len: u64) -> Trace {
        let mut b = ProgramBuilder::new("loop");
        let head = b.bind_label("head");
        for _ in 0..body_nops {
            b.nop();
        }
        b.branch(Cond::Eq, Reg::R0, Reg::R0, head);
        trace_program(&b.build().unwrap(), len)
    }

    #[test]
    fn width_limits_the_group() {
        let t = loop_trace(7, 64);
        let mut f = ConventionalFetch::new(4, None, PerfectBtb::new());
        assert_eq!(f.fetch(t.view(), 0, usize::MAX), FetchGroup { len: 4, mispredict: None });
    }

    #[test]
    fn machine_capacity_caps_below_width() {
        let t = loop_trace(7, 64);
        let mut f = ConventionalFetch::new(16, None, PerfectBtb::new());
        assert_eq!(f.fetch(t.view(), 0, 3).len, 3);
    }

    #[test]
    fn taken_branch_limit_ends_the_group() {
        // Body of 2 (1 nop + branch): with max_taken = 2 the group covers
        // two full iterations.
        let t = loop_trace(1, 64);
        let mut f = ConventionalFetch::new(40, Some(2), PerfectBtb::new());
        assert_eq!(f.fetch(t.view(), 0, usize::MAX).len, 4);
    }

    #[test]
    fn unlimited_taken_branches_fetch_full_width() {
        let t = loop_trace(1, 64);
        let mut f = ConventionalFetch::new(40, None, PerfectBtb::new());
        assert_eq!(f.fetch(t.view(), 0, usize::MAX).len, 40);
    }

    #[test]
    fn untaken_branches_do_not_consume_the_allowance() {
        // A loop with an inner never-taken branch.
        let mut b = ProgramBuilder::new("p");
        let head = b.bind_label("head");
        let dead = b.label("dead");
        b.branch(Cond::Ne, Reg::R0, Reg::R0, dead); // never taken
        b.nop();
        b.branch(Cond::Eq, Reg::R0, Reg::R0, head); // always taken
        b.bind(dead);
        b.halt();
        let t = trace_program(&b.build().unwrap(), 60);
        let mut f = ConventionalFetch::new(40, Some(2), PerfectBtb::new());
        // Two iterations of 3 instructions each.
        assert_eq!(f.fetch(t.view(), 0, usize::MAX).len, 6);
    }

    #[test]
    fn misprediction_truncates_the_group() {
        let t = loop_trace(2, 64);
        // A cold 2-level BTB mispredicts the first taken branch.
        let mut f = ConventionalFetch::new(40, None, TwoLevelBtb::paper());
        let g = f.fetch(t.view(), 0, usize::MAX);
        assert_eq!(g.len, 3); // 2 nops + the mispredicted branch
        assert_eq!(g.mispredict, Some(2));
    }

    #[test]
    fn end_of_trace_bounds_the_group() {
        let t = loop_trace(1, 5);
        let mut f = ConventionalFetch::new(40, None, PerfectBtb::new());
        assert_eq!(f.fetch(t.view(), 4, usize::MAX).len, 1);
        assert_eq!(f.fetch(t.view(), 5, usize::MAX).len, 0);
    }

    #[test]
    fn groups_walk_the_whole_trace() {
        let t = loop_trace(3, 100);
        let mut f = ConventionalFetch::new(8, Some(1), PerfectBtb::new());
        let mut pos = 0;
        let mut groups = 0;
        while pos < t.len() {
            let g = f.fetch(t.view(), pos, usize::MAX);
            assert!(g.len > 0);
            pos += g.len;
            groups += 1;
        }
        assert_eq!(pos, t.len());
        // Each iteration is 4 instructions with one taken branch: one group
        // per iteration.
        assert_eq!(groups, 25);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        ConventionalFetch::new(0, None, PerfectBtb::new());
    }

    mod properties {
        use super::*;
        use fetchvp_isa::AluOp;
        use fetchvp_testutil::for_cases;

        /// A random loop nest: an outer counted loop whose body mixes nops
        /// with an inner loop.
        fn random_trace(body: usize, inner: i64, outer: i64) -> Trace {
            let mut b = ProgramBuilder::new("p");
            b.load_imm(Reg::R1, outer);
            let ohead = b.bind_label("outer");
            for _ in 0..body {
                b.nop();
            }
            b.load_imm(Reg::R2, inner);
            let ihead = b.bind_label("inner");
            b.alu_imm(AluOp::Sub, Reg::R2, Reg::R2, 1);
            b.branch(Cond::Ne, Reg::R2, Reg::R0, ihead);
            b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
            b.branch(Cond::Ne, Reg::R1, Reg::R0, ohead);
            b.halt();
            trace_program(&b.build().unwrap(), 4_000)
        }

        /// With a perfect predictor, fetch groups tile the trace, never
        /// exceed the width, and respect the taken-branch allowance.
        #[test]
        fn groups_tile_and_respect_limits() {
            for_cases(32, |case, rng| {
                let body = rng.range_usize(0, 12);
                let inner = rng.range_i64(1, 8);
                let outer = rng.range_i64(1, 40);
                let width = rng.range_usize(1, 40);
                let max_taken = if rng.flip() { Some(rng.range_u64(1, 5) as u32) } else { None };
                let trace = random_trace(body, inner, outer);
                let mut f = ConventionalFetch::new(width, max_taken, PerfectBtb::new());
                let mut pos = 0;
                while pos < trace.len() {
                    let g = f.fetch(trace.view(), pos, usize::MAX);
                    assert!(g.len > 0, "case {case}: no progress at {pos}");
                    assert!(g.len <= width, "case {case}");
                    assert_eq!(g.mispredict, None, "case {case}"); // oracle never wrong
                    let taken =
                        trace.view().slots_in(pos..pos + g.len).filter(|r| r.taken()).count()
                            as u32;
                    if let Some(limit) = max_taken {
                        assert!(taken <= limit, "case {case}: {taken} taken in a group");
                    }
                    pos += g.len;
                }
                assert_eq!(pos, trace.len(), "case {case}");
            });
        }

        /// With a real predictor, every group that does not end the trace
        /// either fills the width, stops at the allowance, or flags a
        /// misprediction at its final slot.
        #[test]
        fn truncated_groups_are_justified() {
            for_cases(32, |case, rng| {
                let body = rng.range_usize(0, 10);
                let inner = rng.range_i64(1, 6);
                let width = rng.range_usize(4, 40);
                let trace = random_trace(body, inner, 30);
                let mut f = ConventionalFetch::new(width, Some(2), TwoLevelBtb::paper());
                let mut pos = 0;
                while pos < trace.len() {
                    let g = f.fetch(trace.view(), pos, usize::MAX);
                    assert!(g.len > 0, "case {case}");
                    if let Some(k) = g.mispredict {
                        assert_eq!(k, g.len - 1, "case {case}: mispredict must end the group");
                    } else if pos + g.len < trace.len() && g.len < width {
                        let taken =
                            trace.view().slots_in(pos..pos + g.len).filter(|r| r.taken()).count()
                                as u32;
                        assert_eq!(taken, 2, "case {case}: short group without a cause");
                    }
                    pos += g.len;
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "zero taken-branch allowance")]
    fn zero_taken_allowance_panics() {
        ConventionalFetch::new(4, Some(0), PerfectBtb::new());
    }
}
