//! The §5 realistic machine model.

use fetchvp_bpred::{GshareBtb, GshareConfig, PerfectBtb, TwoLevelBtb, TwoLevelConfig};
use fetchvp_fetch::{
    BacConfig, BacFetch, ConventionalFetch, FetchEngine, TraceCacheConfig, TraceCacheFetch,
};
use fetchvp_predictor::BankedConfig;
use fetchvp_trace::Trace;
use fetchvp_tracing::EventSink;

use crate::vp::VpConfig;
use crate::MachineResult;

/// Which branch predictor the front-end uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BtbKind {
    /// The ideal branch predictor.
    Perfect,
    /// The 2-level PAp BTB (2K entries, 2-way, 4-bit history by default).
    TwoLevel(TwoLevelConfig),
    /// A gshare predictor — the "tuned BTB" of §5's closing remark.
    Gshare(GshareConfig),
}

impl BtbKind {
    /// The paper's realistic BTB.
    pub fn two_level_paper() -> BtbKind {
        BtbKind::TwoLevel(TwoLevelConfig::paper())
    }
}

/// The fetch front-end of the realistic machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// Conventional fetch: up to `width` instructions and up to `max_taken`
    /// taken transfers per cycle (`None` = unlimited, the paper's
    /// "unlimited" sweep point).
    Conventional {
        /// Instructions per cycle.
        width: usize,
        /// Taken-transfer allowance per cycle (the paper's `n`).
        max_taken: Option<u32>,
        /// Branch predictor.
        btb: BtbKind,
    },
    /// The trace cache of §5 (Figure 5.3).
    TraceCache {
        /// Cache geometry and policies.
        config: TraceCacheConfig,
        /// Branch predictor.
        btb: BtbKind,
    },
    /// The branch address cache of §2.2 (reference \[28\]).
    BranchAddressCache {
        /// Front-end geometry.
        config: BacConfig,
        /// Branch predictor.
        btb: BtbKind,
    },
}

impl FrontEnd {
    pub(crate) fn build(&self) -> Box<dyn FetchEngine> {
        match *self {
            FrontEnd::Conventional { width, max_taken, btb } => match btb {
                BtbKind::Perfect => {
                    Box::new(ConventionalFetch::new(width, max_taken, PerfectBtb::new()))
                }
                BtbKind::TwoLevel(cfg) => {
                    Box::new(ConventionalFetch::new(width, max_taken, TwoLevelBtb::new(cfg)))
                }
                BtbKind::Gshare(cfg) => {
                    Box::new(ConventionalFetch::new(width, max_taken, GshareBtb::new(cfg)))
                }
            },
            FrontEnd::TraceCache { config, btb } => match btb {
                BtbKind::Perfect => Box::new(TraceCacheFetch::new(config, PerfectBtb::new())),
                BtbKind::TwoLevel(cfg) => {
                    Box::new(TraceCacheFetch::new(config, TwoLevelBtb::new(cfg)))
                }
                BtbKind::Gshare(cfg) => Box::new(TraceCacheFetch::new(config, GshareBtb::new(cfg))),
            },
            FrontEnd::BranchAddressCache { config, btb } => match btb {
                BtbKind::Perfect => Box::new(BacFetch::new(config, PerfectBtb::new())),
                BtbKind::TwoLevel(cfg) => Box::new(BacFetch::new(config, TwoLevelBtb::new(cfg))),
                BtbKind::Gshare(cfg) => Box::new(BacFetch::new(config, GshareBtb::new(cfg))),
            },
        }
    }
}

/// Configuration of the [`RealisticMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealisticConfig {
    /// Instruction-window entries ("a finite instruction window of 40
    /// instructions").
    pub window: usize,
    /// Decode/issue width ("limited to up to 40 instructions").
    pub issue_width: usize,
    /// Cycles between a mispredicted branch executing and fetch resuming
    /// ("a branch misprediction penalty is 3 clock cycles").
    pub branch_penalty: u64,
    /// The fetch front-end.
    pub front_end: FrontEnd,
    /// Value-prediction mode.
    pub vp: VpConfig,
    /// Extra cycles a consumer that executed on a wrong predicted value
    /// waits beyond the correct value's availability ("value misprediction
    /// penalty is 1 clock cycle", §5).
    pub value_penalty: u64,
    /// Execution units per cycle ("40 execution units", §5 — with a
    /// 40-entry window this never binds, but smaller machines can be
    /// modelled).
    pub exec_units: Option<usize>,
    /// When `true`, loads also wait for the last store to their address
    /// (perfect disambiguation). Off by default, matching the paper.
    pub memory_deps: bool,
    /// When set, value predictions flow through the §4 banked front-end
    /// (trace addresses buffer → address router → interleaved table → value
    /// distributor), so bank conflicts deny predictions and merged same-PC
    /// requests receive the stride expansion. `None` models an
    /// unconstrained (fully ported) prediction table.
    pub banked: Option<BankedConfig>,
}

impl RealisticConfig {
    /// The paper's base machine with a given front-end and VP mode.
    pub fn paper(front_end: FrontEnd, vp: VpConfig) -> RealisticConfig {
        RealisticConfig {
            window: 40,
            issue_width: 40,
            branch_penalty: 3,
            front_end,
            vp,
            value_penalty: 1,
            exec_units: Some(40),
            memory_deps: false,
            banked: None,
        }
    }

    /// Enables the §4 banked prediction front-end.
    pub fn with_banked(mut self, banked: BankedConfig) -> RealisticConfig {
        self.banked = Some(banked);
        self
    }
}

/// The realistic machine of §5: a 40-entry window, 40 execution units,
/// register renaming, pluggable branch prediction and fetch mechanisms,
/// 3-cycle branch-misprediction penalty and 1-cycle value-misprediction
/// penalty.
///
/// Trace-driven: wrong-path instructions are not executed; a misprediction
/// stalls fetch until `branch_penalty` cycles after the offending branch
/// executes. The fetch queue between the front-end and dispatch is
/// unbounded, so the configured fetch bandwidth constrains the *average*
/// delivery rate (the quantity the paper studies) rather than introducing
/// back-pressure stalls.
///
/// # Example
///
/// ```
/// use fetchvp_core::{BtbKind, FrontEnd, RealisticConfig, RealisticMachine, VpConfig};
/// use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// let mut b = ProgramBuilder::new("loop");
/// b.load_imm(Reg::R1, 5_000);
/// let head = b.bind_label("head");
/// b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
/// b.branch(Cond::Ne, Reg::R1, Reg::R0, head);
/// b.halt();
/// let trace = trace_program(&b.build()?, u64::MAX);
///
/// let fe = FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::Perfect };
/// let base = RealisticMachine::new(RealisticConfig::paper(fe, VpConfig::None)).run(&trace);
/// let vp = RealisticMachine::new(RealisticConfig::paper(fe, VpConfig::stride_infinite())).run(&trace);
/// assert!(vp.ipc() >= base.ipc());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealisticMachine {
    config: RealisticConfig,
}

impl RealisticMachine {
    /// Creates a machine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `issue_width` is zero.
    pub fn new(config: RealisticConfig) -> RealisticMachine {
        assert!(config.window > 0, "window must be positive");
        assert!(config.issue_width > 0, "issue width must be positive");
        RealisticMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> RealisticConfig {
        self.config
    }

    /// Runs the model over a captured trace.
    pub fn run(&self, trace: &Trace) -> MachineResult {
        self.run_traced(trace, None)
    }

    /// Runs the model, streaming a cycle-level pipeline witness into `sink`
    /// when one is given: per-instruction fetch/dispatch/issue/writeback
    /// spans, per-prediction outcome instants, and address-router
    /// bank-conflict instants (banked front-end only).
    ///
    /// Passing `None` is the zero-cost disabled path — one predictable
    /// branch per instruction, no allocation, no formatting — and is
    /// exactly what [`RealisticMachine::run`] does. The event stream is
    /// deterministic: same trace, same configuration, same events.
    pub fn run_traced(&self, trace: &Trace, mut sink: Option<&mut dyn EventSink>) -> MachineResult {
        // A one-config batch through `run_batch`'s block loop, so serial
        // and batched runs cannot diverge.
        let view = trace.view();
        let mut runner = crate::BatchRunner::new(&[self.config.into()]);
        runner.advance(view, 0, view.len(), None, &mut sink);
        runner.finish().pop().expect("one result per config")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use fetchvp_trace::trace_program;
    use fetchvp_tracing::{Event, Lane};

    /// A loop with a strided dependence chain and a small body.
    fn chain_trace(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new("chain");
        b.load_imm(Reg::R1, 0);
        b.load_imm(Reg::R2, iters);
        let head = b.bind_label("head");
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 5);
        b.alu_imm(AluOp::Sub, Reg::R2, Reg::R2, 1);
        b.branch(Cond::Ne, Reg::R2, Reg::R0, head);
        b.halt();
        trace_program(&b.build().unwrap(), u64::MAX)
    }

    fn conventional(max_taken: Option<u32>, btb: BtbKind) -> FrontEnd {
        FrontEnd::Conventional { width: 40, max_taken, btb }
    }

    fn run(fe: FrontEnd, vp: VpConfig, trace: &Trace) -> MachineResult {
        RealisticMachine::new(RealisticConfig::paper(fe, vp)).run(trace)
    }

    #[test]
    fn more_taken_branches_per_cycle_means_more_ipc() {
        let t = chain_trace(3_000);
        let one = run(conventional(Some(1), BtbKind::Perfect), VpConfig::Perfect, &t);
        let four = run(conventional(Some(4), BtbKind::Perfect), VpConfig::Perfect, &t);
        let unlimited = run(conventional(None, BtbKind::Perfect), VpConfig::Perfect, &t);
        assert!(one.ipc() < four.ipc());
        assert!(four.ipc() <= unlimited.ipc() + 1e-9);
    }

    #[test]
    fn vp_speedup_grows_with_taken_branch_allowance() {
        let t = chain_trace(5_000);
        let mut speedups = Vec::new();
        for n in [Some(1), Some(2), Some(4), None] {
            let base = run(conventional(n, BtbKind::Perfect), VpConfig::None, &t);
            let vp = run(conventional(n, BtbKind::Perfect), VpConfig::stride_infinite(), &t);
            speedups.push(vp.speedup_over(&base));
        }
        for w in speedups.windows(2) {
            assert!(w[1] >= w[0] - 0.02, "speedups not (weakly) monotone: {speedups:?}");
        }
        assert!(speedups[0] < *speedups.last().unwrap(), "{speedups:?}");
    }

    #[test]
    fn realistic_btb_is_no_faster_than_perfect() {
        let t = chain_trace(3_000);
        let perfect = run(conventional(Some(4), BtbKind::Perfect), VpConfig::None, &t);
        let real = run(conventional(Some(4), BtbKind::two_level_paper()), VpConfig::None, &t);
        assert!(real.cycles >= perfect.cycles);
        let bp = real.bpred_stats.expect("bpred stats present");
        assert!(bp.accuracy() < 1.0); // the loop exit always mispredicts once
    }

    #[test]
    fn branch_penalty_costs_cycles() {
        let t = chain_trace(2_000);
        let fe = conventional(Some(4), BtbKind::two_level_paper());
        let base = RealisticMachine::new(RealisticConfig {
            branch_penalty: 0,
            ..RealisticConfig::paper(fe, VpConfig::None)
        })
        .run(&t);
        let penalized = RealisticMachine::new(RealisticConfig {
            branch_penalty: 10,
            ..RealisticConfig::paper(fe, VpConfig::None)
        })
        .run(&t);
        assert!(penalized.cycles > base.cycles);
    }

    #[test]
    fn trace_cache_front_end_runs_and_reports_stats() {
        let t = chain_trace(3_000);
        let fe = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::Perfect };
        let r = run(fe, VpConfig::stride_infinite(), &t);
        let tc = r.trace_cache_stats.expect("trace cache stats present");
        assert!(tc.hit_rate() > 0.5, "hit rate {:.2}", tc.hit_rate());
        assert_eq!(r.instructions, t.len() as u64);
    }

    #[test]
    fn trace_cache_beats_single_taken_branch_fetch() {
        let t = chain_trace(5_000);
        let conv = run(conventional(Some(1), BtbKind::Perfect), VpConfig::Perfect, &t);
        let tc = run(
            FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::Perfect },
            VpConfig::Perfect,
            &t,
        );
        assert!(
            tc.ipc() > conv.ipc(),
            "trace cache {:.2} vs conventional {:.2}",
            tc.ipc(),
            conv.ipc()
        );
    }

    #[test]
    fn banked_front_end_denies_some_predictions_under_trace_cache() {
        let t = chain_trace(5_000);
        let fe = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::Perfect };
        let cfg = RealisticConfig::paper(fe, VpConfig::stride_infinite())
            .with_banked(BankedConfig::new(4));
        let r = RealisticMachine::new(cfg).run(&t);
        let banked = r.banked_stats.expect("banked stats present");
        assert!(banked.slots > 0);
        // The 3-instruction loop body maps its value producers to fixed
        // banks; multi-iteration trace lines produce merges.
        assert!(banked.merged > 0, "{banked:?}");
    }

    #[test]
    fn banked_with_one_bank_loses_performance() {
        let t = chain_trace(5_000);
        let fe = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::Perfect };
        let unconstrained =
            RealisticMachine::new(RealisticConfig::paper(fe, VpConfig::stride_infinite())).run(&t);
        let one_bank = RealisticMachine::new(
            RealisticConfig::paper(fe, VpConfig::stride_infinite())
                .with_banked(BankedConfig::new(1)),
        )
        .run(&t);
        assert!(one_bank.cycles >= unconstrained.cycles);
        assert!(one_bank.banked_stats.unwrap().denied > 0);
    }

    #[test]
    fn all_instructions_are_scheduled_exactly_once() {
        let t = chain_trace(1_000);
        for fe in [
            conventional(Some(1), BtbKind::Perfect),
            conventional(None, BtbKind::two_level_paper()),
            FrontEnd::TraceCache {
                config: TraceCacheConfig::paper(),
                btb: BtbKind::two_level_paper(),
            },
        ] {
            let r = run(fe, VpConfig::stride_infinite(), &t);
            assert_eq!(r.instructions, t.len() as u64);
        }
    }

    #[test]
    fn run_traced_matches_run_and_emits_all_pipeline_lanes() {
        let t = chain_trace(500);
        let fe = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::Perfect };
        let cfg = RealisticConfig::paper(fe, VpConfig::stride_infinite())
            .with_banked(BankedConfig::new(1));
        let machine = RealisticMachine::new(cfg);
        let plain = machine.run(&t);
        let mut events: Vec<Event> = Vec::new();
        let traced = machine.run_traced(&t, Some(&mut events));
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        // Four spans per instruction.
        let spans = events.iter().filter(|e| e.kind == fetchvp_tracing::EventKind::Span).count();
        assert_eq!(spans as u64, 4 * traced.instructions);
        for lane in [Lane::Fetch, Lane::Dispatch, Lane::Issue, Lane::Writeback, Lane::Predict] {
            assert!(events.iter().any(|e| e.lane == lane), "no events in {lane:?}");
        }
        // One bank forces conflicts on this workload (denied > 0 asserted
        // in `banked_with_one_bank_loses_performance`).
        assert!(events.iter().any(|e| e.lane == Lane::BankConflict));
    }

    #[test]
    fn usefulness_attribution_covers_all_correct_predictions() {
        let t = chain_trace(2_000);
        for banked in [None, Some(BankedConfig::new(2))] {
            let fe = conventional(Some(4), BtbKind::two_level_paper());
            let mut cfg = RealisticConfig::paper(fe, VpConfig::stride_infinite());
            cfg.banked = banked;
            let r = RealisticMachine::new(cfg).run(&t);
            let s = r.vp_stats.as_ref().expect("vp stats present");
            assert_eq!(
                r.usefulness.useful + r.usefulness.useless,
                s.correct,
                "attribution must cover every correct prediction (banked: {banked:?})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let fe = conventional(None, BtbKind::Perfect);
        RealisticMachine::new(RealisticConfig {
            window: 0,
            ..RealisticConfig::paper(fe, VpConfig::None)
        });
    }
}
