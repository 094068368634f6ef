//! The §3 ideal (implementation-independent) machine model.

use fetchvp_trace::Trace;

use crate::sched::Scheduler;
use crate::vp::{ValueStream, VpConfig};
use crate::MachineResult;

/// Configuration of the [`IdealMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdealConfig {
    /// Fetch/issue rate in instructions per cycle (the paper sweeps
    /// 4, 8, 16, 32, 40).
    pub fetch_rate: usize,
    /// Instruction-window size ("limited to up to 40 instructions").
    pub window: usize,
    /// Value-prediction mode.
    pub vp: VpConfig,
    /// Execution units per cycle. `None` (the default) matches §3.1's
    /// "free from structural resources conflicts".
    pub exec_units: Option<usize>,
    /// When `true`, loads also wait for the last store to their address.
    /// §3's model considers register dataflow only, so the default is
    /// `false`.
    pub memory_deps: bool,
}

impl Default for IdealConfig {
    fn default() -> IdealConfig {
        IdealConfig {
            fetch_rate: 4,
            window: 40,
            vp: VpConfig::None,
            exec_units: None,
            memory_deps: false,
        }
    }
}

/// The ideal execution model of §3.1: free from control dependencies, name
/// dependencies and structural conflicts, limited only by true data
/// dependencies, the instruction window and an artificial fetch/issue rate.
///
/// Instruction `i` is fetched in cycle `i / fetch_rate` (the number of taken
/// branches per cycle is unlimited), dispatches the following cycle subject
/// to window occupancy, and executes with unit latency when its operands are
/// ready — or immediately, when its operands were correctly value-predicted.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct IdealMachine {
    config: IdealConfig,
}

impl IdealMachine {
    /// Creates a machine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `fetch_rate` or `window` is zero.
    pub fn new(config: IdealConfig) -> IdealMachine {
        assert!(config.fetch_rate > 0, "fetch rate must be positive");
        assert!(config.window > 0, "window must be positive");
        IdealMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> IdealConfig {
        self.config
    }

    /// Runs the model over a captured trace.
    ///
    /// This is a single-config [`crate::run_batch`]: both paths drive the
    /// same per-slot pipeline stepper, so batched and serial runs are
    /// byte-identical by construction.
    pub fn run(&self, trace: &Trace) -> MachineResult {
        crate::batch::run_batch(trace, &[crate::batch::MachineConfig::Ideal(self.config)])
            .pop()
            .expect("one result per config")
    }
}

/// Stage times of one instruction, in the 1-based cycle numbering of the
/// paper's Table 3.2 (fetch of the first group happens in cycle 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTimes {
    /// Position in the dynamic stream.
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Fetch cycle.
    pub fetch: u64,
    /// Decode/issue cycle.
    pub decode: u64,
    /// Execute cycle.
    pub execute: u64,
    /// Commit cycle.
    pub commit: u64,
}

/// Reproduces the paper's Table 3.2: the cycle-by-cycle progress of a short
/// instruction sequence through the 4-stage pipeline of the ideal machine.
///
/// # Example
///
/// Reproduce the paper's example — a machine with fetch/issue width 4 and a
/// perfect value predictor (the paper's assumption for the walk-through):
///
/// ```
/// use fetchvp_core::{pipeline_trace, VpConfig};
/// use fetchvp_isa::{AluOp, Instr, ProgramBuilder, Reg};
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// // The 8-instruction DFG of Figure 3.2 (dependencies via registers).
/// let mut b = ProgramBuilder::new("fig32");
/// b.load_imm(Reg::R1, 1); // 1
/// b.alu_imm(AluOp::Add, Reg::R2, Reg::R1, 1); // 2: dep on 1 (DID 1)
/// b.load_imm(Reg::R3, 3); // 3
/// b.alu_imm(AluOp::Add, Reg::R4, Reg::R2, 1); // 4: dep on 2 (DID 2)
/// b.alu_imm(AluOp::Add, Reg::R5, Reg::R1, 1); // 5: dep on 1 (DID 4)
/// b.alu_imm(AluOp::Add, Reg::R6, Reg::R5, 1); // 6: dep on 5 (DID 1)
/// b.alu_imm(AluOp::Add, Reg::R7, Reg::R3, 1); // 7: dep on 3 (DID 4)
/// b.alu_imm(AluOp::Add, Reg::R8, Reg::R7, 1); // 8: dep on 7 (DID 1)
/// b.halt();
/// let trace = trace_program(&b.build()?, 100);
/// let stages = pipeline_trace(&trace, 4, VpConfig::Perfect);
/// // Exactly the table: group 1 fetches in cycle 1, decodes in 2,
/// // executes in 3 (value prediction collapses the chains), commits in 4.
/// assert!(stages[..4].iter().all(|s| (s.fetch, s.decode, s.execute, s.commit) == (1, 2, 3, 4)));
/// assert!(stages[4..8].iter().all(|s| (s.fetch, s.decode, s.execute, s.commit) == (2, 3, 4, 5)));
/// # Ok(())
/// # }
/// ```
pub fn pipeline_trace(trace: &Trace, fetch_rate: usize, vp: VpConfig) -> Vec<StageTimes> {
    assert!(fetch_rate > 0, "fetch rate must be positive");
    let mut sched = Scheduler::new(40, Some(fetch_rate));
    let mut stream = ValueStream::new(vp);
    trace
        .view()
        .slots()
        .map(|rec| {
            let fetch_cycle = (rec.index() / fetch_rate) as u64;
            let t = sched.schedule(rec, fetch_cycle, stream.disposition(rec));
            StageTimes {
                seq: rec.seq(),
                pc: rec.pc(),
                fetch: fetch_cycle + 1,
                decode: t.dispatch + 1,
                execute: t.execute + 1,
                commit: t.complete + 1,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use fetchvp_trace::trace_program;

    /// A strided dependence chain: every iteration's add depends on the
    /// previous one, but the values are perfectly stride-predictable.
    fn chain_trace(iters: i64) -> Trace {
        let mut b = ProgramBuilder::new("chain");
        b.load_imm(Reg::R1, 0);
        b.load_imm(Reg::R2, iters);
        let head = b.bind_label("head");
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 7);
        b.alu_imm(AluOp::Sub, Reg::R2, Reg::R2, 1);
        b.branch(Cond::Ne, Reg::R2, Reg::R0, head);
        b.halt();
        trace_program(&b.build().unwrap(), u64::MAX)
    }

    fn run(fetch_rate: usize, vp: VpConfig, trace: &Trace) -> MachineResult {
        IdealMachine::new(IdealConfig { fetch_rate, window: 40, vp, ..IdealConfig::default() })
            .run(trace)
    }

    #[test]
    fn ipc_is_bounded_by_fetch_rate() {
        let t = chain_trace(5_000);
        for rate in [4, 8, 16] {
            let r = run(rate, VpConfig::Perfect, &t);
            assert!(r.ipc() <= rate as f64 + 1e-9, "rate {rate}: ipc {}", r.ipc());
        }
    }

    #[test]
    fn perfect_vp_reaches_the_fetch_bound_on_serial_code() {
        let t = chain_trace(5_000);
        let r = run(8, VpConfig::Perfect, &t);
        assert!(r.ipc() > 7.5, "ipc {}", r.ipc());
    }

    #[test]
    fn vp_speedup_grows_with_fetch_rate() {
        let t = chain_trace(20_000);
        let mut speedups = Vec::new();
        for rate in [4, 8, 16, 32] {
            let base = run(rate, VpConfig::None, &t);
            let vp = run(rate, VpConfig::stride_infinite(), &t);
            speedups.push(vp.speedup_over(&base));
        }
        for w in speedups.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "speedups not monotone: {speedups:?}");
        }
        assert!(*speedups.last().unwrap() > 0.3, "high-bandwidth speedup too small: {speedups:?}");
    }

    #[test]
    fn baseline_and_vp_run_the_same_instruction_count() {
        let t = chain_trace(1_000);
        let base = run(16, VpConfig::None, &t);
        let vp = run(16, VpConfig::stride_infinite(), &t);
        assert_eq!(base.instructions, vp.instructions);
        assert_eq!(base.instructions, t.len() as u64);
    }

    #[test]
    fn perfect_vp_is_at_least_as_fast_as_real_vp() {
        let t = chain_trace(2_000);
        let real = run(16, VpConfig::stride_infinite(), &t);
        let perfect = run(16, VpConfig::Perfect, &t);
        assert!(perfect.cycles <= real.cycles);
    }

    #[test]
    fn vp_never_slows_down_serial_chains_substantially() {
        // The 1-cycle replay penalty can cost a little, but on a stride-
        // predictable chain VP must win.
        let t = chain_trace(5_000);
        let base = run(32, VpConfig::None, &t);
        let vp = run(32, VpConfig::stride_infinite(), &t);
        assert!(vp.cycles < base.cycles);
    }

    #[test]
    fn deps_classification_tracks_fetch_bandwidth() {
        // At fetch 4 the window rarely holds producer and consumer of the
        // same dependence together, so correct predictions are largely
        // useless; at fetch 40 they become useful.
        let t = chain_trace(10_000);
        let narrow = run(4, VpConfig::Perfect, &t);
        let wide = run(40, VpConfig::Perfect, &t);
        assert!(wide.deps.useful > narrow.deps.useful);
    }

    #[test]
    fn vp_stats_are_reported_for_real_predictors_only() {
        let t = chain_trace(100);
        assert!(run(4, VpConfig::None, &t).vp_stats.is_none());
        assert!(run(4, VpConfig::Perfect, &t).vp_stats.is_none());
        let r = run(4, VpConfig::stride_infinite(), &t);
        let s = r.vp_stats.expect("stride predictor reports stats");
        assert!(s.lookups > 0);
    }

    #[test]
    fn usefulness_attribution_covers_all_correct_predictions() {
        let t = chain_trace(2_000);
        let narrow = run(4, VpConfig::stride_infinite(), &t);
        let s = narrow.vp_stats.as_ref().expect("stride predictor reports stats");
        assert_eq!(narrow.usefulness.useful + narrow.usefulness.useless, s.correct);
        let wide = run(40, VpConfig::stride_infinite(), &t);
        let ws = wide.vp_stats.as_ref().unwrap();
        assert_eq!(wide.usefulness.useful + wide.usefulness.useless, ws.correct);
        // DID samples exist only for consumed predictions.
        let u = &narrow.usefulness;
        assert!(u.did_useful.count() + u.did_useless.count() <= s.correct);
        assert!(u.useful > 0, "a stride chain exploits its predictions");
    }

    #[test]
    #[should_panic(expected = "fetch rate must be positive")]
    fn zero_fetch_rate_panics() {
        IdealMachine::new(IdealConfig { fetch_rate: 0, ..IdealConfig::default() });
    }

    #[test]
    fn pipeline_trace_without_vp_serializes_chains() {
        let mut b = ProgramBuilder::new("p");
        b.load_imm(Reg::R1, 1);
        b.alu_imm(AluOp::Add, Reg::R2, Reg::R1, 1);
        b.alu_imm(AluOp::Add, Reg::R3, Reg::R2, 1);
        b.halt();
        let t = trace_program(&b.build().unwrap(), 10);
        let stages = pipeline_trace(&t, 4, VpConfig::None);
        assert_eq!(stages[0].execute, 3);
        assert_eq!(stages[1].execute, 4); // waits for 0
        assert_eq!(stages[2].execute, 5); // waits for 1
    }
}
