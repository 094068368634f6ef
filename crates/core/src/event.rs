//! An explicitly cycle-stepped (event-driven) realization of the §5
//! machine, used to cross-validate [`crate::RealisticMachine`].
//!
//! [`crate::RealisticMachine`] derives stage times *analytically* (closed-form
//! dispatch/execute/complete recurrences with an unbounded fetch queue).
//! [`EventMachine`] instead steps one cycle at a time with explicit
//! structures — a **bounded fetch queue** with back-pressure on the fetch
//! engine, a reorder window with per-entry state, per-cycle execute and
//! retire limits — the way a hardware-validation simulator would. The two
//! models embody different buffering assumptions, so their cycle counts
//! differ in the third significant digit, but every ordering the paper's
//! conclusions rest on (value prediction helps, bandwidth scales the gain)
//! must agree; `tests/model_cross_validation.rs` asserts exactly that.

use fetchvp_isa::reg::NUM_REGS;
use fetchvp_trace::{Trace, NO_REG};

use crate::realistic::RealisticConfig;
use crate::sched::{DepStats, UsefulnessStats, VpDisposition};
use crate::vp::ValueStream;
use crate::{CycleBreakdown, MachineResult};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// In the window, waiting for operands.
    Waiting,
    /// Executed; result available at the recorded cycle.
    Done {
        /// Cycle the result is available / the entry may retire.
        at: u64,
    },
}

/// Per-register producer record for prediction-usefulness attribution.
/// Unlike the `producer` id array, it survives the producer's retirement
/// (carrying its disposition), so the first consumer can always classify
/// the prediction exactly — no retired-producer approximation.
#[derive(Debug, Clone, Copy)]
struct RegAttr {
    /// Entry id (= trace index) of the producing instruction.
    id: usize,
    vp: VpDisposition,
    consumed: bool,
}

#[derive(Debug, Clone)]
struct Entry {
    vp: VpDisposition,
    /// Window slots of in-flight producers (by entry id), with whether the
    /// producer's prediction lets this consumer issue early.
    srcs: Vec<(usize, VpDisposition)>,
    state: State,
    /// Set while this entry executed on a not-yet-verified wrong value.
    speculative_on: Vec<usize>,
}

/// The event-driven §5 machine.
///
/// Shares [`RealisticConfig`] with the analytic model; the additional
/// `fetch_queue` capacity (in instructions) is fixed at twice the issue
/// width, a typical decode-buffer depth.
///
/// # Example
///
/// ```
/// use fetchvp_core::event::EventMachine;
/// use fetchvp_core::{BtbKind, FrontEnd, RealisticConfig, VpConfig};
/// use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// let mut b = ProgramBuilder::new("loop");
/// b.load_imm(Reg::R1, 2_000);
/// let head = b.bind_label("head");
/// b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
/// b.branch(Cond::Ne, Reg::R1, Reg::R0, head);
/// b.halt();
/// let trace = trace_program(&b.build()?, u64::MAX);
/// let fe = FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::Perfect };
/// let r = EventMachine::new(RealisticConfig::paper(fe, VpConfig::stride_infinite())).run(&trace);
/// assert_eq!(r.instructions, trace.len() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EventMachine {
    config: RealisticConfig,
}

impl EventMachine {
    /// Creates a machine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `issue_width` is zero, or if the configuration
    /// requests the banked §4 front-end (the event model keeps value
    /// prediction per-instruction; use [`crate::RealisticMachine`] for
    /// banked studies).
    pub fn new(config: RealisticConfig) -> EventMachine {
        assert!(config.window > 0, "window must be positive");
        assert!(config.issue_width > 0, "issue width must be positive");
        assert!(config.banked.is_none(), "the event model does not support the banked front-end");
        EventMachine { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> RealisticConfig {
        self.config
    }

    /// Runs the model over a captured trace.
    pub fn run(&self, trace: &Trace) -> MachineResult {
        let cfg = &self.config;
        let view = trace.view();
        let mut engine = cfg.front_end.build();
        let mut stream = ValueStream::new(cfg.vp);

        let queue_capacity = cfg.issue_width * 2;
        let mut fetch_queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        // Window entries, retired from the front. Entry ids are stable
        // (monotonic) via an offset.
        let mut window: std::collections::VecDeque<Entry> = std::collections::VecDeque::new();
        let mut retired_entries = 0usize; // id offset of window[0]
                                          // Per-register: id of the in-flight producer entry, if any.
        let mut producer: [Option<usize>; NUM_REGS] = [None; NUM_REGS];
        let mut attr: [Option<RegAttr>; NUM_REGS] = [None; NUM_REGS];

        let mut pos = 0usize; // next trace index to fetch
        let mut cycle = 0u64;
        let mut last_retire_cycle = 0u64;
        // Fetch stall: resume once entry `id` is done, plus the penalty.
        let mut stall_on: Option<usize> = None;
        let mut stall_until = 0u64;

        let mut deps = DepStats::default();
        let mut usefulness = UsefulnessStats::default();
        let mut value_replays = 0u64;
        let mut retired = 0u64;
        let total = view.len() as u64;
        let mut breakdown = CycleBreakdown::default();

        while retired < total {
            // -- retire: in-order, up to issue_width per cycle --
            let retired_before = retired;
            let mut can_retire = cfg.issue_width;
            while can_retire > 0 {
                match window.front() {
                    Some(e) if matches!(e.state, State::Done { at } if at <= cycle) => {
                        window.pop_front();
                        retired_entries += 1;
                        retired += 1;
                        can_retire -= 1;
                        last_retire_cycle = cycle;
                    }
                    _ => break,
                }
            }

            // -- execute: issue ready entries, bounded by the unit count --
            let mut units = cfg.exec_units.unwrap_or(usize::MAX);
            for i in 0..window.len() {
                if units == 0 {
                    break;
                }
                if window[i].state != State::Waiting {
                    continue;
                }
                // Ready when every in-flight producer is done — or was
                // predicted (speculation covers both correct and wrong).
                let mut ready = true;
                let mut spec_on = Vec::new();
                for &(pid, pvp) in &window[i].srcs {
                    if pid < retired_entries {
                        continue; // producer already retired
                    }
                    let p = &window[pid - retired_entries];
                    let done = matches!(p.state, State::Done { at } if at <= cycle);
                    match pvp {
                        VpDisposition::None if !done => ready = false,
                        VpDisposition::Wrong if !done => spec_on.push(pid),
                        _ => {}
                    }
                }
                if ready {
                    window[i].state = State::Done { at: cycle + 1 };
                    window[i].speculative_on = spec_on;
                    units -= 1;
                }
            }

            // -- verify speculation: a consumer that executed on a wrong
            //    value re-completes `value_penalty` after the producer --
            for i in 0..window.len() {
                let State::Done { at } = window[i].state else { continue };
                if window[i].speculative_on.is_empty() {
                    continue;
                }
                let mut worst = at;
                let mut unresolved = Vec::new();
                for &pid in &window[i].speculative_on {
                    if pid < retired_entries {
                        continue;
                    }
                    match window[pid - retired_entries].state {
                        State::Done { at: pdone } => {
                            worst = worst.max(pdone + cfg.value_penalty);
                        }
                        State::Waiting => unresolved.push(pid),
                    }
                }
                if worst > at {
                    value_replays += 1;
                }
                window[i].state = State::Done { at: worst };
                window[i].speculative_on = unresolved;
            }

            // -- dispatch: move fetched instructions into the window --
            let mut can_dispatch = cfg.issue_width;
            while can_dispatch > 0 && window.len() < cfg.window {
                let Some(idx) = fetch_queue.pop_front() else { break };
                let rec = view.slot(idx);
                let vp = stream.disposition(rec);
                let id = retired_entries + window.len();
                let mut srcs = Vec::new();
                for src in [rec.src1_byte(), rec.src2_byte()] {
                    if src == NO_REG || src == 0 {
                        continue;
                    }
                    // First-consumer prediction attribution: useful iff this
                    // consumer dispatches (now, at `cycle`) before the
                    // producer's writeback.
                    if let Some(a) = attr[src as usize] {
                        if a.vp == VpDisposition::Correct && !a.consumed {
                            attr[src as usize] = Some(RegAttr { consumed: true, ..a });
                            let did = (id - a.id) as u64;
                            let useful = a.id >= retired_entries
                                && match window[a.id - retired_entries].state {
                                    State::Waiting => true,
                                    State::Done { at } => cycle < at,
                                };
                            if useful {
                                usefulness.useful += 1;
                                usefulness.did_useful.record(did);
                            } else {
                                usefulness.useless += 1;
                                usefulness.did_useless.record(did);
                            }
                        }
                    }
                    if let Some(pid) = producer[src as usize] {
                        deps.total += 1;
                        if pid >= retired_entries {
                            let pvp = window[pid - retired_entries].vp;
                            match pvp {
                                VpDisposition::Correct => deps.useful += 1,
                                VpDisposition::Wrong => deps.wrong += 1,
                                VpDisposition::None => deps.unpredicted += 1,
                            }
                            srcs.push((pid, pvp));
                        } else {
                            // Producer already retired: the value was ready
                            // long before this consumer dispatched.
                            match self.retired_disposition() {
                                VpDisposition::Correct => deps.useless_correct += 1,
                                VpDisposition::Wrong => deps.wrong += 1,
                                VpDisposition::None => deps.unpredicted += 1,
                            }
                        }
                    }
                }
                let dst = rec.dst_byte();
                if dst != NO_REG {
                    producer[dst as usize] = Some(id);
                    let fresh = RegAttr { id, vp, consumed: false };
                    if let Some(prev) = attr[dst as usize].replace(fresh) {
                        if prev.vp == VpDisposition::Correct && !prev.consumed {
                            usefulness.useless += 1;
                        }
                    }
                }
                window.push_back(Entry {
                    vp,
                    srcs,
                    state: State::Waiting,
                    speculative_on: Vec::new(),
                });
                can_dispatch -= 1;
            }

            // -- fetch: refill the queue unless stalled on a mispredict --
            if let Some(bid) = stall_on {
                if bid < retired_entries {
                    stall_on = None; // branch retired: stall resolved earlier
                } else if let Some(entry) = window.get(bid - retired_entries) {
                    // Not yet dispatched entries keep the stall pending.
                    if let State::Done { at } = entry.state {
                        stall_until = at + cfg.branch_penalty;
                        stall_on = None;
                    }
                }
            }
            if stall_on.is_none() && cycle >= stall_until && pos < view.len() {
                let space = queue_capacity.saturating_sub(fetch_queue.len());
                if space > 0 {
                    let group = engine.fetch(view, pos, space);
                    for k in 0..group.len {
                        fetch_queue.push_back(pos + k);
                    }
                    if let Some(k) = group.mispredict {
                        // The offending branch will dispatch as entry:
                        let branch_id =
                            retired_entries + window.len() + fetch_queue.len() - (group.len - k);
                        stall_on = Some(branch_id);
                        stall_until = u64::MAX; // until the branch resolves
                    }
                    pos += group.len;
                }
            }

            // -- slot accounting: attribute every retire slot --
            let used = (retired - retired_before) as usize;
            breakdown.retiring += used as u64;
            let idle = (cfg.issue_width - used) as u64;
            if stall_on.is_some() || cycle < stall_until {
                breakdown.mispredict_stall += idle;
            } else if window.is_empty() && fetch_queue.is_empty() {
                breakdown.fetch_starved += idle;
            } else {
                breakdown.dataflow_stall += idle;
            }

            cycle += 1;
            assert!(
                cycle < total.saturating_mul(64) + 1_000_000,
                "event machine failed to make progress"
            );
        }

        // End of run: correct predictions never consumed are useless.
        for a in attr.iter().flatten() {
            if a.vp == VpDisposition::Correct && !a.consumed {
                usefulness.useless += 1;
            }
        }

        MachineResult {
            instructions: total,
            cycles: last_retire_cycle,
            vp_stats: stream.stats(),
            deps,
            usefulness,
            value_replays,
            bpred_stats: Some(engine.bpred_stats()),
            trace_cache_stats: engine.trace_cache_stats(),
            banked_stats: None,
            bac_stats: engine.bac_stats(),
            cycle_breakdown: Some(breakdown),
        }
    }

    /// The disposition a *retired* producer had. The analytic model tracks
    /// this exactly; here it is recomputed conservatively: a retired
    /// producer's value was ready before the consumer dispatched, so a
    /// correct prediction for it was by definition useless. We cannot
    /// cheaply recover whether a prediction was made, so classify from the
    /// machine's VP mode.
    fn retired_disposition(&self) -> VpDisposition {
        match self.config.vp {
            crate::VpConfig::None => VpDisposition::None,
            // Approximation: count it as a (useless) correct prediction.
            _ => VpDisposition::Correct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realistic::{BtbKind, FrontEnd};
    use crate::VpConfig;
    use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use fetchvp_trace::trace_program;

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

    fn fe(max_taken: Option<u32>) -> FrontEnd {
        FrontEnd::Conventional { width: 40, max_taken, btb: BtbKind::Perfect }
    }

    #[test]
    fn retires_every_instruction() {
        let t = chain_trace(2_000);
        let r = EventMachine::new(RealisticConfig::paper(fe(Some(4)), VpConfig::None)).run(&t);
        assert_eq!(r.instructions, t.len() as u64);
        assert!(r.ipc() > 0.5);
        let b = r.cycle_breakdown.expect("event machine attributes cycles");
        assert!(b.total() > 0);
        assert!(b.retiring > 0);
    }

    #[test]
    fn value_prediction_converts_dataflow_stalls_into_retirement() {
        let t = chain_trace(4_000);
        let base = EventMachine::new(RealisticConfig::paper(fe(Some(4)), VpConfig::None))
            .run(&t)
            .cycle_breakdown
            .unwrap();
        let vp = EventMachine::new(RealisticConfig::paper(fe(Some(4)), VpConfig::Perfect))
            .run(&t)
            .cycle_breakdown
            .unwrap();
        assert!(
            vp.dataflow_stall < base.dataflow_stall,
            "VP should remove dataflow stalls: {} -> {}",
            base.dataflow_stall,
            vp.dataflow_stall
        );
    }

    #[test]
    fn value_prediction_helps_here_too() {
        let t = chain_trace(4_000);
        let base = EventMachine::new(RealisticConfig::paper(fe(Some(4)), VpConfig::None)).run(&t);
        let vp =
            EventMachine::new(RealisticConfig::paper(fe(Some(4)), VpConfig::stride_infinite()))
                .run(&t);
        assert!(vp.cycles < base.cycles, "VP {} cycles vs base {}", vp.cycles, base.cycles);
    }

    #[test]
    fn bandwidth_scales_the_gain() {
        let t = chain_trace(4_000);
        let speedup = |n| {
            let base = EventMachine::new(RealisticConfig::paper(fe(n), VpConfig::None)).run(&t);
            let vp = EventMachine::new(RealisticConfig::paper(fe(n), VpConfig::stride_infinite()))
                .run(&t);
            vp.speedup_over(&base)
        };
        assert!(speedup(None) >= speedup(Some(1)) - 0.02);
    }

    #[test]
    fn ipc_respects_the_issue_width() {
        let t = chain_trace(2_000);
        let cfg = RealisticConfig {
            issue_width: 4,
            ..RealisticConfig::paper(fe(None), VpConfig::Perfect)
        };
        let r = EventMachine::new(cfg).run(&t);
        assert!(r.ipc() <= 4.0 + 1e-9, "IPC {}", r.ipc());
    }

    #[test]
    fn usefulness_attribution_covers_all_correct_predictions() {
        let t = chain_trace(2_000);
        let r = EventMachine::new(RealisticConfig::paper(fe(Some(4)), VpConfig::stride_infinite()))
            .run(&t);
        let s = r.vp_stats.as_ref().expect("vp stats present");
        assert_eq!(r.usefulness.useful + r.usefulness.useless, s.correct);
        assert!(s.correct > 0);
    }

    #[test]
    #[should_panic(expected = "banked front-end")]
    fn banked_configuration_is_rejected() {
        let cfg = RealisticConfig::paper(fe(None), VpConfig::stride_infinite())
            .with_banked(fetchvp_predictor::BankedConfig::new(4));
        EventMachine::new(cfg);
    }
}
