//! The dataflow scheduling core shared by both machine models.
//!
//! Instructions are scheduled one at a time in trace order. For each
//! instruction the caller supplies the cycle it was fetched and the
//! disposition of the value prediction made for its *own* result; the
//! scheduler derives dispatch, execute and completion cycles from:
//!
//! * the pipeline shape of Table 3.2 (dispatch = fetch + 1; execute at
//!   dispatch + 1 at the earliest; results available one cycle after
//!   execute),
//! * the instruction-window constraint (an instruction dispatches only when
//!   the instruction `window` places earlier has retired),
//! * an optional per-cycle dispatch-width cap, and
//! * register dataflow, where a consumer of a *correctly predicted* value is
//!   freed from the dependence, and a consumer that speculatively executed
//!   on a *wrong* predicted value replays one cycle after the correct value
//!   appears (the paper's 1-cycle value-misprediction penalty: "the machine
//!   invalidates only the dependent instructions and reschedules them").

use fetchvp_isa::reg::NUM_REGS;
use fetchvp_metrics::{FxHashMap, Histogram};
use fetchvp_trace::{Slot, NO_REG};

/// The value-prediction disposition of one dynamic instruction's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VpDisposition {
    /// No prediction was issued for this result.
    None,
    /// A prediction was issued and is correct.
    Correct,
    /// A prediction was issued and is wrong.
    Wrong,
}

/// The scheduled stage times of one instruction (absolute cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sched {
    /// Dispatch (decode/issue) cycle.
    pub dispatch: u64,
    /// Execute cycle.
    pub execute: u64,
    /// Cycle the result becomes available / the instruction may commit.
    pub complete: u64,
}

/// Classification of register true dependencies by how value prediction
/// served them — the quantity behind the paper's central observation that
/// correct predictions are often *useless* at low fetch bandwidth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepStats {
    /// Register true dependencies observed.
    pub total: u64,
    /// Producer correctly predicted *and* the consumer would otherwise have
    /// waited: the prediction was exploited.
    pub useful: u64,
    /// Producer correctly predicted but the value was ready anyway (the
    /// consumer was fetched too late for the prediction to matter).
    pub useless_correct: u64,
    /// Producer mispredicted.
    pub wrong: u64,
    /// Producer not predicted (cold entry or low classifier confidence).
    pub unpredicted: u64,
}

impl DepStats {
    /// Fraction of dependencies where a correct prediction went unused.
    pub fn useless_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.useless_correct as f64 / self.total as f64
        }
    }
}

/// Aggregate scheduling statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Instructions scheduled.
    pub instructions: u64,
    /// The latest completion cycle seen (total run length).
    pub last_complete: u64,
    /// Consumers that replayed on a wrong predicted value.
    pub value_replays: u64,
    /// Dependence classification.
    pub deps: DepStats,
}

impl fetchvp_metrics::MetricsSink for DepStats {
    fn export_metrics(&self, reg: &mut fetchvp_metrics::Registry, prefix: &str) {
        reg.counter(prefix, "total", self.total);
        reg.counter(prefix, "useful", self.useful);
        reg.counter(prefix, "useless_correct", self.useless_correct);
        reg.counter(prefix, "wrong", self.wrong);
        reg.counter(prefix, "unpredicted", self.unpredicted);
        reg.gauge(prefix, "useless_fraction", self.useless_fraction());
    }
}

impl fetchvp_metrics::MetricsSink for SchedStats {
    fn export_metrics(&self, reg: &mut fetchvp_metrics::Registry, prefix: &str) {
        reg.counter(prefix, "instructions", self.instructions);
        reg.counter(prefix, "last_complete", self.last_complete);
        reg.counter(prefix, "value_replays", self.value_replays);
        self.deps.export_metrics(reg, &format!("{prefix}.deps"));
    }
}

/// Per-*prediction* usefulness attribution — the observable behind the
/// paper's §3.3 mechanism. Where [`DepStats`] classifies every register
/// dependence, this classifies every **correct prediction** exactly once,
/// by its *first* consumer: the prediction was useful iff that consumer
/// dispatched before the producer's writeback (otherwise the value was
/// architecturally available and the prediction bought nothing). Correct
/// predictions whose value is never read before being overwritten (or
/// before the run ends) are useless by definition — no consumer existed to
/// exploit them.
///
/// The invariant `useful + useless == predictor.correct` holds for every
/// machine model; the DID histograms cover only *consumed* predictions
/// (unconsumed ones have no consumer, hence no instruction distance).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsefulnessStats {
    /// Correct predictions whose first consumer dispatched before the
    /// producer's writeback.
    pub useful: u64,
    /// Correct predictions consumed too late — or never consumed at all.
    pub useless: u64,
    /// Dynamic instruction distance (producer → first consumer) of useful
    /// predictions.
    pub did_useful: Histogram,
    /// Dynamic instruction distance of useless consumed predictions.
    pub did_useless: Histogram,
}

impl UsefulnessStats {
    /// Fraction of correct predictions that were useful (0 when none).
    pub fn useful_fraction(&self) -> f64 {
        let total = self.useful + self.useless;
        if total == 0 {
            0.0
        } else {
            self.useful as f64 / total as f64
        }
    }

    /// Merges another run's attribution (for aggregating across workloads).
    pub fn merge(&mut self, other: &UsefulnessStats) {
        self.useful += other.useful;
        self.useless += other.useless;
        self.did_useful.merge(&other.did_useful);
        self.did_useless.merge(&other.did_useless);
    }

    /// Exports the counters under `predictor.*` and the DID histograms
    /// under `machine.did_hist.*`.
    pub fn export(&self, reg: &mut fetchvp_metrics::Registry) {
        reg.counter("predictor", "useful", self.useful);
        reg.counter("predictor", "useless", self.useless);
        reg.gauge("predictor", "useful_fraction", self.useful_fraction());
        reg.histogram("machine.did_hist", "useful", &self.did_useful);
        reg.histogram("machine.did_hist", "useless", &self.did_useless);
    }
}

#[derive(Debug, Clone, Copy)]
struct Producer {
    complete: u64,
    vp: VpDisposition,
    /// Trace index of the producing instruction (for DID).
    seq: u64,
    /// Whether a first consumer has already classified this prediction.
    consumed: bool,
}

/// The incremental dataflow scheduler.
///
/// # Example
///
/// ```
/// use fetchvp_core::sched::{Scheduler, VpDisposition};
/// use fetchvp_isa::{AluOp, Instr, Reg};
/// use fetchvp_trace::{DynInstr, TraceColumns};
///
/// let mut s = Scheduler::new(40, None);
/// let add = Instr::Alu { op: AluOp::Add, dst: Reg::R1, a: Reg::R1, b: Reg::R1 };
/// let cols = TraceColumns::from_records(&[DynInstr {
///     seq: 0, pc: 0, instr: add, result: 0, mem_addr: None,
///     taken: false, next_pc: 1,
/// }]);
/// let t0 = s.schedule(cols.slot(0), 0, VpDisposition::None);
/// assert_eq!((t0.dispatch, t0.execute, t0.complete), (1, 2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    dispatch_width: Option<usize>,
    value_penalty: u64,
    /// Execution units per cycle (`None` = unlimited, the §3 ideal model).
    exec_width: Option<usize>,
    /// Executions booked per cycle: a ring of per-cycle counts covering the
    /// live span `[exec_base, exec_base + ring.len())`. Probes are bounded
    /// below by `dispatch + 1`, which is non-decreasing, so cycles sliding
    /// out of the span are dead; the ring grows if the live span ever
    /// outruns it.
    exec_booked: Vec<u32>,
    /// Cycle whose booking count sits at ring index `exec_base % len`.
    exec_base: u64,
    /// When set, loads additionally wait for the completion of the last
    /// store to the same address (perfect memory disambiguation with
    /// store-to-load forwarding at completion time).
    memory_deps: bool,
    /// Completion time of the last store per address (Fx-hashed: probed
    /// once per memory instruction when memory dependencies are enabled).
    last_store: FxHashMap<u64, u64>,
    /// Ring of retire cycles for the last `window` instructions (zero
    /// until the window first fills), and the cursor at the entry the next
    /// instruction vacates and overwrites: instruction `i - window`'s.
    retire_ring: Vec<u64>,
    retire_pos: usize,
    /// Retire cycle of the previous instruction (in-order commit).
    prev_retire: u64,
    scheduled: u64,
    last_writer: [Option<Producer>; NUM_REGS],
    /// Dispatch-width bookkeeping: instructions already dispatched in
    /// `disp_cursor_cycle`.
    disp_cursor_cycle: u64,
    disp_cursor_count: usize,
    stats: SchedStats,
    usefulness: UsefulnessStats,
}

impl Scheduler {
    /// Creates a scheduler with an instruction window of `window` entries
    /// and an optional per-cycle dispatch-width cap.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `dispatch_width` is `Some(0)`.
    pub fn new(window: usize, dispatch_width: Option<usize>) -> Scheduler {
        Scheduler::with_value_penalty(window, dispatch_width, 1)
    }

    /// Creates a scheduler with an explicit value-misprediction penalty
    /// (the paper's machines use 1 cycle; sensitivity studies sweep it).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `dispatch_width` is `Some(0)`.
    pub fn with_value_penalty(
        window: usize,
        dispatch_width: Option<usize>,
        value_penalty: u64,
    ) -> Scheduler {
        assert!(window > 0, "window must be positive");
        assert!(dispatch_width != Some(0), "dispatch width must be positive");
        Scheduler {
            dispatch_width,
            value_penalty,
            exec_width: None,
            // Execute cycles trail dispatch by at most ~window (the window
            // constraint forces dispatch past the retire of instruction
            // i - W), so 4x the window covers the live span with slack.
            exec_booked: vec![0; (4 * window).next_power_of_two()],
            exec_base: 0,
            memory_deps: false,
            last_store: FxHashMap::default(),
            retire_ring: vec![0; window],
            retire_pos: 0,
            prev_retire: 0,
            scheduled: 0,
            last_writer: [None; NUM_REGS],
            disp_cursor_cycle: 0,
            disp_cursor_count: 0,
            stats: SchedStats::default(),
            usefulness: UsefulnessStats::default(),
        }
    }

    /// Caps the number of instructions that may execute in one cycle
    /// (structural hazard on the execution units). `None` — the default —
    /// models the paper's "free from structural resources conflicts".
    ///
    /// # Panics
    ///
    /// Panics if `exec_width` is `Some(0)`.
    pub fn set_exec_width(&mut self, exec_width: Option<usize>) {
        assert!(exec_width != Some(0), "execution width must be positive");
        self.exec_width = exec_width;
    }

    /// Enables memory dependencies: a load additionally waits for the last
    /// store to its address to complete. The paper's models (and its DFG
    /// analysis) consider register dataflow only, so this is off by
    /// default.
    pub fn set_memory_deps(&mut self, enabled: bool) {
        self.memory_deps = enabled;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Per-prediction usefulness attribution accumulated so far. Complete
    /// only after [`Scheduler::finish`] has flushed unconsumed producers.
    pub fn usefulness(&self) -> &UsefulnessStats {
        &self.usefulness
    }

    /// Ends the run: correct predictions still live in the register file —
    /// issued but never consumed — are flushed as useless. Call once after
    /// the last instruction; the scheduler must not be reused afterwards
    /// (the dataflow state is cleared).
    pub fn finish(&mut self) {
        for slot in 0..NUM_REGS {
            if let Some(p) = self.last_writer[slot].take() {
                self.flush_unconsumed(p);
            }
        }
    }

    /// An overwritten or end-of-run producer: if it carried a correct
    /// prediction nobody read, the prediction was useless.
    fn flush_unconsumed(&mut self, p: Producer) {
        if p.vp == VpDisposition::Correct && !p.consumed {
            self.usefulness.useless += 1;
        }
    }

    /// Books an execution slot at the earliest cycle >= `candidate`.
    ///
    /// `min_live` is the lowest cycle any *future* probe can ask for
    /// (`dispatch + 1`, which is non-decreasing): ring slots below it are
    /// dead and may be reclaimed.
    fn book_exec(&mut self, candidate: u64, min_live: u64) -> u64 {
        let Some(width) = self.exec_width else { return candidate };
        let width = width as u32;
        let mut cycle = candidate;
        self.make_live(cycle, min_live);
        loop {
            let mask = self.exec_booked.len() as u64 - 1;
            let slot = (cycle & mask) as usize;
            if self.exec_booked[slot] < width {
                self.exec_booked[slot] += 1;
                return cycle;
            }
            cycle += 1;
            self.make_live(cycle, min_live);
        }
    }

    /// Makes `cycle` addressable in the booking ring: slides the base
    /// forward over dead cycles (zeroing their counts), and doubles the
    /// ring if the live span `[min_live, cycle]` outgrows it.
    #[inline]
    fn make_live(&mut self, cycle: u64, min_live: u64) {
        debug_assert!(cycle >= self.exec_base, "booking probe below the live span");
        if cycle < self.exec_base + self.exec_booked.len() as u64 {
            return;
        }
        self.make_live_slow(cycle, min_live);
    }

    #[cold]
    fn make_live_slow(&mut self, cycle: u64, min_live: u64) {
        // Reclaim dead cycles first.
        let len = self.exec_booked.len() as u64;
        while self.exec_base < min_live && cycle >= self.exec_base + len {
            self.exec_booked[(self.exec_base & (len - 1)) as usize] = 0;
            self.exec_base += 1;
        }
        // Still not enough span: double the ring, re-hashing live slots.
        while cycle >= self.exec_base + self.exec_booked.len() as u64 {
            let old = std::mem::take(&mut self.exec_booked);
            let old_mask = old.len() as u64 - 1;
            self.exec_booked = vec![0; old.len() * 2];
            let new_mask = self.exec_booked.len() as u64 - 1;
            for c in self.exec_base..self.exec_base + old.len() as u64 {
                self.exec_booked[(c & new_mask) as usize] = old[(c & old_mask) as usize];
            }
        }
    }

    /// Schedules the next instruction in trace order.
    ///
    /// `fetch_cycle` is the cycle the front-end delivered it; `vp` is the
    /// disposition of the value prediction issued for *this instruction's
    /// result* (use [`VpDisposition::None`] when value prediction is off or
    /// the instruction produces no value).
    ///
    /// Forced inline: this is the body of every pipeline's per-slot loop.
    #[inline(always)]
    pub fn schedule(&mut self, rec: Slot<'_>, fetch_cycle: u64, vp: VpDisposition) -> Sched {
        // Window constraint: the entry vacated by instruction (i - W).
        let window_free = self.retire_ring[self.retire_pos];
        let mut dispatch = (fetch_cycle + 1).max(window_free);

        // Dispatch-width cap: a full cycle spills into the next one.
        if let Some(width) = self.dispatch_width {
            dispatch = dispatch.max(self.disp_cursor_cycle);
            if dispatch == self.disp_cursor_cycle && self.disp_cursor_count < width {
                self.disp_cursor_count += 1;
            } else {
                dispatch += u64::from(dispatch == self.disp_cursor_cycle);
                self.disp_cursor_cycle = dispatch;
                self.disp_cursor_count = 1;
            }
        }

        // Operand readiness. `spec_time` is when the instruction issues
        // believing every predicted operand; `repair_time` additionally
        // waits for the true values of mispredicted operands. `freed` holds
        // the completion times of correctly predicted operands.
        let mut spec_time = dispatch + 1;
        let mut repair_time = dispatch + 1;
        let (mut freed, mut n_freed) = ([0u64; 2], 0);
        for src in [rec.src1_byte(), rec.src2_byte()] {
            if src == NO_REG || src == 0 {
                continue; // absent operand or the hardwired zero register
            }
            let Some(p) = self.last_writer[src as usize] else { continue };
            self.stats.deps.total += 1;
            match p.vp {
                VpDisposition::None => {
                    self.stats.deps.unpredicted += 1;
                    spec_time = spec_time.max(p.complete);
                    repair_time = repair_time.max(p.complete);
                }
                VpDisposition::Correct => {
                    // The dependence is freed (no spec_time update). The
                    // *dependence*-level usefulness is classified after exec
                    // is known, below; the *prediction*-level attribution is
                    // decided here by the first consumer: useful iff this
                    // consumer dispatched before the producer's writeback.
                    freed[n_freed] = p.complete;
                    n_freed += 1;
                    if !p.consumed {
                        self.last_writer[src as usize] = Some(Producer { consumed: true, ..p });
                        let did = self.scheduled - p.seq;
                        if dispatch < p.complete {
                            self.usefulness.useful += 1;
                            self.usefulness.did_useful.record(did);
                        } else {
                            self.usefulness.useless += 1;
                            self.usefulness.did_useless.record(did);
                        }
                    }
                }
                VpDisposition::Wrong => {
                    self.stats.deps.wrong += 1;
                    repair_time = repair_time.max(p.complete);
                }
            }
        }

        // Memory dependence: a load waits for the last store to its
        // address (when enabled).
        if self.memory_deps && rec.is_mem() && rec.dst_byte() != NO_REG {
            if let Some(addr) = rec.mem_addr() {
                if let Some(&store_done) = self.last_store.get(&addr) {
                    spec_time = spec_time.max(store_done);
                    repair_time = repair_time.max(store_done);
                }
            }
        }

        // A wrong value that resolved before this consumer issued caused no
        // speculative execution, hence no replay penalty.
        let execute_candidate = if repair_time > spec_time {
            self.stats.value_replays += 1;
            repair_time + self.value_penalty
        } else {
            spec_time
        };
        let execute = self.book_exec(execute_candidate, dispatch + 1);
        let complete = execute + 1;
        if self.memory_deps && rec.is_mem() && rec.dst_byte() == NO_REG {
            if let Some(addr) = rec.mem_addr() {
                self.last_store.insert(addr, complete);
            }
        }

        // Classify correctly-predicted dependencies as useful vs useless
        // now that the execute cycle is known.
        for &done in &freed[..n_freed] {
            self.stats.deps.useful += u64::from(done > execute);
            self.stats.deps.useless_correct += u64::from(done <= execute);
        }

        // In-order retirement.
        let retire = complete.max(self.prev_retire);
        self.prev_retire = retire;
        self.retire_ring[self.retire_pos] = retire;
        self.retire_pos += 1;
        if self.retire_pos == self.retire_ring.len() {
            self.retire_pos = 0;
        }

        let dst = rec.dst_byte();
        if dst != NO_REG {
            let fresh = Producer { complete, vp, seq: self.scheduled, consumed: false };
            if let Some(prev) = self.last_writer[dst as usize].replace(fresh) {
                self.flush_unconsumed(prev);
            }
        }

        self.scheduled += 1;
        self.stats.instructions += 1;
        self.stats.last_complete = self.stats.last_complete.max(retire);
        Sched { dispatch, execute, complete }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_isa::{AluOp, Instr, Reg};
    use fetchvp_trace::{DynInstr, TraceColumns};

    /// Wraps one record into columnar form and schedules it.
    fn sched1(s: &mut Scheduler, rec: DynInstr, fetch_cycle: u64, vp: VpDisposition) -> Sched {
        let cols = TraceColumns::from_records(&[rec]);
        s.schedule(cols.slot(0), fetch_cycle, vp)
    }

    fn alu(dst: Reg, a: Reg, b: Reg) -> DynInstr {
        DynInstr {
            seq: 0,
            pc: 0,
            instr: Instr::Alu { op: AluOp::Add, dst, a, b },
            result: 0,
            mem_addr: None,
            taken: false,
            next_pc: 1,
        }
    }

    #[test]
    fn independent_instructions_pipeline_cleanly() {
        let mut s = Scheduler::new(40, None);
        for i in 0..4 {
            let rec = alu(Reg::new(i + 1).unwrap(), Reg::R0, Reg::R0);
            let t = sched1(&mut s, rec, 0, VpDisposition::None);
            assert_eq!((t.dispatch, t.execute, t.complete), (1, 2, 3));
        }
    }

    #[test]
    fn true_dependence_serializes() {
        let mut s = Scheduler::new(40, None);
        let p = sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::None);
        let c = sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 0, VpDisposition::None);
        assert_eq!(c.execute, p.complete); // waits for the producer
    }

    #[test]
    fn correct_prediction_breaks_the_dependence() {
        let mut s = Scheduler::new(40, None);
        let p = sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Correct);
        let c = sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 0, VpDisposition::None);
        assert_eq!(c.execute, 2); // same cycle as the producer
        assert_eq!(p.execute, 2);
        assert_eq!(s.stats().deps.useful, 1);
    }

    #[test]
    fn correct_prediction_for_a_late_consumer_is_useless() {
        let mut s = Scheduler::new(40, None);
        sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Correct);
        // Consumer fetched 10 cycles later: the value is long since ready.
        let c = sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 10, VpDisposition::None);
        assert_eq!(c.execute, 12); // dispatch+1, unconstrained
        let d = s.stats().deps;
        assert_eq!((d.useful, d.useless_correct), (0, 1));
    }

    #[test]
    fn wrong_prediction_costs_one_replay_cycle() {
        let mut s = Scheduler::new(40, None);
        let p = sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Wrong);
        let c = sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 0, VpDisposition::None);
        // Without VP the consumer would execute at p.complete; the replay
        // adds one cycle.
        assert_eq!(c.execute, p.complete + 1);
        assert_eq!(s.stats().value_replays, 1);
        assert_eq!(s.stats().deps.wrong, 1);
    }

    #[test]
    fn wrong_prediction_resolved_before_issue_has_no_penalty() {
        let mut s = Scheduler::new(40, None);
        let p = sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Wrong);
        // Consumer fetched far later: it never speculated on the bad value.
        let c = sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 20, VpDisposition::None);
        assert!(c.execute > p.complete);
        assert_eq!(s.stats().value_replays, 0);
    }

    #[test]
    fn window_limits_inflight_instructions() {
        let mut s = Scheduler::new(2, None);
        // A serial chain through R1: completes at 3, 5, 7, ...
        let mut times = Vec::new();
        for _ in 0..5 {
            let t = sched1(&mut s, alu(Reg::R1, Reg::R1, Reg::R0), 0, VpDisposition::None);
            times.push(t);
        }
        // With window 2, instruction i cannot dispatch before i-2 retired.
        assert!(times[2].dispatch >= times[0].complete);
        assert!(times[4].dispatch >= times[2].complete);
    }

    #[test]
    fn dispatch_width_spreads_across_cycles() {
        let mut s = Scheduler::new(40, Some(2));
        let d: Vec<u64> = (0..6)
            .map(|_| {
                sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::None).dispatch
            })
            .collect();
        assert_eq!(d, [1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn zero_register_reads_carry_no_dependence() {
        let mut s = Scheduler::new(40, None);
        sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::None);
        assert_eq!(s.stats().deps.total, 0);
    }

    #[test]
    fn dep_classification_is_exhaustive() {
        let mut s = Scheduler::new(40, None);
        sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Correct);
        sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 0, VpDisposition::Wrong);
        sched1(&mut s, alu(Reg::R3, Reg::R2, Reg::R1), 0, VpDisposition::None);
        let d = s.stats().deps;
        assert_eq!(d.total, d.useful + d.useless_correct + d.wrong + d.unpredicted);
        assert_eq!(d.total, 3);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        Scheduler::new(0, None);
    }

    fn load(dst: Reg, base: Reg, addr_hint: u64) -> DynInstr {
        DynInstr {
            seq: 0,
            pc: 0,
            instr: Instr::Load { dst, base, offset: 0 },
            result: 0,
            mem_addr: Some(addr_hint),
            taken: false,
            next_pc: 1,
        }
    }

    fn store(src: Reg, base: Reg, addr_hint: u64) -> DynInstr {
        DynInstr {
            seq: 0,
            pc: 0,
            instr: Instr::Store { src, base, offset: 0 },
            result: 0,
            mem_addr: Some(addr_hint),
            taken: false,
            next_pc: 1,
        }
    }

    #[test]
    fn exec_width_serializes_independent_instructions() {
        let mut s = Scheduler::new(40, None);
        s.set_exec_width(Some(1));
        let e: Vec<u64> = (0..4)
            .map(|_| sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::None).execute)
            .collect();
        assert_eq!(e, [2, 3, 4, 5]);
    }

    #[test]
    fn unlimited_exec_width_runs_independents_together() {
        let mut s = Scheduler::new(40, None);
        let e: Vec<u64> = (0..4)
            .map(|_| sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::None).execute)
            .collect();
        assert_eq!(e, [2, 2, 2, 2]);
    }

    #[test]
    fn memory_deps_order_store_then_load() {
        let mut s = Scheduler::new(40, None);
        s.set_memory_deps(true);
        let st = sched1(&mut s, store(Reg::R1, Reg::R2, 0x100), 0, VpDisposition::None);
        let ld = sched1(&mut s, load(Reg::R3, Reg::R4, 0x100), 0, VpDisposition::None);
        assert!(
            ld.execute >= st.complete,
            "load at {} before store done {}",
            ld.execute,
            st.complete
        );
        // A load from a different address is unconstrained.
        let other = sched1(&mut s, load(Reg::R5, Reg::R6, 0x200), 0, VpDisposition::None);
        assert_eq!(other.execute, other.dispatch + 1);
    }

    #[test]
    fn first_consumer_classifies_a_prediction_once() {
        let mut s = Scheduler::new(40, None);
        sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Correct);
        // First consumer dispatches at 1, producer writes back at 3: useful.
        sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 0, VpDisposition::None);
        // A second consumer must not re-classify the same prediction.
        sched1(&mut s, alu(Reg::R3, Reg::R1, Reg::R0), 0, VpDisposition::None);
        s.finish();
        let u = s.usefulness();
        assert_eq!((u.useful, u.useless), (1, 0));
        assert_eq!(u.did_useful.count(), 1);
        assert_eq!(u.did_useful.sum(), 1); // DID = 1
    }

    #[test]
    fn late_first_consumer_makes_the_prediction_useless() {
        let mut s = Scheduler::new(40, None);
        sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Correct);
        // Dispatch at 11, long after the writeback at 3.
        sched1(&mut s, alu(Reg::R2, Reg::R1, Reg::R0), 10, VpDisposition::None);
        s.finish();
        let u = s.usefulness();
        assert_eq!((u.useful, u.useless), (0, 1));
        assert_eq!(u.did_useless.count(), 1);
    }

    #[test]
    fn unconsumed_correct_predictions_flush_as_useless() {
        let mut s = Scheduler::new(40, None);
        // Overwritten before any read.
        sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::Correct);
        sched1(&mut s, alu(Reg::R1, Reg::R0, Reg::R0), 0, VpDisposition::None);
        // Still live at end of run.
        sched1(&mut s, alu(Reg::R2, Reg::R0, Reg::R0), 0, VpDisposition::Correct);
        s.finish();
        let u = s.usefulness();
        assert_eq!((u.useful, u.useless), (0, 2));
        // Unconsumed predictions carry no DID sample.
        assert_eq!(u.did_useful.count() + u.did_useless.count(), 0);
    }

    #[test]
    fn attribution_covers_every_correct_prediction() {
        let mut s = Scheduler::new(40, None);
        let dispositions = [
            VpDisposition::Correct,
            VpDisposition::Wrong,
            VpDisposition::Correct,
            VpDisposition::None,
            VpDisposition::Correct,
        ];
        for (i, vp) in dispositions.iter().enumerate() {
            let dst = Reg::new((i % 3 + 1) as u8).unwrap();
            let src = Reg::new((i % 2 + 1) as u8).unwrap();
            sched1(&mut s, alu(dst, src, Reg::R0), i as u64, *vp);
        }
        s.finish();
        let correct = dispositions.iter().filter(|v| **v == VpDisposition::Correct).count();
        let u = s.usefulness();
        assert_eq!(u.useful + u.useless, correct as u64);
    }

    #[test]
    fn memory_deps_off_by_default() {
        let mut s = Scheduler::new(40, None);
        sched1(&mut s, store(Reg::R1, Reg::R2, 0x100), 0, VpDisposition::None);
        let ld = sched1(&mut s, load(Reg::R3, Reg::R4, 0x100), 0, VpDisposition::None);
        assert_eq!(ld.execute, ld.dispatch + 1);
    }
}
