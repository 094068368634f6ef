//! The batch simulation kernel: one pass over a trace advances many
//! machine configurations in lockstep.
//!
//! [`run_batch`] walks the shared [`Trace`] **once** per batch in blocks of
//! 4096 slots, so the structure-of-arrays trace columns stay cache-hot
//! while every configuration's scheduler consumes the block.
//!
//! Value prediction is hoisted out of the pipelines. Without the §4 banked
//! front-end, every value producer looks up and commits in trace order, so
//! a predictor's outcomes are independent of machine timing: the batch
//! runs one *value stream* per distinct [`VpConfig`] among its ideal and
//! non-banked realistic pipelines, filling one reused disposition column
//! per block that all of them schedule from and whose statistics all of
//! them report. Banked pipelines keep a private front-end, because bank
//! grants depend on each pipeline's own fetch groups.
//!
//! The serial machines ([`IdealMachine::run`](crate::IdealMachine::run),
//! [`RealisticMachine::run_traced`](crate::RealisticMachine::run_traced))
//! are one-configuration batches through the same block loop, which makes
//! batch-vs-serial byte-identity structural (the differential test in
//! `fetchvp-experiments` checks it anyway).
//!
//! # Example
//!
//! ```
//! use fetchvp_core::{run_batch, IdealConfig, MachineConfig, VpConfig};
//! use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
//! use fetchvp_trace::trace_program;
//!
//! # fn main() -> Result<(), fetchvp_isa::ProgramError> {
//! let mut b = ProgramBuilder::new("chain");
//! b.load_imm(Reg::R1, 0);
//! b.load_imm(Reg::R2, 1_000);
//! let head = b.bind_label("head");
//! b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 3);
//! b.branch(Cond::Lt, Reg::R1, Reg::R2, head);
//! b.halt();
//! let trace = trace_program(&b.build()?, 10_000);
//!
//! // One walk of the trace, two machines.
//! let configs = [
//!     MachineConfig::Ideal(IdealConfig { fetch_rate: 16, ..IdealConfig::default() }),
//!     MachineConfig::Ideal(IdealConfig {
//!         fetch_rate: 16,
//!         vp: VpConfig::stride_infinite(),
//!         ..IdealConfig::default()
//!     }),
//! ];
//! let results = run_batch(&trace, &configs);
//! assert!(results[1].ipc() >= results[0].ipc());
//! # Ok(())
//! # }
//! ```

use std::ops::Range;

use fetchvp_fetch::FetchEngine;
use fetchvp_predictor::{BankedFrontEnd, SlotGrant, SlotOutcome, ValuePredictor};
use fetchvp_trace::{Slot, Trace, TraceView};
use fetchvp_tracing::{Event, EventSink, Lane};

use crate::ideal::IdealConfig;
use crate::realistic::RealisticConfig;
use crate::sched::{Sched, Scheduler, VpDisposition};
use crate::vp::{outcome, ValueStream, VpConfig};
use crate::MachineResult;

/// One machine configuration a [`run_batch`] call can advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineConfig {
    /// The §3 ideal (implementation-independent) machine.
    Ideal(IdealConfig),
    /// The §5 realistic machine.
    Realistic(RealisticConfig),
}

impl From<IdealConfig> for MachineConfig {
    fn from(config: IdealConfig) -> MachineConfig {
        MachineConfig::Ideal(config)
    }
}

impl From<RealisticConfig> for MachineConfig {
    fn from(config: RealisticConfig) -> MachineConfig {
        MachineConfig::Realistic(config)
    }
}

/// Where one pipeline's value-prediction dispositions come from.
enum ValuePath {
    /// The batch's value stream with this index (block-relative column).
    Stream(usize),
    /// A private §4 banked front-end (group-relative dispositions).
    Banked(BankedPath),
}

/// The §4 banked front-end plus per-group scratch, reused every group.
struct BankedPath {
    fe: BankedFrontEnd<Box<dyn ValuePredictor>>,
    /// Trace index of the current group's first slot.
    start: usize,
    pcs: Vec<u64>,
    outcomes: Vec<SlotOutcome>,
    dispositions: Vec<VpDisposition>,
    /// Bank conflicts of the current group (tracing runs only).
    conflicts: Vec<(u64, u32)>,
}

impl BankedPath {
    /// Routes one fetch group's value producers, then commits them.
    fn predict_group(&mut self, view: TraceView<'_>, group: Range<usize>, tracing: bool) {
        self.pcs.clear();
        self.pcs
            .extend(view.slots_in(group.clone()).filter(|r| r.produces_value()).map(|r| r.pc()));
        self.fe.predict_group_into(&self.pcs, &mut self.outcomes);
        let mut outcomes = self.outcomes.iter();
        self.start = group.start;
        self.dispositions.clear();
        for rec in view.slots_in(group) {
            if !rec.produces_value() {
                self.dispositions.push(VpDisposition::None);
                continue;
            }
            let slot = outcomes.next().expect("one outcome per value producer");
            if tracing && slot.grant == SlotGrant::DeniedConflict {
                self.conflicts.push((rec.pc(), slot.bank));
            }
            self.fe.commit(rec.pc(), rec.result(), slot.prediction);
            self.dispositions.push(outcome(slot.prediction, rec.result()));
        }
    }
}

/// The fetch front-end state of one pipeline. The ideal machine fetches
/// `fetch_rate` consecutive slots per cycle; the realistic machine carries
/// the fetch engine plus the in-flight group's bookkeeping between steps.
enum Front {
    Ideal {
        fetch_rate: usize,
        cycle: u64,
        /// Slots still to fetch in `cycle` (no per-slot division).
        left: usize,
    },
    Realistic {
        engine: Box<dyn FetchEngine>,
        issue_width: usize,
        branch_penalty: u64,
        /// Cycle the current fetch group was fetched in.
        fetch_cycle: u64,
        /// Trace index one past the current group's last instruction; a
        /// step at this index fetches the next group.
        group_end: usize,
        /// Trace index of the group's mispredicted control transfer.
        mispredict: Option<usize>,
        /// Cycle fetch may resume after the group's misprediction.
        resume_after: Option<u64>,
    },
}

/// One machine configuration's execution state, advanced one block of
/// trace slots at a time so many pipelines share one trace walk.
struct Pipeline {
    sched: Scheduler,
    value: ValuePath,
    front: Front,
}

impl Pipeline {
    /// Builds the execution state for one configuration, joining (or
    /// opening) the value stream of its `VpConfig` unless it is banked.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the corresponding machine
    /// constructor: a zero fetch rate, window or issue width.
    fn new(config: &MachineConfig, streams: &mut Vec<ValueStream>) -> Pipeline {
        let (sched, vp, banked, front) = match *config {
            MachineConfig::Ideal(c) => {
                assert!(c.fetch_rate > 0, "fetch rate must be positive");
                let mut sched = Scheduler::new(c.window, Some(c.fetch_rate));
                sched.set_exec_width(c.exec_units);
                sched.set_memory_deps(c.memory_deps);
                let front = Front::Ideal { fetch_rate: c.fetch_rate, cycle: 0, left: c.fetch_rate };
                (sched, c.vp, None, front)
            }
            MachineConfig::Realistic(c) => {
                assert!(c.issue_width > 0, "issue width must be positive");
                let mut sched =
                    Scheduler::with_value_penalty(c.window, Some(c.issue_width), c.value_penalty);
                sched.set_exec_width(c.exec_units);
                sched.set_memory_deps(c.memory_deps);
                let front = Front::Realistic {
                    engine: c.front_end.build(),
                    issue_width: c.issue_width,
                    branch_penalty: c.branch_penalty,
                    fetch_cycle: 0,
                    group_end: 0,
                    mispredict: None,
                    resume_after: None,
                };
                (sched, c.vp, c.banked, front)
            }
        };
        let value = match (vp, banked) {
            (VpConfig::Predictor(kind), Some(bcfg)) => ValuePath::Banked(BankedPath {
                fe: BankedFrontEnd::new(bcfg, kind.build()),
                start: 0,
                pcs: Vec::new(),
                outcomes: Vec::new(),
                dispositions: Vec::new(),
                conflicts: Vec::new(),
            }),
            _ => {
                if !streams.iter().any(|s| s.config == vp) {
                    streams.push(ValueStream::new(vp));
                }
                ValuePath::Stream(streams.iter().position(|s| s.config == vp).expect("opened"))
            }
        };
        Pipeline { sched, value, front }
    }

    /// Advances this pipeline over the trace slots `start..end`, after the
    /// batch has filled every stream's column for exactly that block.
    /// Callers must cover every slot of `view` exactly once, in order (any
    /// block partitioning), before calling [`Pipeline::finish`]. The
    /// front-end and value-path variants are resolved once per block (per
    /// group, for realistic front-ends), not per slot.
    fn run_block(
        &mut self,
        view: TraceView<'_>,
        start: usize,
        end: usize,
        streams: &[ValueStream],
        sink: &mut Option<&mut dyn EventSink>,
    ) {
        let Pipeline { sched, value, front } = self;
        match front {
            Front::Ideal { fetch_rate, cycle, left } => {
                let ValuePath::Stream(n) = *value else {
                    unreachable!("the ideal machine has no banked path")
                };
                for (rec, &vp) in view.slots_in(start..end).zip(&streams[n].column) {
                    sched.schedule(rec, *cycle, vp);
                    *left -= 1;
                    if *left == 0 {
                        *left = *fetch_rate;
                        *cycle += 1;
                    }
                }
            }
            Front::Realistic {
                engine,
                issue_width,
                branch_penalty,
                fetch_cycle,
                group_end,
                mispredict,
                resume_after,
            } => {
                // Group-at-a-time, clamped to the block: a group that spans
                // the block boundary is resumed by the next call, its
                // bookkeeping deferred until its last slot is scheduled.
                let mut i = start;
                while i < end {
                    if i == *group_end {
                        let group = engine.fetch(view, i, *issue_width);
                        assert!(group.len > 0, "fetch engine must make progress");
                        *group_end = i + group.len;
                        *mispredict = group.mispredict.map(|k| i + k);
                        *resume_after = None;
                        // With the banked front-end the group's PCs contend
                        // for table banks at fetch time.
                        if let ValuePath::Banked(banked) = value {
                            banked.predict_group(view, i..*group_end, sink.is_some());
                        }
                    }

                    let stop = (*group_end).min(end);
                    let (dispositions, base) = match &*value {
                        ValuePath::Stream(n) => (&streams[*n].column[..], start),
                        ValuePath::Banked(banked) => (&banked.dispositions[..], banked.start),
                    };
                    for (rec, j) in view.slots_in(i..stop).zip(i..stop) {
                        let vp = dispositions[j - base];
                        let t = sched.schedule(rec, *fetch_cycle, vp);
                        if let Some(sink) = sink.as_deref_mut() {
                            witness(sink, rec, *fetch_cycle, t, vp);
                        }
                        if *mispredict == Some(j) {
                            *resume_after = Some(t.execute + *branch_penalty);
                        }
                    }

                    if stop == *group_end {
                        if let (Some(sink), ValuePath::Banked(banked)) =
                            (sink.as_deref_mut(), &mut *value)
                        {
                            for (pc, bank) in banked.conflicts.drain(..) {
                                sink.record(Event::instant(
                                    Lane::BankConflict,
                                    *fetch_cycle,
                                    "bank_conflict",
                                    bank as u64,
                                    pc,
                                ));
                            }
                        }
                        *fetch_cycle = match *resume_after {
                            Some(resume) => resume.max(*fetch_cycle + 1),
                            None => *fetch_cycle + 1,
                        };
                    }
                    i = stop;
                }
            }
        }
    }

    /// Retires the pipeline and assembles its [`MachineResult`].
    fn finish(mut self, streams: &[ValueStream]) -> MachineResult {
        self.sched.finish();
        let stats = self.sched.stats();
        let (vp_stats, banked_stats) = match &self.value {
            ValuePath::Stream(n) => (streams[*n].stats(), None),
            ValuePath::Banked(b) => (Some(b.fe.predictor_stats()), Some(b.fe.banked_stats())),
        };
        let (bpred_stats, trace_cache_stats, bac_stats) = match &self.front {
            Front::Ideal { .. } => (None, None, None),
            Front::Realistic { engine, .. } => {
                (Some(engine.bpred_stats()), engine.trace_cache_stats(), engine.bac_stats())
            }
        };
        MachineResult {
            instructions: stats.instructions,
            cycles: stats.last_complete,
            vp_stats,
            deps: stats.deps,
            usefulness: self.sched.usefulness().clone(),
            value_replays: stats.value_replays,
            bpred_stats,
            trace_cache_stats,
            banked_stats,
            bac_stats,
            cycle_breakdown: None,
        }
    }
}

/// Records one instruction's pipeline witness: fetch, dispatch, issue and
/// writeback spans, then its prediction outcome.
fn witness(sink: &mut dyn EventSink, rec: Slot<'_>, fetch: u64, t: Sched, vp: VpDisposition) {
    let (seq, pc) = (rec.seq(), rec.pc());
    let lanes = [Lane::Fetch, Lane::Dispatch, Lane::Issue, Lane::Writeback];
    for (lane, at) in lanes.into_iter().zip([fetch, t.dispatch, t.execute, t.complete]) {
        sink.record(Event::span(lane, at, 1, "instr", seq, pc));
    }
    let name = match vp {
        VpDisposition::Correct => "vp_correct",
        VpDisposition::Wrong => "vp_wrong",
        VpDisposition::None => return,
    };
    sink.record(Event::instant(Lane::Predict, fetch, name, seq, pc));
}

/// Slots each pipeline advances before the batch loop moves to the next
/// pipeline. Tiling trades the two locality costs against each other: a
/// block of trace columns is read once and stays cache-hot while every
/// pipeline consumes it, and each pipeline's scheduler and predictor state
/// stays hot for a whole block instead of being evicted between
/// single-slot turns. Purely a performance knob — results are independent
/// of it, because the only state pipelines share is the order-only value
/// streams.
const BATCH_BLOCK_SLOTS: usize = 4096;

/// A passive observer of batch progress: called once per
/// `BATCH_BLOCK_SLOTS` block with the logical trace index the batch has
/// advanced past (so values are strictly increasing within one run and
/// the last call reports the fed length).
///
/// The sink must never influence results — it sees only how far the walk
/// has come, not any pipeline state — and it must be cheap: it is invoked
/// from the hot loop, once per ~4096 slots. When no sink is attached the
/// kernel pays exactly one `Option` branch per block (the bench gate
/// holds `run_batch` to the no-sink baseline).
pub trait ProgressSink: Sync {
    /// `retired` logical trace slots have been fully stepped by every
    /// pipeline in the batch.
    fn retired(&self, retired: u64);
}

/// Runs every configuration in `configs` over `trace` with a **single**
/// pass over the trace, advancing all pipelines in lockstep per block of
/// `BATCH_BLOCK_SLOTS` slots.
///
/// Results come back in `configs` order and are byte-identical to running
/// each configuration alone through [`IdealMachine::run`] or
/// [`RealisticMachine::run`] — the machines are thin wrappers over the
/// same block loop, and the value streams pipelines share depend on trace
/// order alone.
///
/// Callers batching very many configurations should chunk them (the
/// experiments crate uses chunks of 8) so each batch's working set stays
/// cache-resident; correctness does not depend on the chunk size.
///
/// [`IdealMachine::run`]: crate::IdealMachine::run
/// [`RealisticMachine::run`]: crate::RealisticMachine::run
///
/// # Panics
///
/// Panics if any configuration is invalid (zero fetch rate, window or
/// issue width), exactly as the machine constructors do.
pub fn run_batch(trace: &Trace, configs: &[MachineConfig]) -> Vec<MachineResult> {
    let view = trace.view();
    let mut runner = BatchRunner::new(configs);
    runner.feed(view, 0, view.len());
    runner.finish()
}

/// A resumable [`run_batch`]: the same lockstep pipelines, but fed the
/// trace in caller-chosen contiguous segments instead of one call. This is
/// the out-of-core replay seam — `fetchvp-tracestore` decodes an on-disk
/// trace one chunk at a time into a re-based window buffer and feeds each
/// chunk here, and the results are byte-identical to [`run_batch`] over
/// the fully materialized trace.
///
/// # Window requirements
///
/// Each [`feed`](BatchRunner::feed) call advances every pipeline over the
/// logical slots `start..end` of `view`. Calls must be contiguous (each
/// `start` equals the previous `end`, beginning at 0). Because realistic
/// front-ends fetch up to [`lookahead`](BatchRunner::lookahead) slots past
/// the instruction being stepped, `view` must extend to at least
/// `min(end + lookahead, total)` where `total` is the full trace length —
/// i.e. either reach the true end of the trace or overshoot `end` by the
/// lookahead. A whole-trace view (as in [`run_batch`]) always qualifies.
///
/// # Example
///
/// ```
/// use fetchvp_core::{run_batch, BatchRunner, IdealConfig, MachineConfig};
/// use fetchvp_isa::{AluOp, ProgramBuilder, Reg};
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// let mut b = ProgramBuilder::new("p");
/// let head = b.bind_label("head");
/// b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
/// b.jump(head);
/// let trace = trace_program(&b.build()?, 10_000);
///
/// let configs = [MachineConfig::Ideal(IdealConfig::default())];
/// let mut runner = BatchRunner::new(&configs);
/// runner.feed(trace.view(), 0, 6_000);
/// runner.feed(trace.view(), 6_000, 10_000);
/// assert_eq!(runner.finish(), run_batch(&trace, &configs));
/// # Ok(())
/// # }
/// ```
pub struct BatchRunner {
    pipes: Vec<Pipeline>,
    /// One value stream per distinct `VpConfig` among the non-banked
    /// pipelines, run once per block for all of them.
    streams: Vec<ValueStream>,
    lookahead: usize,
    next: usize,
}

impl BatchRunner {
    /// Builds one pipeline per configuration.
    ///
    /// # Panics
    ///
    /// Panics if any configuration is invalid, exactly as [`run_batch`].
    pub fn new(configs: &[MachineConfig]) -> BatchRunner {
        let lookahead = configs
            .iter()
            .map(|c| match c {
                MachineConfig::Ideal(_) => 0,
                MachineConfig::Realistic(cfg) => cfg.issue_width,
            })
            .max()
            .unwrap_or(0);
        let mut streams = Vec::new();
        let pipes = configs.iter().map(|c| Pipeline::new(c, &mut streams)).collect();
        BatchRunner { pipes, streams, lookahead, next: 0 }
    }

    /// The furthest any pipeline's front-end may read past the instruction
    /// currently being stepped (the widest realistic issue width — every
    /// fetch engine clamps its group to the issue width it is handed, and
    /// the ideal front-end never looks ahead at all).
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// The logical index the next [`feed`](BatchRunner::feed) must start at.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Advances every pipeline over the logical slots `start..end`, tiled
    /// into the same cache-sized blocks as [`run_batch`] (block boundaries
    /// are a pure performance knob; results are independent of them).
    ///
    /// # Panics
    ///
    /// Panics if `start` is not the previous call's `end`, if the range is
    /// inverted, or if `view` does not cover it.
    pub fn feed(&mut self, view: TraceView<'_>, start: usize, end: usize) {
        self.feed_with_progress(view, start, end, None);
    }

    /// [`feed`](BatchRunner::feed) with an optional [`ProgressSink`]
    /// notified once per block. `None` is exactly `feed` — results are
    /// byte-identical either way, the sink only observes how far the walk
    /// has come.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`feed`](BatchRunner::feed).
    pub fn feed_with_progress(
        &mut self,
        view: TraceView<'_>,
        start: usize,
        end: usize,
        progress: Option<&dyn ProgressSink>,
    ) {
        self.advance(view, start, end, progress, &mut None);
    }

    /// The block loop behind every feed: per block, each value stream
    /// fills its column once, then every pipeline schedules from it (or
    /// from its private banked front-end), streaming its pipeline witness
    /// into `sink` when one is lent.
    pub(crate) fn advance(
        &mut self,
        view: TraceView<'_>,
        start: usize,
        end: usize,
        progress: Option<&dyn ProgressSink>,
        sink: &mut Option<&mut dyn EventSink>,
    ) {
        assert_eq!(start, self.next, "feed must continue where the previous one stopped");
        assert!(start <= end, "inverted feed range {start}..{end}");
        assert!(end <= view.len(), "feed range end {end} beyond view length {}", view.len());
        for block_start in (start..end).step_by(BATCH_BLOCK_SLOTS) {
            let block_end = (block_start + BATCH_BLOCK_SLOTS).min(end);
            for stream in &mut self.streams {
                stream.fill(view, block_start, block_end);
            }
            for pipe in &mut self.pipes {
                pipe.run_block(view, block_start, block_end, &self.streams, sink);
            }
            if let Some(sink) = progress {
                sink.retired(block_end as u64);
            }
        }
        self.next = end;
    }

    /// Retires every pipeline and returns the results in `configs` order.
    pub fn finish(self) -> Vec<MachineResult> {
        let streams = self.streams;
        self.pipes.into_iter().map(|p| p.finish(&streams)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realistic::{BtbKind, FrontEnd};
    use crate::{IdealMachine, RealisticMachine};
    use fetchvp_fetch::TraceCacheConfig;
    use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use fetchvp_predictor::BankedConfig;
    use fetchvp_trace::trace_program;

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

    fn mixed_configs() -> Vec<MachineConfig> {
        let conv = FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::Perfect };
        let tc = FrontEnd::TraceCache {
            config: TraceCacheConfig::paper(),
            btb: BtbKind::two_level_paper(),
        };
        vec![
            MachineConfig::Ideal(IdealConfig { fetch_rate: 16, ..IdealConfig::default() }),
            MachineConfig::Ideal(IdealConfig {
                fetch_rate: 16,
                vp: VpConfig::stride_infinite(),
                ..IdealConfig::default()
            }),
            MachineConfig::Realistic(RealisticConfig::paper(conv, VpConfig::None)),
            MachineConfig::Realistic(RealisticConfig::paper(tc, VpConfig::stride_infinite())),
            MachineConfig::Realistic(
                RealisticConfig::paper(tc, VpConfig::stride_infinite())
                    .with_banked(BankedConfig::new(2)),
            ),
        ]
    }

    #[test]
    fn batch_matches_serial_runs_exactly() {
        let t = chain_trace(2_000);
        let configs = mixed_configs();
        let batch = run_batch(&t, &configs);
        for (config, batched) in configs.iter().zip(&batch) {
            let serial = match *config {
                MachineConfig::Ideal(cfg) => IdealMachine::new(cfg).run(&t),
                MachineConfig::Realistic(cfg) => RealisticMachine::new(cfg).run(&t),
            };
            assert_eq!(&serial, batched, "batched run diverged for {config:?}");
        }
    }

    #[test]
    fn batch_order_and_duplicates_are_preserved() {
        let t = chain_trace(500);
        let cfg = IdealConfig { fetch_rate: 8, vp: VpConfig::Perfect, ..IdealConfig::default() };
        let configs = [
            MachineConfig::Ideal(cfg),
            MachineConfig::Ideal(IdealConfig { fetch_rate: 4, ..cfg }),
            MachineConfig::Ideal(cfg),
        ];
        let results = run_batch(&t, &configs);
        assert_eq!(results[0], results[2], "duplicate configs must agree");
        assert_ne!(results[0].cycles, results[1].cycles);
    }

    #[test]
    fn empty_batch_and_empty_trace_are_fine() {
        let t = chain_trace(10);
        assert!(run_batch(&t, &[]).is_empty());
        let short = trace_program(
            &{
                let mut b = ProgramBuilder::new("halt");
                b.halt();
                b.build().unwrap()
            },
            1,
        );
        let r = run_batch(&short, &[MachineConfig::Ideal(IdealConfig::default())]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn windowed_feeds_match_one_shot_batch() {
        let t = chain_trace(2_000);
        let configs = mixed_configs();
        let expected = run_batch(&t, &configs);
        // Feed through re-based window buffers — the out-of-core replay
        // shape: each segment's view holds only segment + lookahead slots,
        // with the store's base carrying the global indices.
        for window in [1usize, 100, 4096, t.len()] {
            let mut runner = BatchRunner::new(&configs);
            let lookahead = runner.lookahead();
            let mut start = 0;
            while start < t.len() {
                let end = (start + window).min(t.len());
                let window_end = (end + lookahead).min(t.len());
                let mut buf = t.columns().slice(start..window_end);
                buf.set_base(start);
                runner.feed(buf.view(), start, end);
                start = end;
            }
            assert_eq!(runner.finish(), expected, "window {window} diverged");
        }
    }

    #[test]
    fn feed_boundaries_inside_fetch_groups_of_stream_sharing_pipelines() {
        let t = chain_trace(3_000);
        let vp = VpConfig::stride_infinite();
        let conv = FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::Perfect };
        let tc = FrontEnd::TraceCache {
            config: TraceCacheConfig::paper(),
            btb: BtbKind::two_level_paper(),
        };
        let configs = [
            MachineConfig::Ideal(IdealConfig { fetch_rate: 8, vp, ..IdealConfig::default() }),
            MachineConfig::Realistic(RealisticConfig::paper(conv, vp)),
            MachineConfig::Realistic(RealisticConfig::paper(tc, vp)),
        ];
        let expected = run_batch(&t, &configs);
        for window in [1usize, 100, 4096] {
            let mut runner = BatchRunner::new(&configs);
            assert_eq!(runner.streams.len(), 1, "all three pipelines share one stream");
            let lookahead = runner.lookahead();
            let (mut start, mut straddling) = (0, 0);
            while start < t.len() {
                let end = (start + window).min(t.len());
                let mut buf = t.columns().slice(start..(end + lookahead).min(t.len()));
                buf.set_base(start);
                runner.feed(buf.view(), start, end);
                // A realistic group reaching past `end` resumes in the next
                // feed, reading the next block's column.
                straddling += runner
                    .pipes
                    .iter()
                    .filter(|p| matches!(p.front, Front::Realistic { group_end, .. } if group_end > end))
                    .count();
                start = end;
            }
            assert!(straddling > 0, "window {window}: no feed boundary split a fetch group");
            assert_eq!(runner.finish(), expected, "window {window} diverged");
        }
    }

    #[test]
    fn progress_sink_sees_monotone_block_ends_and_changes_nothing() {
        use std::sync::Mutex;

        struct Recorder(Mutex<Vec<u64>>);
        impl ProgressSink for Recorder {
            fn retired(&self, retired: u64) {
                self.0.lock().unwrap().push(retired);
            }
        }

        let t = chain_trace(3_000);
        let configs = mixed_configs();
        let expected = run_batch(&t, &configs);

        let recorder = Recorder(Mutex::new(Vec::new()));
        let mut runner = BatchRunner::new(&configs);
        runner.feed_with_progress(t.view(), 0, t.len(), Some(&recorder));
        assert_eq!(runner.finish(), expected, "the sink must not perturb results");

        let seen = recorder.0.into_inner().unwrap();
        assert!(!seen.is_empty(), "a non-empty trace must report progress");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "progress must be strictly increasing");
        assert_eq!(*seen.last().unwrap() as usize, t.len(), "the last report covers the trace");
        assert_eq!(seen[0] as usize, BATCH_BLOCK_SLOTS.min(t.len()), "first report is one block");
    }

    #[test]
    #[should_panic(expected = "must continue")]
    fn non_contiguous_feed_panics() {
        let t = chain_trace(100);
        let mut runner = BatchRunner::new(&mixed_configs());
        runner.feed(t.view(), 0, 10);
        runner.feed(t.view(), 20, 30);
    }

    #[test]
    #[should_panic(expected = "fetch rate must be positive")]
    fn invalid_config_panics_like_the_machine_constructor() {
        let t = chain_trace(10);
        run_batch(
            &t,
            &[MachineConfig::Ideal(IdealConfig { fetch_rate: 0, ..IdealConfig::default() })],
        );
    }
}
