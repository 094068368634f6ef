//! The one replay path: a trace source — resident or stored — walked
//! forward in windows, fed through [`fetchvp_core::BatchRunner`] or folded
//! into streaming statistics.

use std::io;
use std::ops::Range;
use std::sync::Arc;

use fetchvp_core::{BatchRunner, MachineConfig, MachineResult, ProgressSink};
use fetchvp_trace::{Slot, StatsAccum, Trace, TraceStats, TraceView};

use crate::reader::TraceStore;

/// A workload's trace as the runners consume it: resident in memory, or
/// stored on disk and decoded one window at a time. Both kinds are walked
/// through the same [`walk`](TraceSource::walk), so a runner written as a
/// forward fold over its windows gives byte-identical results on either.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// A whole trace held in memory: one window.
    Resident(Arc<Trace>),
    /// A chunked store on disk: one window per on-disk chunk.
    Stored(Arc<TraceStore>),
}

impl TraceSource {
    /// Total instructions in the trace.
    pub fn len(&self) -> u64 {
        match self {
            TraceSource::Resident(trace) => trace.len() as u64,
            TraceSource::Stored(store) => store.len(),
        }
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The in-memory trace, if this source is resident.
    pub fn resident(&self) -> Option<&Arc<Trace>> {
        match self {
            TraceSource::Resident(trace) => Some(trace),
            TraceSource::Stored(_) => None,
        }
    }

    /// Walks the trace forward, calling `f(view, start..end, store_chunk)`
    /// once per window. The windows' ranges tile `0..len` exactly once, in
    /// order, and each `view` covers `start` up to at least
    /// `min(end + lookahead, len)` — what a
    /// [`fetchvp_core::BatchRunner`] feed needs for fetch groups that
    /// straddle the window's end. A resident trace is one whole-trace
    /// window (`store_chunk` 0); a stored one has a window per on-disk
    /// chunk, decoded into one reusable buffer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and chunk corruption from decoding.
    pub fn walk(
        &self,
        lookahead: usize,
        mut f: impl FnMut(TraceView<'_>, Range<usize>, usize),
    ) -> io::Result<()> {
        let store = match self {
            TraceSource::Resident(trace) => {
                f(trace.view(), 0..trace.len(), 0);
                return Ok(());
            }
            TraceSource::Stored(store) => store,
        };
        let mut cursor = store.cursor()?;
        for (k, meta) in store.chunks().iter().enumerate() {
            let (start, end) = (meta.start as usize, (meta.start + meta.len as u64) as usize);
            // A chunk is decoded at most twice: once as the previous
            // window's lookahead, once as its own window.
            cursor.load_window(k, (end + lookahead) as u64)?;
            f(cursor.view(), start..end, k);
        }
        Ok(())
    }

    /// Feeds every slot to `f` in trace order — the [`walk`] of a forward
    /// fold that needs no lookahead.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and chunk corruption from decoding.
    ///
    /// [`walk`]: TraceSource::walk
    pub fn for_each_slot(&self, mut f: impl FnMut(Slot<'_>)) -> io::Result<()> {
        self.walk(0, |view, range, _| view.slots_in(range).for_each(&mut f))
    }
}

/// A passive observer of replay progress: called once per batch block
/// with the on-disk chunk currently being replayed (0 for a resident
/// trace) and the logical instruction index the walk has advanced past
/// (strictly increasing within one replay). Like
/// [`fetchvp_core::ProgressSink`], the sink must never influence results.
pub trait ReplayProgress: Sync {
    /// The replay is inside on-disk chunk `chunk` and has fully stepped
    /// `instructions_done` logical trace slots.
    fn retired(&self, chunk: usize, instructions_done: u64);
}

/// Adapts the per-block [`ProgressSink`] callback of the batch kernel to
/// [`ReplayProgress`] by pinning the chunk index of the feed in flight.
struct ChunkProgress<'a> {
    inner: &'a dyn ReplayProgress,
    chunk: usize,
}

impl ProgressSink for ChunkProgress<'_> {
    fn retired(&self, retired: u64) {
        self.inner.retired(self.chunk, retired);
    }
}

/// Runs every configuration over a trace source with one forward
/// [`walk`](TraceSource::walk), feeding each window to one
/// [`BatchRunner`] — byte-identical to [`fetchvp_core::run_batch`] over
/// the same trace in memory, and a resident source makes exactly the
/// runner calls `run_batch` makes. An optional [`ReplayProgress`] observer
/// is notified once per batch block; results are byte-identical either
/// way.
///
/// Peak heap of a stored source is bounded by its window, not the trace:
/// one chunk plus however many further chunks cover the widest realistic
/// front-end's fetch lookahead (in practice: two chunks).
///
/// # Errors
///
/// Propagates I/O errors and chunk corruption from decoding.
///
/// # Panics
///
/// Panics if any configuration is invalid, exactly as
/// [`fetchvp_core::run_batch`].
pub fn run_batch_source(
    source: &TraceSource,
    configs: &[MachineConfig],
    progress: Option<&dyn ReplayProgress>,
) -> io::Result<Vec<MachineResult>> {
    let mut runner = BatchRunner::new(configs);
    source.walk(runner.lookahead(), |view, range, chunk| match progress {
        Some(inner) => {
            let tagged = ChunkProgress { inner, chunk };
            runner.feed_with_progress(view, range.start, range.end, Some(&tagged));
        }
        None => runner.feed(view, range.start, range.end),
    })?;
    Ok(runner.finish())
}

/// [`run_batch_source`] over an on-disk store, without an observer (same
/// errors and panics).
pub fn run_batch_store(
    store: &TraceStore,
    configs: &[MachineConfig],
) -> io::Result<Vec<MachineResult>> {
    run_batch_store_with_progress(store, configs, None)
}

/// [`run_batch_source`] over an on-disk store (same errors and panics).
pub fn run_batch_store_with_progress(
    store: &TraceStore,
    configs: &[MachineConfig],
    progress: Option<&dyn ReplayProgress>,
) -> io::Result<Vec<MachineResult>> {
    run_batch_source(&stored(store), configs, progress)
}

/// Computes [`TraceStats`] for an on-disk store by walking it one chunk
/// at a time through a [`StatsAccum`] — exactly the statistics
/// `Trace::stats` would report for the materialized trace, without
/// materializing it.
///
/// # Errors
///
/// Propagates I/O errors and chunk corruption from decoding.
pub fn stream_store_stats(store: &TraceStore) -> io::Result<TraceStats> {
    let mut accum = StatsAccum::new();
    stored(store).for_each_slot(|slot| accum.push(slot))?;
    Ok(accum.finish())
}

/// A stored source over `store`: the copy is of the opened header,
/// instruction table and chunk index — chunk payloads stay on disk.
fn stored(store: &TraceStore) -> TraceSource {
    TraceSource::Stored(Arc::new(store.clone()))
}
