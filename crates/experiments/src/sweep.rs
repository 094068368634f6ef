//! Deterministic parallel execution of figure sweeps over a shared trace
//! cache.
//!
//! The paper's evaluation is a large cartesian product — benchmarks ×
//! machine configurations per figure, plus a dozen ablations — and every
//! cell is independent of every other. This module supplies the two pieces
//! that let a `report`-style run exploit that:
//!
//! * [`TraceCache`] — generates each workload's trace **once** and shares
//!   it (`Arc<Trace>`) across every figure and ablation that runs against
//!   the same [`ExperimentConfig`]. Generation is lazy and race-free: the
//!   first requester traces, concurrent requesters block and then share.
//! * [`Sweep`] — a scoped-thread job runner over `(workload, parameter)`
//!   cells. Jobs are tagged with their cell index, workers pull from a
//!   shared queue, and results are reassembled in index order, so the
//!   output is **bit-identical** to a serial run regardless of `--jobs`
//!   (see `tests/golden_identity.rs`). With `jobs == 1` no threads are spawned
//!   at all — the cells run inline, in order, which doubles as the oracle
//!   for the parallel path.
//!
//! # Example
//!
//! ```no_run
//! use fetchvp_experiments::{fig3_1, fig3_3, ExperimentConfig, Sweep};
//!
//! let cfg = ExperimentConfig::quick();
//! let sweep = Sweep::new(&cfg); // jobs = available parallelism
//! let a = fig3_1::run_with(&sweep);
//! let b = fig3_3::run_with(&sweep); // reuses the cached traces
//! assert_eq!(sweep.cache().generated(), 8);
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use fetchvp_core::{MachineConfig, MachineResult};
use fetchvp_trace::{trace_program, Slot, Trace};
use fetchvp_tracestore::{
    run_batch_source, stream_program_to_store, ReplayProgress, TraceDir, TraceKey, TraceSource,
    TraceStore, DEFAULT_CHUNK_LEN,
};
use fetchvp_workloads::{extended_suite, Workload};

use crate::ExperimentConfig;

/// Machine configurations per batch job: each `(workload, chunk)` cell
/// advances up to this many pipelines through one pass over the trace
/// ([`fetchvp_core::run_batch`]). Eight keeps a chunk's scheduler and
/// predictor state cache-resident while amortizing the trace walk; the
/// value is fixed (independent of `--jobs`) so cell decomposition — and
/// therefore output — never depends on the host.
pub const BATCH_CHUNK: usize = 8;

/// Number of benchmarks in the paper's integer suite (the extended suite
/// appends `mgrid` for Figure 5.3).
pub const SUITE_LEN: usize = 8;

/// Largest trace the cache holds resident in memory. A decoded
/// instruction costs ~39 bytes of columns, so 8M instructions is roughly
/// 300 MiB per workload — the last size where holding whole traces is
/// reasonable. Beyond it, every runner walks an on-disk store chunk by
/// chunk ([`fetchvp_tracestore`]), which requires a trace directory.
pub const MAX_IN_MEMORY_TRACE_LEN: u64 = 8_000_000;

/// Lazily generates and shares one trace source per workload.
///
/// Holds the *extended* suite (integer benchmarks plus `mgrid`); runners
/// that only need the 8-benchmark suite simply never request the last
/// slot, and its trace is never generated.
pub struct TraceCache {
    cfg: ExperimentConfig,
    /// Content-addressed on-disk cache. When set, trace generation goes
    /// through it (streamed to disk, decoded or replayed from there), so a
    /// second run against a warm directory generates nothing.
    trace_dir: Option<Arc<TraceDir>>,
    workloads: Vec<Workload>,
    slots: Vec<OnceLock<TraceSource>>,
    generated: AtomicUsize,
}

impl TraceCache {
    /// Creates an empty cache for one experiment configuration.
    pub fn new(cfg: &ExperimentConfig) -> TraceCache {
        TraceCache::with_trace_dir(cfg, None)
    }

    /// Like [`TraceCache::new`], backed by a content-addressed trace
    /// directory: generation streams to disk once per key and is shared
    /// across processes and runs.
    pub fn with_trace_dir(cfg: &ExperimentConfig, trace_dir: Option<Arc<TraceDir>>) -> TraceCache {
        let workloads = extended_suite(&cfg.workloads);
        let slots = (0..workloads.len()).map(|_| OnceLock::new()).collect();
        TraceCache { cfg: *cfg, trace_dir, workloads, slots, generated: AtomicUsize::new(0) }
    }

    /// The backing trace directory, if any.
    pub fn trace_dir(&self) -> Option<&Arc<TraceDir>> {
        self.trace_dir.as_ref()
    }

    /// The content-address of workload `index`'s trace under this
    /// configuration.
    pub fn key(&self, index: usize) -> TraceKey {
        TraceKey::benchmark(
            self.workloads[index].name(),
            self.cfg.workloads.seed,
            self.cfg.workloads.scale,
            self.cfg.trace_len,
        )
    }

    /// The configuration the cached traces were generated under.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The benchmark suite, in paper order: the 8 integer benchmarks, or
    /// all 9 including `mgrid` when `extended` is set.
    pub fn workloads(&self, extended: bool) -> &[Workload] {
        if extended {
            &self.workloads
        } else {
            &self.workloads[..SUITE_LEN]
        }
    }

    /// The trace source of workload `index` (extended-suite order),
    /// generated on first request; concurrent requesters block until the
    /// single generation finishes, then share it. Up to
    /// [`MAX_IN_MEMORY_TRACE_LEN`] it is resident (with a trace directory:
    /// streamed out and decoded back, byte-identical to direct
    /// generation); above it, it is the on-disk store.
    ///
    /// # Panics
    ///
    /// Panics above the bound without a trace directory, or on I/O
    /// failure — sweeps have no error channel, and a sweep that cannot
    /// read its traces cannot do anything else either.
    pub fn source(&self, index: usize) -> &TraceSource {
        self.slots[index].get_or_init(|| {
            if self.cfg.trace_len > MAX_IN_MEMORY_TRACE_LEN {
                return TraceSource::Stored(Arc::new(self.store(index)));
            }
            let trace = if self.trace_dir.is_some() {
                let store = self.store(index);
                store.to_trace().unwrap_or_else(|e| {
                    panic!("decoding cached trace store {}: {e}", store.path().display())
                })
            } else {
                self.generated.fetch_add(1, Ordering::Relaxed);
                trace_program(self.workloads[index].program(), self.cfg.trace_len)
            };
            TraceSource::Resident(Arc::new(trace))
        })
    }

    /// Workload `index`'s store in the trace directory, generated on a
    /// miss.
    fn store(&self, index: usize) -> TraceStore {
        let dir = self.trace_dir.as_ref().unwrap_or_else(|| {
            panic!(
                "trace_len {} exceeds the in-memory limit of {MAX_IN_MEMORY_TRACE_LEN} \
                 instructions; longer runs replay from disk: pass --trace-dir DIR (or set \
                 FETCHVP_TRACE_DIR)",
                self.cfg.trace_len
            )
        });
        dir.open_or_create(&self.key(index), |path| {
            self.generated.fetch_add(1, Ordering::Relaxed);
            let out = BufWriter::new(File::create(path)?);
            let program = self.workloads[index].program();
            let len = self.cfg.trace_len;
            stream_program_to_store(program, program.name(), len, DEFAULT_CHUNK_LEN, out).map(drop)
        })
        .unwrap_or_else(|e| panic!("trace store for `{}`: {e}", self.workloads[index].name()))
    }

    /// Panics unless this configuration's traces are resident — checked
    /// by the runners that need whole traces (the `EventMachine` oracle,
    /// the pipeline witness) before any generation starts.
    pub(crate) fn assert_resident(&self) {
        assert!(
            self.cfg.trace_len <= MAX_IN_MEMORY_TRACE_LEN,
            "trace_len {} exceeds the in-memory limit of {MAX_IN_MEMORY_TRACE_LEN} instructions, \
             and this runner needs whole resident traces",
            self.cfg.trace_len
        );
    }

    /// The resident trace of workload `index` — the same `Arc` the
    /// sweep's cells walk — for runners that need the whole trace at once.
    ///
    /// # Panics
    ///
    /// Panics above [`MAX_IN_MEMORY_TRACE_LEN`], before any generation, and
    /// for a stored source handed in through [`Sweep::over_sources`].
    pub fn trace(&self, index: usize) -> Arc<Trace> {
        self.assert_resident();
        Arc::clone(self.source(index).resident().expect("whole traces are resident"))
    }

    /// How many traces have actually been generated (not merely requested)
    /// — the acceptance counter proving each workload is traced at most
    /// once per run.
    pub fn generated(&self) -> usize {
        self.generated.load(Ordering::Relaxed)
    }
}

/// Folds every slot of `workload`'s trace, in order, into `acc` — the
/// forward walk the analysis runners are written as. Panics on I/O
/// failure, like every sweep cell.
pub(crate) fn fold_slots<A>(
    workload: &Workload,
    source: &TraceSource,
    mut acc: A,
    mut step: impl FnMut(&mut A, Slot<'_>),
) -> A {
    source
        .for_each_slot(|slot| step(&mut acc, slot))
        .unwrap_or_else(|e| panic!("reading the trace of `{}`: {e}", workload.name()));
    acc
}

/// A passive observer of machine-sweep progress, attached to a [`Sweep`]
/// with [`Sweep::with_progress`].
///
/// Machine sweeps ([`Sweep::machines`] and friends) decompose into
/// `(workload, config-chunk)` cells that may run on several worker
/// threads at once, so implementations must be thread-safe and must
/// tolerate interleaved calls from different cells. The observer must
/// never influence results — sweeps are bit-identical with or without
/// one — and it must be cheap: `retired` fires once per ~4096 simulated
/// instructions per cell.
pub trait SweepProgress: Send + Sync {
    /// A machine sweep is starting: it will run `cells` cells, walking
    /// `instructions_total` trace instructions in total (cells × trace
    /// length). Called once per machine sweep; a job running several
    /// sweeps observes several `begin`s and should accumulate.
    fn begin(&self, cells: u64, instructions_total: u64);

    /// A cell walking `workload` for config chunk `chunk` retired `delta`
    /// further instructions; cells replaying an on-disk store report the
    /// chunk they are in as `store_chunk` (0 for resident traces).
    fn retired(&self, workload: &'static str, chunk: usize, store_chunk: usize, delta: u64);

    /// The `(workload, chunk)` cell finished.
    fn cell_done(&self, workload: &'static str, chunk: usize);
}

/// Per-cell adapter translating the replay's absolute "instructions
/// retired" ticks into [`SweepProgress::retired`] deltas (several cells
/// advance concurrently, so the aggregate observer needs increments, not
/// per-cell absolutes).
struct CellProgress<'a> {
    sink: &'a dyn SweepProgress,
    workload: &'static str,
    chunk: usize,
    last: AtomicU64,
}

impl ReplayProgress for CellProgress<'_> {
    fn retired(&self, store_chunk: usize, retired: u64) {
        let prev = self.last.swap(retired, Ordering::Relaxed);
        let delta = retired.saturating_sub(prev);
        if delta > 0 {
            self.sink.retired(self.workload, self.chunk, store_chunk, delta);
        }
    }
}

/// A deterministic parallel sweep runner bound to a [`TraceCache`].
///
/// Cloning is cheap and shares the cache.
#[derive(Clone)]
pub struct Sweep {
    cache: Arc<TraceCache>,
    jobs: usize,
    progress: Option<Arc<dyn SweepProgress>>,
}

impl Sweep {
    /// A sweep with as many workers as the host has logical CPUs.
    pub fn new(cfg: &ExperimentConfig) -> Sweep {
        Sweep::with_jobs(cfg, default_jobs())
    }

    /// A sweep with an explicit worker count. `jobs == 1` runs every cell
    /// inline, serially, in index order — the oracle the parallel path must
    /// match bit-for-bit.
    pub fn with_jobs(cfg: &ExperimentConfig, jobs: usize) -> Sweep {
        Sweep::with_trace_dir(cfg, None, jobs)
    }

    /// A sweep whose trace cache is backed by a content-addressed trace
    /// directory (required above [`MAX_IN_MEMORY_TRACE_LEN`]; optional
    /// cross-process caching below it).
    pub fn with_trace_dir(
        cfg: &ExperimentConfig,
        trace_dir: Option<Arc<TraceDir>>,
        jobs: usize,
    ) -> Sweep {
        Sweep {
            cache: Arc::new(TraceCache::with_trace_dir(cfg, trace_dir)),
            jobs: jobs.max(1),
            progress: None,
        }
    }

    /// A sweep over caller-supplied trace sources, one per extended-suite
    /// workload in suite order. Below [`MAX_IN_MEMORY_TRACE_LEN`] the cache
    /// always hands runners resident traces; this is how a test walks
    /// stored sources at any length and window size instead.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one source per workload, each
    /// `cfg.trace_len` instructions long.
    pub fn over_sources(cfg: &ExperimentConfig, sources: Vec<TraceSource>, jobs: usize) -> Sweep {
        let cache = TraceCache::new(cfg);
        assert_eq!(sources.len(), cache.slots.len(), "one source per extended-suite workload");
        for (slot, source) in cache.slots.iter().zip(sources) {
            assert_eq!(source.len(), cfg.trace_len, "source length must match the config");
            slot.set(source).expect("a fresh cache has empty slots");
        }
        Sweep { cache: Arc::new(cache), jobs: jobs.max(1), progress: None }
    }

    /// A serial sweep (`jobs == 1`): `run_with(&Sweep::serial(&cfg))` runs
    /// one experiment on a fresh trace cache.
    pub fn serial(cfg: &ExperimentConfig) -> Sweep {
        Sweep::with_jobs(cfg, 1)
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// A sweep sharing this sweep's trace cache but running `jobs` workers
    /// (`0` is clamped to 1). This is how the server's sweep pool serves
    /// requests that ask for different parallelism against the same warm
    /// traces.
    pub fn reconfigured(&self, jobs: usize) -> Sweep {
        Sweep { cache: Arc::clone(&self.cache), jobs: jobs.max(1), progress: self.progress.clone() }
    }

    /// A sweep sharing this sweep's cache and worker count that reports
    /// machine-sweep progress to `sink` — how the server attaches a job
    /// (its own progress observer) to the pooled sweep serving it.
    /// Results are bit-identical with or without an observer.
    pub fn with_progress(&self, sink: Arc<dyn SweepProgress>) -> Sweep {
        Sweep { cache: Arc::clone(&self.cache), jobs: self.jobs, progress: Some(sink) }
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        self.cache.config()
    }

    /// The shared trace cache.
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// Runs `f` over every `(workload, parameter)` cell of the 8-benchmark
    /// suite and returns, per workload in suite order, the results in
    /// parameter order.
    pub fn cells<P: Sync, R: Send>(
        &self,
        params: &[P],
        f: impl Fn(&Workload, &TraceSource, &P) -> R + Sync,
    ) -> Vec<(&'static str, Vec<R>)> {
        self.cells_on(false, params, f)
    }

    /// [`Sweep::cells`] over the extended suite (including `mgrid`).
    pub fn cells_extended<P: Sync, R: Send>(
        &self,
        params: &[P],
        f: impl Fn(&Workload, &TraceSource, &P) -> R + Sync,
    ) -> Vec<(&'static str, Vec<R>)> {
        self.cells_on(true, params, f)
    }

    /// Runs `f` once per workload of the 8-benchmark suite (cells with a
    /// single implicit parameter).
    pub fn per_workload<R: Send>(
        &self,
        f: impl Fn(&Workload, &TraceSource) -> R + Sync,
    ) -> Vec<(&'static str, R)> {
        self.cells(&[()], |w, t, ()| f(w, t))
            .into_iter()
            .map(|(name, mut rs)| (name, rs.pop().expect("one result per workload")))
            .collect()
    }

    /// Runs every machine configuration against every workload of the
    /// 8-benchmark suite with config batching: configurations are split
    /// into [`BATCH_CHUNK`]-sized chunks, each `(workload, chunk)` cell
    /// walks its trace **once** through one [`fetchvp_core::BatchRunner`]
    /// ([`run_batch_source`]), and cells parallelize across `--jobs`
    /// workers like any other sweep. Returns, per workload in suite order,
    /// the results in `configs` order — byte-identical to serial
    /// per-config runs regardless of jobs, chunking, or whether the traces
    /// are resident or stored.
    pub fn machines(&self, configs: &[MachineConfig]) -> Vec<(&'static str, Vec<MachineResult>)> {
        self.machines_on(false, configs)
    }

    /// [`Sweep::machines`] over the extended suite (including `mgrid`).
    pub fn machines_extended(
        &self,
        configs: &[MachineConfig],
    ) -> Vec<(&'static str, Vec<MachineResult>)> {
        self.machines_on(true, configs)
    }

    fn machines_on(
        &self,
        extended: bool,
        configs: &[MachineConfig],
    ) -> Vec<(&'static str, Vec<MachineResult>)> {
        assert!(!configs.is_empty(), "a machine sweep needs at least one config");
        // Chunks carry their index so progress events can name the config
        // chunk a cell is advancing.
        let chunks: Vec<(usize, &[MachineConfig])> =
            configs.chunks(BATCH_CHUNK).enumerate().collect();
        let progress = self.progress.as_deref();
        if let Some(sink) = progress {
            let cells = (self.cache.workloads(extended).len() * chunks.len()) as u64;
            sink.begin(cells, cells * self.cache.config().trace_len);
        }
        self.cells_on(extended, &chunks, |w, source, &(k, chunk)| {
            let cell = progress.map(|sink| CellProgress {
                sink,
                workload: w.name(),
                chunk: k,
                last: AtomicU64::new(0),
            });
            let results =
                run_batch_source(source, chunk, cell.as_ref().map(|c| c as &dyn ReplayProgress))
                    .unwrap_or_else(|e| panic!("replaying the trace of `{}`: {e}", w.name()));
            if let Some(sink) = progress {
                sink.cell_done(w.name(), k);
            }
            results
        })
        .into_iter()
        .map(|(name, per_chunk)| (name, per_chunk.into_iter().flatten().collect()))
        .collect()
    }

    /// The one cell driver: runs `f` over every `(workload, parameter)`
    /// cell, handing each the workload's [`TraceSource`].
    fn cells_on<P: Sync, R: Send>(
        &self,
        extended: bool,
        params: &[P],
        f: impl Fn(&Workload, &TraceSource, &P) -> R + Sync,
    ) -> Vec<(&'static str, Vec<R>)> {
        let workloads = self.cache.workloads(extended);
        let np = params.len();
        assert!(np > 0, "a sweep needs at least one parameter");
        let flat = self.run_jobs(workloads.len() * np, |cell| {
            let (w, p) = (cell / np, cell % np);
            f(&workloads[w], self.cache.source(w), &params[p])
        });
        let mut it = flat.into_iter();
        workloads
            .iter()
            .map(|w| (w.name(), (0..np).map(|_| it.next().expect("cell result")).collect()))
            .collect()
    }

    /// Executes `run_cell` for cells `0..n_cells` and returns the results
    /// in cell order. Workers pull cell indices from a shared atomic
    /// counter (work stealing); each tags its results with the index so the
    /// reassembled vector is independent of scheduling.
    fn run_jobs<R: Send>(&self, n_cells: usize, run_cell: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let workers = self.jobs.min(n_cells);
        if workers <= 1 {
            return (0..n_cells).map(run_cell).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n_cells).map(|_| None).collect();
        let tagged: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let cell = next.fetch_add(1, Ordering::Relaxed);
                            if cell >= n_cells {
                                break;
                            }
                            local.push((cell, run_cell(cell)));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
        });
        for (cell, result) in tagged.into_iter().flatten() {
            debug_assert!(slots[cell].is_none(), "cell {cell} computed twice");
            slots[cell] = Some(result);
        }
        slots.into_iter().map(|r| r.expect("every cell computed exactly once")).collect()
    }
}

/// The host's logical CPU count (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig { trace_len: 2_000, ..ExperimentConfig::default() }
    }

    #[test]
    fn trace_cache_returns_the_same_arc_for_repeated_requests() {
        let cache = TraceCache::new(&cfg());
        let a = cache.trace(3);
        let b = cache.trace(3);
        assert!(Arc::ptr_eq(&a, &b), "repeated requests must share one trace");
        assert_eq!(cache.generated(), 1);
    }

    #[test]
    fn trace_cache_generates_each_workload_once_under_contention() {
        let cache = TraceCache::new(&cfg());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for w in 0..SUITE_LEN {
                        assert_eq!(cache.trace(w).len(), 2_000);
                    }
                });
            }
        });
        assert_eq!(cache.generated(), SUITE_LEN);
    }

    #[test]
    fn extended_suite_slot_is_lazy() {
        let cache = TraceCache::new(&cfg());
        assert_eq!(cache.workloads(false).len(), SUITE_LEN);
        assert_eq!(cache.workloads(true).len(), SUITE_LEN + 1);
        for w in 0..SUITE_LEN {
            cache.trace(w);
        }
        assert_eq!(cache.generated(), SUITE_LEN, "mgrid must not be traced unrequested");
    }

    #[test]
    fn cells_are_ordered_regardless_of_jobs() {
        let params = [1usize, 2, 3];
        let serial = Sweep::with_jobs(&cfg(), 1)
            .cells(&params, |w, t, p| (w.name().to_string(), t.len(), *p));
        let parallel = Sweep::with_jobs(&cfg(), 8)
            .cells(&params, |w, t, p| (w.name().to_string(), t.len(), *p));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), SUITE_LEN);
        for (name, cells) in &serial {
            assert_eq!(cells.len(), params.len());
            for ((n, len, _), p) in cells.iter().zip(&params) {
                assert_eq!((n.as_str(), *len), (*name, 2_000));
                assert_eq!(*p, cells[p - 1].2);
            }
        }
    }

    #[test]
    fn per_workload_visits_the_suite_in_order() {
        let sweep = Sweep::with_jobs(&cfg(), 4);
        let names: Vec<_> =
            sweep.per_workload(|w, _| w.name().to_string()).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex"]);
        assert_eq!(sweep.cache().generated(), SUITE_LEN);
    }

    #[test]
    fn per_workload_folds_match_on_resident_and_stored_sources() {
        use fetchvp_tracestore::write_store;
        use fetchvp_workloads::{by_name, WorkloadParams};

        let workload = by_name("vortex", &WorkloadParams::default()).expect("vortex in suite");
        let trace = Arc::new(trace_program(workload.program(), 60_000));
        let folds = |source: &TraceSource| {
            (
                crate::did_analysis(&workload, source),
                crate::table3_1::row(&workload, source),
                crate::accuracy::predictor_stats(&workload, source),
                crate::ablations::hint_row(&workload, source),
            )
        };
        let resident = folds(&TraceSource::Resident(Arc::clone(&trace)));
        let dir = std::env::temp_dir().join(format!("fetchvp-sweep-folds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        // One-instruction chunks put every slot at a window boundary; one
        // whole-trace chunk is the resident shape read back from disk.
        for chunk_len in [1, 1_000, 60_000] {
            let path = dir.join(format!("vortex-{chunk_len}.fvps"));
            write_store(&trace, chunk_len, BufWriter::new(File::create(&path).unwrap())).unwrap();
            let store = TraceStore::open(&path).unwrap();
            assert_eq!(store.chunks().len(), 60_000usize.div_ceil(chunk_len));
            let stored = folds(&TraceSource::Stored(Arc::new(store)));
            assert!(stored == resident, "folds diverge at chunk_len={chunk_len}");
        }
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
        assert!(Sweep::with_jobs(&cfg(), 0).jobs() == 1);
    }

    #[test]
    fn progress_observer_sees_every_instruction_and_changes_nothing() {
        use fetchvp_core::{IdealConfig, VpConfig};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Tally {
            begins: Mutex<Vec<(u64, u64)>>,
            retired: AtomicU64,
            cells_done: AtomicUsize,
        }
        impl SweepProgress for Tally {
            fn begin(&self, cells: u64, instructions_total: u64) {
                self.begins.lock().unwrap().push((cells, instructions_total));
            }
            fn retired(&self, workload: &'static str, _chunk: usize, _store: usize, delta: u64) {
                assert!(!workload.is_empty());
                assert!(delta > 0, "zero deltas must be filtered out");
                self.retired.fetch_add(delta, Ordering::Relaxed);
            }
            fn cell_done(&self, _workload: &'static str, _chunk: usize) {
                self.cells_done.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Ten configs → two chunks per workload, run on 4 workers so the
        // observer sees interleaved cells.
        let configs: Vec<MachineConfig> = (0..10)
            .map(|i| {
                MachineConfig::Ideal(IdealConfig {
                    fetch_rate: 4 + i,
                    vp: VpConfig::stride_infinite(),
                    ..IdealConfig::default()
                })
            })
            .collect();
        let plain = Sweep::with_jobs(&cfg(), 4);
        let expected = plain.machines(&configs);

        let tally = Arc::new(Tally::default());
        let observed = plain.with_progress(Arc::clone(&tally) as Arc<dyn SweepProgress>);
        assert_eq!(observed.machines(&configs), expected, "observer must not perturb results");

        let cells = (SUITE_LEN * 2) as u64;
        let total = cells * cfg().trace_len;
        assert_eq!(*tally.begins.lock().unwrap(), vec![(cells, total)]);
        assert_eq!(tally.retired.load(Ordering::Relaxed), total, "every instruction reported");
        assert_eq!(tally.cells_done.load(Ordering::Relaxed) as u64, cells);

        // `reconfigured` keeps the observer attached.
        let tally2 = Arc::new(Tally::default());
        let re = plain.with_progress(Arc::clone(&tally2) as Arc<dyn SweepProgress>).reconfigured(1);
        assert_eq!(re.machines(&configs), expected);
        assert_eq!(tally2.retired.load(Ordering::Relaxed), total);
    }

    #[test]
    fn machines_preserves_config_order_across_chunks_and_jobs() {
        use fetchvp_core::{IdealConfig, MachineConfig, VpConfig};
        // Ten configs: crosses the BATCH_CHUNK = 8 boundary, so each
        // workload becomes two cells that must be reassembled in order.
        let configs: Vec<MachineConfig> = [4, 8, 16, 32, 40]
            .into_iter()
            .flat_map(|rate| {
                [VpConfig::None, VpConfig::stride_infinite()].map(|vp| {
                    MachineConfig::Ideal(IdealConfig {
                        fetch_rate: rate,
                        vp,
                        ..IdealConfig::default()
                    })
                })
            })
            .collect();
        assert!(configs.len() > BATCH_CHUNK);
        let serial = Sweep::with_jobs(&cfg(), 1).machines(&configs);
        let parallel = Sweep::with_jobs(&cfg(), 8).machines(&configs);
        assert_eq!(serial, parallel, "job count must not change machine results");
        assert_eq!(serial.len(), SUITE_LEN);
        for (name, results) in &serial {
            assert_eq!(results.len(), configs.len(), "{name}: one result per config");
            // Config order is preserved: the VP runs (odd slots) never run
            // slower than their paired baselines, and the paper's headline
            // effect orders the pairs by fetch rate.
            for pair in results.chunks_exact(2) {
                assert!(pair[1].cycles <= pair[0].cycles, "{name}: VP slowed the machine");
            }
        }
    }
}
