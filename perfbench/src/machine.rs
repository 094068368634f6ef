//! The three machine workloads: `ideal_fetch_sweep`,
//! `realistic_frontend_sweep` and `ooc_replay`.
//!
//! A timed run sets up [`SETUPS`] times from fresh state, runs one
//! warm-up repetition, then timed repetitions until the window is spent
//! (at least `min_reps`). It times each repetition's segments (sweep
//! cells, replayed store chunks) and reports the sum of each segment's
//! best time.
//! Every repetition's output must equal the warm-up's byte for byte. A
//! traced run re-runs the main calls once with spans, replays the sweep
//! as per-benchmark `run_batch` calls, and runs the layer probes on the
//! same traces.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fetchvp_core::{
    run_batch, BtbKind, FrontEnd, IdealConfig, MachineConfig, MachineResult, RealisticConfig,
    VpConfig,
};
use fetchvp_experiments::fig3_1::{self, Fig31Result, FETCH_RATES};
use fetchvp_experiments::fig5_1::{TakenSweepResult, TAKEN_SWEEP};
use fetchvp_experiments::fig5_3::{self, Fig53Result, BANKS};
use fetchvp_experiments::sweep::{BATCH_CHUNK, SUITE_LEN};
use fetchvp_experiments::{fig5_2, ExperimentConfig, Sweep, SweepProgress};
use fetchvp_fetch::TraceCacheConfig;
use fetchvp_predictor::BankedConfig;
use fetchvp_tracestore::{
    run_batch_store, run_batch_store_with_progress, stream_program_to_store, ReplayProgress,
    TraceDir, TraceKey, TraceStore,
};
use fetchvp_workloads::{suite, Workload as Benchmark, WorkloadParams};

use crate::probes::{self, Layers, ProbeInput};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, Summary};
use crate::{digest, peak_rss_mib, secs, Ctx, Workload, SETUPS};

/// One figure a sweep workload regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Figure {
    Fig31,
    Fig52,
    Fig53,
}

impl Figure {
    fn name(self) -> &'static str {
        match self {
            Figure::Fig31 => "fig3-1",
            Figure::Fig52 => "fig5-2",
            Figure::Fig53 => "fig5-3",
        }
    }

    fn main_call(self) -> &'static str {
        match self {
            Figure::Fig31 => "fig3_1::run_with",
            Figure::Fig52 => "fig5_2::run_with",
            Figure::Fig53 => "fig5_3::run_with",
        }
    }

    /// Whether the figure runs the extended suite (with `mgrid`).
    fn extended(self) -> bool {
        self == Figure::Fig53
    }

    /// The configurations the figure's runner sweeps, in its order.
    fn configs(self) -> Vec<MachineConfig> {
        let pair = |vp_of: &dyn Fn(VpConfig) -> MachineConfig| {
            [VpConfig::None, VpConfig::stride_infinite()].map(vp_of)
        };
        match self {
            Figure::Fig31 => FETCH_RATES
                .iter()
                .flat_map(|&fetch_rate| {
                    pair(&|vp| {
                        MachineConfig::Ideal(IdealConfig {
                            fetch_rate,
                            vp,
                            ..IdealConfig::default()
                        })
                    })
                })
                .collect(),
            Figure::Fig52 => TAKEN_SWEEP
                .iter()
                .flat_map(|&max_taken| {
                    let fe = FrontEnd::Conventional {
                        width: 40,
                        max_taken,
                        btb: BtbKind::two_level_paper(),
                    };
                    pair(&|vp| MachineConfig::Realistic(RealisticConfig::paper(fe, vp)))
                })
                .collect(),
            Figure::Fig53 => [BtbKind::two_level_paper(), BtbKind::Perfect]
                .into_iter()
                .flat_map(|btb| {
                    let fe = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb };
                    [
                        MachineConfig::Realistic(RealisticConfig::paper(fe, VpConfig::None)),
                        MachineConfig::Realistic(
                            RealisticConfig::paper(fe, VpConfig::stride_infinite())
                                .with_banked(BankedConfig::new(BANKS)),
                        ),
                    ]
                })
                .collect(),
        }
    }

    /// Runs the figure's `run_with` and renders its CSV, checking the
    /// paper's qualitative shape when `shape` is set.
    fn run(self, sweep: &Sweep, shape: bool) -> (String, Result<(), String>) {
        match self {
            Figure::Fig31 => {
                let r = fig3_1::run_with(sweep);
                let avg = r.averages();
                let ok =
                    !shape || (avg[0].abs() <= 0.05 && avg.windows(2).all(|w| w[1] >= w[0] - 0.03));
                let why = || {
                    format!("fig3-1 shape: fetch-4 VP speedup must be ~0 and the average must not fall with bandwidth: {avg:?}")
                };
                (r.to_table().to_csv(), if ok { Ok(()) } else { Err(why()) })
            }
            Figure::Fig52 => {
                let r = fig5_2::run_with(sweep);
                let avg = r.averages();
                let ok = !shape || avg[avg.len() - 1] >= avg[0];
                let why =
                    || format!("fig5-2 shape: speedup must grow with taken branches: {avg:?}");
                (r.to_table().to_csv(), if ok { Ok(()) } else { Err(why()) })
            }
            Figure::Fig53 => {
                let r = fig5_3::run_with(sweep);
                let (two_level, ideal) = r.averages();
                let ok = !shape || ideal >= two_level - 0.05;
                let why = || {
                    format!("fig5-3 shape: the ideal BTB must not trail the 2-level one: {two_level} vs {ideal}")
                };
                (r.to_table().to_csv(), if ok { Ok(()) } else { Err(why()) })
            }
        }
    }

    /// Renders the CSV the figure's runner would from raw per-benchmark
    /// results (the traced replica's), so the replica can be checked
    /// against the real runner.
    fn csv_from(self, rows: Vec<(String, Vec<MachineResult>)>) -> String {
        let speedups = |r: &[MachineResult]| -> Vec<f64> {
            r.chunks_exact(2).map(|p| p[1].speedup_over(&p[0])).collect()
        };
        match self {
            Figure::Fig31 => {
                let rows = rows.into_iter().map(|(n, r)| (n, speedups(&r))).collect();
                Fig31Result { rows }.to_table().to_csv()
            }
            Figure::Fig52 => {
                let rows = rows.into_iter().map(|(n, r)| (n, speedups(&r))).collect();
                TakenSweepResult { title: String::new(), rows }.to_table().to_csv()
            }
            Figure::Fig53 => {
                let rows = rows
                    .into_iter()
                    .map(|(n, r)| (n, r[1].speedup_over(&r[0]), r[3].speedup_over(&r[2])))
                    .collect();
                Fig53Result { rows }.to_table().to_csv()
            }
        }
    }

    fn benchmarks(self) -> usize {
        if self.extended() {
            SUITE_LEN + 1
        } else {
            SUITE_LEN
        }
    }
}

/// One call into the kernel the traced run timed, for the residual.
#[derive(Debug, Clone)]
struct Call {
    bench: String,
    configs: Vec<MachineConfig>,
    instrs: u64,
    decode: bool,
    ns: f64,
}

/// What a traced re-run collected beyond its spans.
#[derive(Default)]
struct Traced {
    /// Wall time of the main calls, traced.
    main_s: f64,
    calls: Vec<Call>,
    results: Vec<MachineResult>,
    /// `run_with` time against the summed `run_batch` time of the replica
    /// (sweeps only).
    experiments_overhead: Option<f64>,
}

/// The shared shape of the three machine workloads.
trait Machine {
    type State;
    /// Builds fresh state (setup number `k`).
    fn setup(&self, ctx: &Ctx, k: usize) -> io::Result<Self::State>;
    /// One repetition of the main call: returns the digests of its output
    /// and pushes the instant each of its segments (a sweep cell, a
    /// replayed store chunk) ends onto `marks`.
    fn rep(
        &self,
        ctx: &Ctx,
        state: &Self::State,
        out: &mut Outcome,
        marks: &mut Vec<Instant>,
    ) -> io::Result<BTreeMap<String, String>>;
    /// Simulated instructions × configurations per repetition.
    fn work(&self, ctx: &Ctx) -> f64;
    /// Checks run once after timing.
    fn post(&self, _ctx: &Ctx, _state: &Self::State, _out: &mut Outcome) -> io::Result<()> {
        Ok(())
    }
    /// The traced re-run.
    fn traced(
        &self,
        ctx: &Ctx,
        state: &Self::State,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> io::Result<Traced>;
    /// The layer probes over this workload's traces.
    fn probe(
        &self,
        ctx: &Ctx,
        state: &Self::State,
        tracer: &Tracer,
        layers: &mut Layers,
        out: &mut Outcome,
    ) -> io::Result<f64>;
}

/// Runs one machine workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let result = match ctx.workload {
        Workload::IdealFetchSweep => drive(ctx, &Sweeps(&[Figure::Fig31]), out),
        Workload::RealisticFrontendSweep => {
            drive(ctx, &Sweeps(&[Figure::Fig52, Figure::Fig53]), out)
        }
        Workload::OocReplay => drive(ctx, &Ooc, out),
        Workload::ServeMixed => unreachable!("serve_mixed is not a machine workload"),
    };
    if let Err(e) = result {
        out.check(false, || format!("{}: {e}", ctx.workload.name()));
    }
}

fn drive<M: Machine>(ctx: &Ctx, m: &M, out: &mut Outcome) -> io::Result<()> {
    if ctx.traced {
        return drive_traced(ctx, m, out);
    }
    let mut setups = Vec::new();
    let mut state = None;
    for k in 0..SETUPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(m.setup(ctx, k)?);
        setups.push(secs(start));
    }
    let state = state.expect("at least one setup");
    let first = m.rep(ctx, &state, out, &mut Vec::new())?;
    let mut reps = Vec::new();
    let mut segments: Vec<Vec<f64>> = Vec::new();
    let window = Instant::now();
    loop {
        let mut marks = vec![Instant::now()];
        let digests = m.rep(ctx, &state, out, &mut marks)?;
        marks.push(Instant::now());
        reps.push((marks[marks.len() - 1] - marks[0]).as_secs_f64());
        segments.push(marks.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect());
        out.check(digests == first, || {
            format!("repetition {} output differs from the warm-up", reps.len())
        });
        if reps.len() >= ctx.sizes.min_reps && secs(window) + median(&reps) > ctx.seconds {
            break;
        }
    }
    let rss = peak_rss_mib("self").unwrap_or(0.0);
    m.post(ctx, &state, out)?;
    out.digests = first;

    // Best of the repetitions, segment by segment: the work is
    // deterministic and CPU-bound, so co-tenant interference on a shared
    // host only ever adds time, in episodes that can cover several
    // repetitions. The median would follow them; the per-segment minimum
    // finds each cell's quiet run.
    let n = segments[0].len();
    out.check(segments.iter().all(|s| s.len() == n), || {
        "segments differ between repetitions".into()
    });
    let best: f64 =
        (0..n).map(|i| segments.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min)).sum();
    let rep = Summary::of(&reps);
    out.set("setup_s", median(&setups));
    out.set("sim_mips", m.work(ctx) / best / 1e6);
    out.set("peak_rss_mib", rss);
    out.set("op_ms", best * 1e3);
    out.detail("segments", n as f64, "count");
    out.detail("op_best_rep_ms", reps.iter().copied().fold(f64::INFINITY, f64::min) * 1e3, "ms");
    out.detail("op_median_ms", rep.median * 1e3, "ms");
    out.detail("op_q1_ms", rep.q1 * 1e3, "ms");
    out.detail("op_q3_ms", rep.q3 * 1e3, "ms");
    out.detail("reps", reps.len() as f64, "count");
    out.samples.insert("setup_s".into(), setups);
    out.samples.insert("rep_s".into(), reps);
    Ok(())
}

fn drive_traced<M: Machine>(ctx: &Ctx, m: &M, out: &mut Outcome) -> io::Result<()> {
    let state = m.setup(ctx, 0)?;
    let first = m.rep(ctx, &state, out, &mut Vec::new())?;
    let mut untraced = Vec::new();
    for _ in 0..2 {
        let start = Instant::now();
        let digests = m.rep(ctx, &state, out, &mut Vec::new())?;
        untraced.push(secs(start));
        out.check(digests == first, || "untraced repetition differs from the warm-up".to_string());
    }
    out.digests = first;

    let tracer = Tracer::new(Instant::now(), 0, 1);
    let mut layers = Layers::default();
    let (traced, progress) =
        tracer.span("workload", ctx.workload.name(), || -> io::Result<_> {
            let traced = m.traced(ctx, &state, &tracer, out)?;
            let progress = m.probe(ctx, &state, &tracer, &mut layers, out)?;
            Ok((traced, progress))
        })?;
    let untraced_s = median(&untraced);
    set_layer_metrics(&layers, &traced, progress, untraced_s, &tracer, out);
    crate::serve::server_layer(ctx, &tracer, out);
    crate::write_trace(ctx, tracer.into_spans(), out);
    Ok(())
}

/// The per-layer metrics of one `fig3-1` job's `sweep`, measured as the
/// ideal sweep's traced run measures its own: `serve_mixed` replays a job
/// its daemon ran this way. `main_s` and `untraced_s` are the caller's
/// traced and untraced main-call times.
pub(crate) fn job_layers(
    ctx: &Ctx,
    sweep: &Sweep,
    tracer: &Tracer,
    main_s: f64,
    untraced_s: f64,
    out: &mut Outcome,
) -> io::Result<()> {
    let job = Sweeps(&[Figure::Fig31]);
    let mut layers = Layers::default();
    let mut traced = job.traced(ctx, sweep, tracer, out)?;
    let progress = job.probe(ctx, sweep, tracer, &mut layers, out)?;
    traced.main_s = main_s;
    set_layer_metrics(&layers, &traced, progress, untraced_s, tracer, out);
    Ok(())
}

/// Sets every per-layer metric a machine workload's traced run measures
/// itself (the server layer comes from [`crate::serve::server_layer`]).
fn set_layer_metrics(
    layers: &Layers,
    traced: &Traced,
    progress: f64,
    untraced_s: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    for (name, value) in layers.metrics() {
        out.set(name, value);
    }
    let batch_ns: f64 = traced.calls.iter().map(|c| c.ns).sum();
    let estimate: f64 = traced
        .calls
        .iter()
        .map(|c| layers.estimate_ns(&c.bench, &c.configs, c.instrs, c.decode))
        .sum();
    out.set("core.batch.residual_frac", (batch_ns - estimate) / batch_ns);
    out.detail("core.batch.probe_estimate_ms", estimate / 1e6, "ms");
    out.detail("core.batch.measured_ms", batch_ns / 1e6, "ms");
    let (useful, correct) = usefulness(&traced.results);
    out.set("predictor.useful_fraction", useful as f64 / correct.max(1) as f64);
    out.set("predictor.correct_predictions", correct as f64);
    let export =
        tracer.span("probe.metrics.export", "", || probes::export_us_per_result(&traced.results));
    out.set("metrics.export_us_per_result", export);
    out.set("tracing.progress_overhead_frac", progress);
    out.set("bench.trace_overhead_frac", (traced.main_s - untraced_s) / untraced_s);
    if let Some(frac) = traced.experiments_overhead {
        out.detail("experiments.overhead_frac", frac, "ratio");
    }
    out.detail("bench.untraced_s", untraced_s, "s");
    out.detail("bench.traced_s", traced.main_s, "s");
}

/// Useful and correct value predictions over `results` (useful + useless
/// = correct).
pub fn usefulness(results: &[MachineResult]) -> (u64, u64) {
    results.iter().filter(|r| r.vp_stats.is_some()).fold((0, 0), |(u, c), r| {
        (u + r.usefulness.useful, c + r.usefulness.useful + r.usefulness.useless)
    })
}

/// Records when each sweep cell finishes; attached to the timed sweeps so
/// their cells can be timed from outside.
#[derive(Default)]
struct CellClock(Mutex<Vec<Instant>>);

impl SweepProgress for CellClock {
    fn begin(&self, _cells: u64, _instructions_total: u64) {}

    fn retired(&self, _workload: &'static str, _chunk: usize, _store_chunk: usize, _delta: u64) {}

    fn cell_done(&self, _workload: &'static str, _chunk: usize) {
        self.0.lock().expect("cell clock lock").push(Instant::now());
    }
}

/// Records when a chunked replay moves on to each next on-disk chunk, so
/// the replay's chunks can be timed from outside.
struct ChunkClock {
    current: AtomicUsize,
    marks: Mutex<Vec<Instant>>,
}

impl Default for ChunkClock {
    fn default() -> ChunkClock {
        ChunkClock { current: AtomicUsize::new(usize::MAX), marks: Mutex::default() }
    }
}

impl ReplayProgress for ChunkClock {
    fn retired(&self, chunk: usize, _instructions_done: u64) {
        if self.current.swap(chunk, Ordering::Relaxed) != chunk {
            self.marks.lock().expect("chunk clock lock").push(Instant::now());
        }
    }
}

/// The sweep workloads: one or more figures over one pre-warmed sweep.
struct Sweeps(&'static [Figure]);

impl Sweeps {
    fn config(ctx: &Ctx) -> ExperimentConfig {
        ExperimentConfig {
            trace_len: ctx.sizes.sweep_trace_len,
            workloads: WorkloadParams { seed: ctx.seed, scale: 1 },
        }
    }

    fn extended(&self) -> bool {
        self.0.iter().any(|f| f.extended())
    }
}

impl Machine for Sweeps {
    type State = Sweep;

    fn setup(&self, ctx: &Ctx, _k: usize) -> io::Result<Sweep> {
        let sweep = Sweep::with_jobs(&Sweeps::config(ctx), 1);
        for i in 0..sweep.cache().workloads(self.extended()).len() {
            sweep.cache().trace(i);
        }
        Ok(sweep)
    }

    fn rep(
        &self,
        ctx: &Ctx,
        sweep: &Sweep,
        out: &mut Outcome,
        marks: &mut Vec<Instant>,
    ) -> io::Result<BTreeMap<String, String>> {
        let clock = Arc::new(CellClock::default());
        let observed = sweep.with_progress(Arc::clone(&clock) as Arc<dyn SweepProgress>);
        let mut digests = BTreeMap::new();
        for &figure in self.0 {
            let (csv, shape) = figure.run(&observed, ctx.sizes.check_shape);
            out.check(shape.is_ok(), || shape.clone().unwrap_err());
            digests.insert(format!("{}.csv", figure.name()), digest(csv.as_bytes()));
        }
        marks.append(&mut clock.0.lock().expect("cell clock lock"));
        Ok(digests)
    }

    fn work(&self, ctx: &Ctx) -> f64 {
        let len = ctx.sizes.sweep_trace_len as f64;
        self.0.iter().map(|f| f.benchmarks() as f64 * len * f.configs().len() as f64).sum()
    }

    fn traced(
        &self,
        _ctx: &Ctx,
        sweep: &Sweep,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> io::Result<Traced> {
        let mut traced = Traced::default();
        let mut main_csv = BTreeMap::new();
        for &figure in self.0 {
            let start = Instant::now();
            let (csv, _) = tracer.span(figure.main_call(), "", || figure.run(sweep, false));
            traced.main_s += secs(start);
            main_csv.insert(figure, csv);
        }
        let mut batch_s = 0.0;
        tracer.span("replica", "per-benchmark run_batch", || {
            for &figure in self.0 {
                let configs = figure.configs();
                let workloads = sweep.cache().workloads(figure.extended());
                let mut rows = Vec::new();
                for (i, w) in workloads.iter().enumerate() {
                    let trace = sweep.cache().trace(i);
                    let mut results = Vec::new();
                    for (k, chunk) in configs.chunks(BATCH_CHUNK).enumerate() {
                        let detail = format!("{} {} chunk {k}", figure.name(), w.name());
                        let start = Instant::now();
                        let r = tracer.span("run_batch", detail, || run_batch(&trace, chunk));
                        let ns = start.elapsed().as_nanos() as f64;
                        batch_s += ns / 1e9;
                        traced.calls.push(Call {
                            bench: w.name().to_string(),
                            configs: chunk.to_vec(),
                            instrs: trace.len() as u64,
                            decode: false,
                            ns,
                        });
                        results.extend(r);
                    }
                    traced.results.extend(results.iter().cloned());
                    rows.push((w.name().to_string(), results));
                }
                let same = figure.csv_from(rows) == main_csv[&figure];
                out.check(same, || {
                    format!("{}: per-benchmark run_batch disagrees with run_with", figure.name())
                });
            }
        });
        traced.experiments_overhead = Some((traced.main_s - batch_s) / traced.main_s);
        Ok(traced)
    }

    fn probe(
        &self,
        ctx: &Ctx,
        sweep: &Sweep,
        tracer: &Tracer,
        layers: &mut Layers,
        out: &mut Outcome,
    ) -> io::Result<f64> {
        let workloads = sweep.cache().workloads(self.extended());
        tracer.span("probes", "", || {
            for (i, w) in workloads.iter().enumerate() {
                let trace = sweep.cache().trace(i);
                let input = ProbeInput {
                    workload: w,
                    view: trace.view(),
                    table: trace.columns().instr_table(),
                    store: None,
                };
                layers.probe(input, &ctx.scratch, tracer, out);
            }
        });
        let trace = sweep.cache().trace(0);
        let configs = self.0[0].configs();
        let chunk = &configs[..configs.len().min(BATCH_CHUNK)];
        Ok(tracer.span("probe.tracing.progress", workloads[0].name(), || {
            probes::progress_overhead_frac(trace.view(), chunk, out)
        }))
    }
}

/// `ooc_replay`: two benchmarks streamed to `.fvps` stores in set-up,
/// replayed chunk by chunk from a warm trace directory.
struct Ooc;

/// The benchmarks `ooc_replay` stores.
const OOC_BENCHMARKS: [&str; 2] = ["m88ksim", "gcc"];

impl Ooc {
    fn configs() -> [MachineConfig; 2] {
        let tc = FrontEnd::TraceCache {
            config: TraceCacheConfig::paper(),
            btb: BtbKind::two_level_paper(),
        };
        [
            MachineConfig::Ideal(IdealConfig {
                fetch_rate: 16,
                vp: VpConfig::stride_infinite(),
                ..IdealConfig::default()
            }),
            MachineConfig::Realistic(
                RealisticConfig::paper(tc, VpConfig::stride_infinite())
                    .with_banked(BankedConfig::new(BANKS)),
            ),
        ]
    }

    fn benchmarks(ctx: &Ctx) -> Vec<Benchmark> {
        suite(&WorkloadParams { seed: ctx.seed, scale: 1 })
            .into_iter()
            .filter(|w| OOC_BENCHMARKS.contains(&w.name()))
            .collect()
    }

    fn key(ctx: &Ctx, name: &str) -> TraceKey {
        TraceKey::benchmark(name, ctx.seed, 1, ctx.sizes.ooc_trace_len)
    }

    fn root(ctx: &Ctx, k: usize) -> PathBuf {
        ctx.scratch.join(format!("traces-{k}"))
    }

    /// Opens every store through a fresh handle on the warm directory; a
    /// miss is an error (nothing may be generated in a timed run).
    fn open(ctx: &Ctx, root: &Path) -> io::Result<(TraceDir, Vec<(String, TraceStore)>)> {
        let dir = TraceDir::new(root);
        let mut stores = Vec::new();
        for name in OOC_BENCHMARKS {
            let store = dir.open_or_create(&Ooc::key(ctx, name), |_| {
                Err(io::Error::other(format!("store for {name} missing from the warm directory")))
            })?;
            stores.push((name.to_string(), store));
        }
        Ok((dir, stores))
    }

    fn counters_digest(results: &[MachineResult]) -> String {
        let text: String = results.iter().map(|r| r.metrics().counters_json().to_json()).collect();
        digest(text.as_bytes())
    }

    fn check_hits(dir: &TraceDir, out: &mut Outcome) -> f64 {
        let c = dir.counters();
        let ratio = c.hits as f64 / (c.hits + c.misses).max(1) as f64;
        out.check(ratio == 1.0, || format!("tracestore.dir_hit_ratio {ratio} in a warm run"));
        ratio
    }
}

impl Machine for Ooc {
    type State = PathBuf;

    fn setup(&self, ctx: &Ctx, k: usize) -> io::Result<PathBuf> {
        if k > 0 {
            std::fs::remove_dir_all(Ooc::root(ctx, k - 1))?;
        }
        let root = Ooc::root(ctx, k);
        let dir = TraceDir::new(&root);
        for w in Ooc::benchmarks(ctx) {
            dir.open_or_create(&Ooc::key(ctx, w.name()), |path| {
                let file = BufWriter::new(File::create(path)?);
                let len = ctx.sizes.ooc_trace_len;
                stream_program_to_store(w.program(), w.name(), len, ctx.sizes.ooc_chunk_len, file)?;
                Ok(())
            })?;
        }
        Ok(root)
    }

    fn rep(
        &self,
        ctx: &Ctx,
        root: &PathBuf,
        out: &mut Outcome,
        marks: &mut Vec<Instant>,
    ) -> io::Result<BTreeMap<String, String>> {
        let (dir, stores) = Ooc::open(ctx, root)?;
        marks.push(Instant::now());
        let mut digests = BTreeMap::new();
        for (name, store) in &stores {
            let clock = ChunkClock::default();
            let results = run_batch_store_with_progress(store, &Ooc::configs(), Some(&clock))?;
            marks.append(&mut clock.marks.lock().expect("chunk clock lock"));
            marks.push(Instant::now());
            let complete = results.iter().all(|r| r.instructions == ctx.sizes.ooc_trace_len);
            out.check(complete, || {
                format!("{name}: replay ran short of {} instructions", ctx.sizes.ooc_trace_len)
            });
            digests.insert(format!("{name}.counters"), Ooc::counters_digest(&results));
        }
        Ooc::check_hits(&dir, out);
        Ok(digests)
    }

    fn work(&self, ctx: &Ctx) -> f64 {
        (OOC_BENCHMARKS.len() * Ooc::configs().len()) as f64 * ctx.sizes.ooc_trace_len as f64
    }

    /// Chunked replay must equal `run_batch` on the materialized trace.
    fn post(&self, ctx: &Ctx, root: &PathBuf, out: &mut Outcome) -> io::Result<()> {
        let (_, stores) = Ooc::open(ctx, root)?;
        for (name, store) in &stores {
            let chunked = run_batch_store(store, &Ooc::configs())?;
            let in_memory = run_batch(&store.to_trace()?, &Ooc::configs());
            out.check(chunked == in_memory, || {
                format!("{name}: chunked replay differs from in-memory run_batch")
            });
        }
        Ok(())
    }

    fn traced(
        &self,
        ctx: &Ctx,
        root: &PathBuf,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> io::Result<Traced> {
        let mut traced = Traced::default();
        let start = Instant::now();
        let dir = TraceDir::new(root);
        for name in OOC_BENCHMARKS {
            let store = tracer.span("TraceDir::open_or_create", name, || {
                dir.open_or_create(&Ooc::key(ctx, name), |_| Err(io::Error::other("cold store")))
            })?;
            let begin = Instant::now();
            let results = tracer
                .span("run_batch_store", name, || run_batch_store(&store, &Ooc::configs()))?;
            traced.calls.push(Call {
                bench: name.to_string(),
                configs: Ooc::configs().to_vec(),
                instrs: store.len(),
                decode: true,
                ns: begin.elapsed().as_nanos() as f64,
            });
            traced.results.extend(results);
        }
        traced.main_s = secs(start);
        let ratio = Ooc::check_hits(&dir, out);
        out.detail("tracestore.dir_hit_ratio", ratio, "ratio");
        Ok(traced)
    }

    fn probe(
        &self,
        ctx: &Ctx,
        root: &PathBuf,
        tracer: &Tracer,
        layers: &mut Layers,
        out: &mut Outcome,
    ) -> io::Result<f64> {
        let (_, stores) = Ooc::open(ctx, root)?;
        let benchmarks = Ooc::benchmarks(ctx);
        let mut progress = 0.0;
        tracer.span("probes", "", || -> io::Result<()> {
            for (k, (name, store)) in stores.iter().enumerate() {
                let w = benchmarks.iter().find(|w| w.name() == name).expect("stored benchmark");
                let mut cursor = store.cursor()?;
                cursor.load_window(0, ctx.sizes.probe_cap as u64)?;
                let input = ProbeInput {
                    workload: w,
                    view: cursor.view(),
                    table: store.instr_table(),
                    store: Some(store),
                };
                layers.probe(input, &ctx.scratch, tracer, out);
                if k == 0 {
                    progress = tracer.span("probe.tracing.progress", name.as_str(), || {
                        probes::progress_overhead_frac(cursor.view(), &Ooc::configs(), out)
                    });
                }
            }
            Ok(())
        })?;
        Ok(progress)
    }
}
