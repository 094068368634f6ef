//! The fetchvp benchmark: four workloads that together exercise every
//! layer of the simulator and its daemon, measured end to end with
//! tracing off and layer by layer in a separate traced run.
//!
//! | workload | main call | layers it stresses |
//! |---|---|---|
//! | `ideal_fetch_sweep` | `fig3_1::run_with` | scheduler, stride table |
//! | `realistic_frontend_sweep` | `fig5_2::run_with` + `fig5_3::run_with` | fetch engines, BTB, §4 banked table |
//! | `ooc_replay` | `TraceDir::open_or_create` + `run_batch_store` | `.fvps` decode |
//! | `serve_mixed` | HTTP against `fetchvp-cli serve` | event loop, queue, result cache |
//!
//! The harness measures each layer from outside, by timing calls into the
//! public functions of the workspace crates (and HTTP exchanges with the
//! real daemon binary); it changes no simulator code. See `README.md` in
//! this directory for the metric definitions and how to read the output.

pub mod golden;
pub mod http;
pub mod machine;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

/// The default workload seed (0x5EED1998), the workspace's own default.
pub const DEFAULT_SEED: u64 = 0x5EED_1998;

/// The held-out seed (0x5EED2026): golden digests are pinned for it too,
/// and a performance claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_2026;

/// Default measurement window per run, seconds (BENCHMARK.json's
/// `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3.1 on a pre-warmed in-memory sweep.
    IdealFetchSweep,
    /// Figures 5.2 and 5.3 on a pre-warmed in-memory sweep.
    RealisticFrontendSweep,
    /// Chunked replay of on-disk `.fvps` stores.
    OocReplay,
    /// Cold jobs and cached hits against the real daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::IdealFetchSweep,
        Workload::RealisticFrontendSweep,
        Workload::OocReplay,
        Workload::ServeMixed,
    ];

    /// The workload's name as BENCHMARK.json spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IdealFetchSweep => "ideal_fetch_sweep",
            Workload::RealisticFrontendSweep => "realistic_frontend_sweep",
            Workload::OocReplay => "ooc_replay",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `full` is the benchmark; `smoke` runs every code path at
/// tiny sizes so the harness itself can be tested in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Instructions per benchmark trace in the two sweeps.
    pub sweep_trace_len: u64,
    /// Instructions per on-disk store in `ooc_replay`.
    pub ooc_trace_len: u64,
    /// Instructions per `.fvps` chunk in `ooc_replay`.
    pub ooc_chunk_len: usize,
    /// `trace_len` of each cold job in `serve_mixed`.
    pub cold_trace_len: u64,
    /// `trace_len` of each pre-warmed cached spec in `serve_mixed`.
    pub warm_trace_len: u64,
    /// Cold jobs submitted at least, whatever the window.
    pub min_cold_jobs: usize,
    /// Timed repetitions at least, whatever the window.
    pub min_reps: usize,
    /// Instructions per benchmark the layer probes walk at most.
    pub probe_cap: usize,
    /// Whether to pin the paper's qualitative shape (meaningless on tiny
    /// traces).
    pub check_shape: bool,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        sweep_trace_len: 1_000_000,
        ooc_trace_len: 8_000_000,
        ooc_chunk_len: fetchvp_tracestore::DEFAULT_CHUNK_LEN,
        cold_trace_len: 20_000,
        warm_trace_len: 10_000,
        min_cold_jobs: 200,
        min_reps: 5,
        probe_cap: 2_000_000,
        check_shape: true,
    };

    /// Tiny sizes for the harness's own tests.
    pub const SMOKE: Sizes = Sizes {
        sweep_trace_len: 3_000,
        ooc_trace_len: 20_000,
        ooc_chunk_len: 4_096,
        cold_trace_len: 1_000,
        warm_trace_len: 500,
        min_cold_jobs: 10,
        min_reps: 1,
        probe_cap: 20_000,
        check_shape: false,
    };
}

/// Everything one workload run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// Workload data seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub traced: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// The `fetchvp-cli` binary (for the daemon).
    pub cli: PathBuf,
    /// Private scratch directory for stores and traces; removed when the
    /// run ends.
    pub scratch: PathBuf,
    /// Where the Chrome trace goes in a traced run.
    pub trace_out: PathBuf,
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a digest of `bytes` as 16 hex digits (the golden-file format).
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fetchvp_tracestore::fnv1a(bytes))
}

/// Runs one workload in this process and returns what it measured,
/// golden digests checked against `golden` when it pins this seed.
pub fn run_workload(ctx: &Ctx, golden: Option<&golden::Golden>) -> report::Outcome {
    let mut out = report::Outcome::default();
    match std::fs::create_dir_all(&ctx.scratch) {
        Ok(()) => match ctx.workload {
            Workload::ServeMixed => serve::run(ctx, &mut out),
            _ => machine::run(ctx, &mut out),
        },
        Err(e) => out.check(false, || format!("scratch directory {}: {e}", ctx.scratch.display())),
    }
    if let Some(golden) = golden {
        if golden.check(ctx.seed, ctx.workload.name(), &mut out) {
            out.detail("golden_pinned", 1.0, "bool");
        }
    }
    let removed = std::fs::remove_dir_all(&ctx.scratch);
    out.check(removed.is_ok(), || format!("removing scratch directory: {removed:?}"));
    out.require(if ctx.traced { &report::PER_LAYER } else { &report::END_TO_END });
    out
}

/// Writes a traced run's spans as Chrome trace-event JSON to
/// `ctx.trace_out` and prints the self-time table.
pub fn write_trace(ctx: &Ctx, spans: Vec<spans::Span>, out: &mut report::Outcome) {
    let doc = spans::chrome_trace(&spans, &format!("fetchvp-benchmark {}", ctx.workload.name()));
    let written = std::fs::write(&ctx.trace_out, doc.to_json());
    out.check(written.is_ok(), || format!("writing {}: {written:?}", ctx.trace_out.display()));
    println!("{:<40} {:>7} {:>12} {:>12}", "span", "count", "total ms", "self ms");
    for row in spans::self_times(&spans) {
        println!("{:<40} {:>7} {:>12.3} {:>12.3}", row.name, row.count, row.total_ms, row.self_ms);
    }
    println!("trace: {} ({} spans)", ctx.trace_out.display(), spans.len());
}
