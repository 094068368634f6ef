//! `fetchvp` — command-line driver for the paper's experiments.
//!
//! ```text
//! fetchvp <experiment> [--trace-len N] [--seed S] [--jobs N] [--csv] [--chart]
//!
//! experiments: every entry of `fetchvp_experiments::registry` — the
//! paper's tables and figures, three extra analyses and twelve ablations
//! (the usage text lists their names); `all` runs the paper's results in
//! paper order and `ablations` every ablation. `--chart` draws the figures
//! that have a bar chart.
//!
//! trace files (the Shade workflow):
//!   save-trace <benchmark> <file>   capture a trace to disk (chunked FVPS format,
//!                                   streamed — works at the paper's 100M scale)
//!   trace-gen <benchmark>           populate the content-addressed trace cache
//!                                   (--trace-dir DIR or $FETCHVP_TRACE_DIR;
//!                                   --out FILE streams to a plain file instead)
//!   trace-info <file>               print a saved trace's statistics (streams
//!                                   the store chunk by chunk)
//!   run-asm <file.s>                assemble, trace and simulate a program
//!
//! out-of-core runs: every experiment accepts --trace-dir DIR (default
//! $FETCHVP_TRACE_DIR); above 8M instructions a run needs it, and every
//! figure, table and ablation then walks its traces from disk chunk by
//! chunk, up to 100M (the commands that need whole traces in memory —
//! the registry's resident entries, trace-viz, atlas, run-asm — stay
//! within 8M).
//!
//! observability:
//!   trace-viz <workload> [--cycles A..B] [--out FILE]
//!                                   export a cycle-accurate pipeline witness as
//!                                   Chrome trace-event JSON (Perfetto-loadable)
//!
//! benchmarking (the perf-regression loop):
//!   bench [--quick] [--repeat N] [--out FILE]
//!                                   run the workload suite (best-of-N cell timing),
//!                                   write BENCH_<date>.json
//!   bench-compare <old> <new> [--threshold PCT]
//!                                   diff two reports, exit nonzero on regression
//!
//! serving (simulation as a service):
//!   serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!         [--result-cache N] [--peers HOST:PORT,...]
//!                                   run the HTTP daemon (see fetchvp-server);
//!                                   --peers lists every fleet member (this
//!                                   process's --addr must appear in it) and
//!                                   shards jobs across them by spec hash
//!   loadgen [--addr HOST:PORT,...] [--rps N] [--duration SECONDS]
//!           [--spec-mix FILE] [--out FILE]
//!                                   open-loop load generator: offered-rate
//!                                   POST /run traffic, reports achieved RPS
//!                                   and p50/p95/p99 latency overall and per
//!                                   response class (2xx / 503 / proxied)
//!   top [--addr HOST:PORT] [--interval SECONDS] [--count N]
//!                                   live fleet dashboard over GET
//!                                   /fleet/metrics: per-member RPS, queue
//!                                   depth, cache hit rate, latency
//!                                   quantiles and running-job progress
//!                                   bars; any member answers for the fleet
//!
//! fuzzing (the standing invariant gate):
//!   fuzz [--cases N] [--seed S] [--max-len N] [--out FILE]
//!                                   differentially fuzz sampled workload-family
//!                                   points across the machine set; nonzero exit
//!                                   on any invariant violation, each printed as
//!                                   a replayable repro tuple
//!   fuzz --replay "TUPLE"           re-check one printed repro tuple
//!   atlas [family] [--trace-len N]  sweep a coarse knob grid and map where the
//!                                   fetch-bandwidth effect is largest
//! ```

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;

use std::sync::Arc;

mod top;

use fetchvp_core::{IdealConfig, IdealMachine, VpConfig};
use fetchvp_experiments::registry::{self, Experiment, Group};
use fetchvp_experiments::{
    atlas, bench, default_jobs, fuzz, jobspec, ExperimentConfig, Sweep, MAX_IN_MEMORY_TRACE_LEN,
};
use fetchvp_isa::parse_program;
use fetchvp_metrics::Json;
use fetchvp_trace::trace_program;
use fetchvp_tracestore::{
    stream_program_to_store, stream_store_stats, TraceDir, TraceKey, TraceStore, DEFAULT_CHUNK_LEN,
};
use fetchvp_workloads::{by_name, WorkloadParams};

/// The usage text. Experiment names come from the registry; the
/// resident-only list names its resident entries and the CLI's own
/// whole-trace commands.
fn usage() -> String {
    let names = |groups: &[Group]| {
        let entries = registry::ENTRIES.iter().filter(|e| groups.contains(&e.group));
        wrapped(entries.map(|e| e.name).chain(groups.iter().filter_map(|g| g.command())))
    };
    let resident = registry::ENTRIES.iter().filter(|e| e.resident).map(|e| e.name).chain(
        COMMANDS.iter().copied().filter(|&c| command_spec(c).is_some_and(|spec| spec.resident)),
    );
    format!(
        "usage: fetchvp <experiment> [--trace-len N] [--seed S] [--jobs N] [--csv] [--chart]
                   [--trace-dir DIR]
experiments: {}
ablations:   {}
trace files: save-trace <benchmark> <file> / trace-gen <benchmark> \
             [--trace-dir DIR | --out FILE] / trace-info <file> / run-asm <file.s>
out-of-core: --trace-dir DIR (or $FETCHVP_TRACE_DIR) walks traces over 8M instructions
             from disk, up to 100M (not {})
tracing:     trace-viz <workload> [--cycles A..B] [--out FILE]
benchmarks:  bench [--quick] [--repeat N] [--out FILE] / bench-compare \
             <old.json> <new.json> [--threshold PCT]
serving:     serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--trace-dir DIR]
             [--result-cache N] [--peers HOST:PORT,...] / loadgen \
             [--addr HOST:PORT,...] [--rps N] [--duration SECONDS] [--spec-mix FILE]
             top [--addr HOST:PORT] [--interval SECONDS] [--count N]
fuzzing:     fuzz [--cases N] [--seed S] [--max-len N] [--replay TUPLE] [--out FILE]
             atlas [family] [--trace-len N]
other:       --version",
        names(&[Group::Paper, Group::Extra]),
        names(&[Group::Ablation]),
        wrapped(resident)
    )
}

/// `words` joined by spaces, wrapped before column 80 with continuation
/// lines indented to the usage text's 13-column labels.
fn wrapped<'a>(words: impl IntoIterator<Item = &'a str>) -> String {
    const INDENT: usize = 13;
    let (mut out, mut column) = (String::new(), INDENT);
    for word in words {
        if column > INDENT && column + 1 + word.len() >= 80 {
            out.push('\n');
            out.push_str(&" ".repeat(INDENT));
            column = INDENT;
        } else if column > INDENT {
            out.push(' ');
            column += 1;
        }
        out.push_str(word);
        column += word.len();
    }
    out
}

/// Every subcommand besides the registry's experiments and group commands,
/// for `did you mean …` suggestions on typos.
const COMMANDS: &[&str] = &[
    "save-trace",
    "trace-gen",
    "trace-info",
    "run-asm",
    "trace-viz",
    "bench",
    "bench-compare",
    "serve",
    "loadgen",
    "top",
    "fuzz",
    "atlas",
];

/// Every flag the parser understands, for used-flag tracking.
const KNOWN_FLAGS: &[&str] = &[
    "--trace-len",
    "--seed",
    "--jobs",
    "--csv",
    "--chart",
    "--quick",
    "--out",
    "--repeat",
    "--threshold",
    "--cycles",
    "--addr",
    "--workers",
    "--queue-depth",
    "--cases",
    "--max-len",
    "--replay",
    "--trace-dir",
    "--result-cache",
    "--peers",
    "--rps",
    "--duration",
    "--spec-mix",
    "--interval",
    "--count",
];

/// Flags shared by every figure/table/ablation experiment command.
const EXPERIMENT_FLAGS: &[&str] = &["--trace-len", "--seed", "--jobs", "--csv", "--trace-dir"];

/// [`EXPERIMENT_FLAGS`] plus `--chart`, for commands that draw a chart.
const CHART_FLAGS: &[&str] =
    &["--trace-len", "--seed", "--jobs", "--csv", "--chart", "--trace-dir"];

/// What one subcommand accepts: its flags and its positional-argument cap.
struct CommandSpec {
    flags: &'static [&'static str],
    positionals: usize,
    /// Needs whole traces in memory, so never runs beyond the in-memory
    /// bound, even with a trace directory.
    resident: bool,
}

/// The accepted surface of each known subcommand. `None` for unknown
/// subcommands (those take the did-you-mean path in [`run_one`]).
fn command_spec(name: &str) -> Option<CommandSpec> {
    let spec = |flags, positionals| Some(CommandSpec { flags, positionals, resident: false });
    let resident = |flags, positionals| Some(CommandSpec { flags, positionals, resident: true });
    match name {
        "save-trace" => spec(&["--trace-len", "--seed"], 2),
        "trace-gen" => spec(&["--trace-len", "--seed", "--trace-dir", "--out"], 1),
        "trace-info" => spec(&[], 1),
        "run-asm" => resident(&["--trace-len", "--seed"], 1),
        "trace-viz" => resident(&["--trace-len", "--seed", "--jobs", "--cycles", "--out"], 1),
        "bench" => spec(
            &["--trace-len", "--seed", "--jobs", "--quick", "--repeat", "--out", "--trace-dir"],
            0,
        ),
        "bench-compare" => spec(&["--threshold"], 2),
        "serve" => spec(
            &["--addr", "--workers", "--queue-depth", "--trace-dir", "--result-cache", "--peers"],
            0,
        ),
        "loadgen" => spec(&["--addr", "--rps", "--duration", "--spec-mix", "--out"], 0),
        "top" => spec(&["--addr", "--interval", "--count"], 0),
        "fuzz" => spec(&["--cases", "--seed", "--max-len", "--replay", "--out"], 0),
        "atlas" => resident(&["--trace-len", "--seed", "--csv"], 1),
        name => {
            // A registry experiment or group: `--chart` only where some
            // member draws one.
            let entries = registry::select(name);
            let charts = entries.iter().any(|e| e.chart.is_some());
            let flags = if charts { CHART_FLAGS } else { EXPERIMENT_FLAGS };
            let resident = entries.iter().any(|e| e.resident);
            (!entries.is_empty()).then_some(CommandSpec { flags, positionals: 0, resident })
        }
    }
}

/// Rejects flags and stray positionals a known subcommand does not take
/// (unknown subcommands are reported with suggestions by [`run_one`]).
fn validate_invocation(opts: &Options) -> Result<(), String> {
    let Some(spec) = command_spec(&opts.experiment) else { return Ok(()) };
    for flag in &opts.used_flags {
        if !spec.flags.contains(flag) {
            let suggestion = spec
                .flags
                .iter()
                .map(|&known| (edit_distance(flag, known), known))
                .min()
                .filter(|&(distance, _)| distance <= 3)
                .map(|(_, known)| format!(" (did you mean `{known}`?)"))
                .unwrap_or_default();
            return Err(format!(
                "`{}` does not take the flag `{flag}`{suggestion}",
                opts.experiment
            ));
        }
    }
    if opts.positionals.len() > spec.positionals {
        return Err(format!(
            "`{}` takes at most {} positional argument(s), got {} (first extra: `{}`)",
            opts.experiment,
            spec.positionals,
            opts.positionals.len(),
            opts.positionals[spec.positionals]
        ));
    }
    Ok(())
}

/// Enforces the in-memory trace-length limit before any generation
/// starts, distinguishing "too big for memory" (with the fix named) from a
/// plainly invalid value.
fn validate_scale(opts: &Options) -> Result<(), String> {
    let n = opts.config.trace_len;
    if n > jobspec::MAX_TRACE_LEN_OOC {
        return Err(format!(
            "--trace-len {n} exceeds even the out-of-core cap of {} instructions",
            jobspec::MAX_TRACE_LEN_OOC
        ));
    }
    // save-trace and trace-gen stream straight to disk at any size.
    let streams = matches!(opts.experiment.as_str(), "save-trace" | "trace-gen");
    let resident = command_spec(&opts.experiment).is_some_and(|spec| spec.resident);
    let replays = opts.resolved_trace_dir().is_some() && !resident;
    if n <= MAX_IN_MEMORY_TRACE_LEN || streams || replays {
        return Ok(());
    }
    Err(format!(
        "--trace-len {n} {}",
        jobspec::over_bound_reason(&opts.experiment, resident, MAX_IN_MEMORY_TRACE_LEN)
    ))
}

/// Levenshtein edit distance — small inputs only (command names).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// The closest known subcommand within 3 edits, if any.
fn nearest_command(name: &str) -> Option<&'static str> {
    let groups = [Group::Paper, Group::Extra, Group::Ablation].map(Group::command);
    let experiments = registry::ENTRIES.iter().map(|e| e.name).chain(groups.into_iter().flatten());
    COMMANDS
        .iter()
        .copied()
        .chain(experiments)
        .map(|cmd| (edit_distance(name, cmd), cmd))
        .min()
        .filter(|&(distance, _)| distance <= 3)
        .map(|(_, cmd)| cmd)
}

struct Options {
    experiment: String,
    /// Extra positional arguments (benchmark name, file paths).
    positionals: Vec<String>,
    config: ExperimentConfig,
    /// Worker threads for the figure sweeps (default: one per logical CPU;
    /// `--jobs 1` forces the serial path).
    jobs: usize,
    csv: bool,
    chart: bool,
    /// `bench`: use the reduced quick configuration.
    quick: bool,
    /// `bench`: output path (default `BENCH_<date>.json`).
    out: Option<String>,
    /// `bench`: timing repetitions per cell (best wall time kept).
    repeat: usize,
    /// `bench-compare`: tolerated throughput drop, percent.
    threshold: f64,
    /// `trace-viz`: restrict the export to events overlapping this
    /// inclusive cycle window.
    cycles: Option<(u64, u64)>,
    /// `serve`: listen address.
    addr: Option<String>,
    /// `serve`: pool worker threads.
    workers: Option<usize>,
    /// `serve`: bounded job-queue capacity.
    queue_depth: Option<usize>,
    /// `serve`: result-cache capacity in entries (0 disables).
    result_cache: Option<usize>,
    /// `serve`: the full fleet membership list, comma-separated.
    peers: Option<String>,
    /// `loadgen`: offered request rate.
    rps: Option<u64>,
    /// `loadgen`: how long to sustain the offered rate, seconds.
    duration: Option<u64>,
    /// `loadgen`: JSON file holding the spec mix (array of job specs).
    spec_mix: Option<String>,
    /// `top`: seconds between dashboard refreshes.
    interval: Option<u64>,
    /// `top`: stop after this many refreshes (default: run until ^C).
    count: Option<u64>,
    /// `fuzz`: cases to sample.
    cases: usize,
    /// `fuzz`: upper bound on each case's trace length.
    max_len: u64,
    /// `fuzz`: re-check one printed repro tuple instead of sampling.
    replay: Option<String>,
    /// Content-addressed trace cache directory (`--trace-dir`, falling
    /// back to `$FETCHVP_TRACE_DIR`).
    trace_dir: Option<String>,
    /// Flags seen on the command line, for per-subcommand validation.
    used_flags: Vec<&'static str>,
}

impl Options {
    /// The trace directory to use: the `--trace-dir` flag, else the
    /// `FETCHVP_TRACE_DIR` environment variable (empty means unset).
    fn resolved_trace_dir(&self) -> Option<std::path::PathBuf> {
        if let Some(dir) = &self.trace_dir {
            return Some(std::path::PathBuf::from(dir));
        }
        std::env::var_os("FETCHVP_TRACE_DIR")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from)
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut experiment = None;
    let mut positionals = Vec::new();
    let mut config = ExperimentConfig::default();
    let mut jobs = default_jobs();
    let mut csv = false;
    let mut chart = false;
    let mut quick = false;
    let mut out = None;
    let mut repeat = 3;
    let mut threshold = 100.0 * bench::DEFAULT_THRESHOLD;
    let mut cycles = None;
    let mut addr = None;
    let mut workers = None;
    let mut queue_depth = None;
    let mut result_cache = None;
    let mut peers = None;
    let mut rps = None;
    let mut duration = None;
    let mut spec_mix = None;
    let mut interval = None;
    let mut count = None;
    let mut cases = fuzz::FuzzOptions::default().cases;
    let mut max_len = fuzz::FuzzOptions::default().max_len;
    let mut replay = None;
    let mut trace_dir = None;
    let mut used_flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = KNOWN_FLAGS.iter().find(|&&f| f == arg.as_str()) {
            used_flags.push(*flag);
        }
        match arg.as_str() {
            "--trace-len" => {
                let v = it.next().ok_or("--trace-len needs a value")?;
                config.trace_len = v.parse().map_err(|_| format!("bad trace length `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                let seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
                config.workloads = WorkloadParams { seed, ..config.workloads };
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad job count `{v}` (need an integer >= 1)"))?;
            }
            "--csv" => csv = true,
            "--chart" => chart = true,
            "--quick" => quick = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out = Some(v.clone());
            }
            "--repeat" => {
                let v = it.next().ok_or("--repeat needs a value")?;
                repeat = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad repeat count `{v}` (need an integer >= 1)"))?;
            }
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                threshold = v
                    .parse()
                    .ok()
                    .filter(|&t: &f64| t.is_finite() && t >= 0.0)
                    .ok_or(format!("bad threshold `{v}` (need a percentage >= 0)"))?;
            }
            "--cycles" => {
                let v = it.next().ok_or("--cycles needs a value (FIRST..LAST)")?;
                let window = v.split_once("..").and_then(|(a, b)| {
                    Some((a.parse().ok()?, b.parse().ok()?)).filter(|&(a, b): &(u64, u64)| a <= b)
                });
                cycles = Some(window.ok_or(format!("bad cycle window `{v}` (need FIRST..LAST)"))?);
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs a value (HOST:PORT)")?;
                addr = Some(v.clone());
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                workers = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or(format!("bad worker count `{v}` (need an integer >= 1)"))?,
                );
            }
            "--queue-depth" => {
                let v = it.next().ok_or("--queue-depth needs a value")?;
                queue_depth = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or(format!("bad queue depth `{v}` (need an integer >= 1)"))?,
                );
            }
            "--cases" => {
                let v = it.next().ok_or("--cases needs a value")?;
                cases = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad case count `{v}` (need an integer >= 1)"))?;
            }
            "--max-len" => {
                let v = it.next().ok_or("--max-len needs a value")?;
                max_len = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad max length `{v}` (need an integer >= 1)"))?;
            }
            "--replay" => {
                let v = it.next().ok_or("--replay needs a repro tuple")?;
                replay = Some(v.clone());
            }
            "--trace-dir" => {
                let v = it.next().ok_or("--trace-dir needs a directory path")?;
                trace_dir = Some(v.clone());
            }
            "--result-cache" => {
                let v = it.next().ok_or("--result-cache needs a value (entries; 0 disables)")?;
                result_cache =
                    Some(v.parse::<usize>().map_err(|_| format!("bad result-cache size `{v}`"))?);
            }
            "--peers" => {
                let v = it.next().ok_or("--peers needs a value (HOST:PORT,HOST:PORT,...)")?;
                peers = Some(v.clone());
            }
            "--rps" => {
                let v = it.next().ok_or("--rps needs a value")?;
                rps = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &u64| n >= 1)
                        .ok_or(format!("bad request rate `{v}` (need an integer >= 1)"))?,
                );
            }
            "--duration" => {
                let v = it.next().ok_or("--duration needs a value (seconds)")?;
                duration = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &u64| n >= 1)
                        .ok_or(format!("bad duration `{v}` (need whole seconds >= 1)"))?,
                );
            }
            "--spec-mix" => {
                let v = it.next().ok_or("--spec-mix needs a JSON file path")?;
                spec_mix = Some(v.clone());
            }
            "--interval" => {
                let v = it.next().ok_or("--interval needs a value (seconds)")?;
                interval = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &u64| n >= 1)
                        .ok_or(format!("bad interval `{v}` (need whole seconds >= 1)"))?,
                );
            }
            "--count" => {
                let v = it.next().ok_or("--count needs a value")?;
                count = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &u64| n >= 1)
                        .ok_or(format!("bad refresh count `{v}` (need an integer >= 1)"))?,
                );
            }
            other if !other.starts_with('-') => {
                if experiment.is_none() {
                    experiment = Some(other.to_string());
                } else {
                    positionals.push(other.to_string());
                }
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    let experiment = experiment.ok_or("no experiment named")?;
    Ok(Options {
        experiment,
        positionals,
        config,
        jobs,
        csv,
        chart,
        quick,
        out,
        repeat,
        threshold,
        cycles,
        addr,
        workers,
        queue_depth,
        result_cache,
        peers,
        rps,
        duration,
        spec_mix,
        interval,
        count,
        cases,
        max_len,
        replay,
        trace_dir,
        used_flags,
    })
}

/// Runs `entries` in order, writing each one's rendering to `out` as soon
/// as it is computed. A reader that hangs up early (`all --csv | head -1`)
/// is not an error: the remaining experiments are skipped and the command
/// succeeds.
fn write_experiments(
    entries: &[&Experiment],
    sweep: &Sweep,
    opts: &Options,
    out: &mut impl Write,
) -> Result<(), String> {
    for entry in entries {
        if !write_output(out, &entry.render(sweep, opts.chart, opts.csv))? {
            break;
        }
    }
    Ok(())
}

/// Writes `text` to `out`; `Ok(false)` means the reader has gone away (a
/// broken pipe), so the caller should stop producing output.
fn write_output(out: &mut impl Write, text: &str) -> Result<bool, String> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(format!("cannot write output: {e}")),
    }
}

fn save_trace(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let [bench, path] = args else {
        return Err("save-trace needs: <benchmark> <file>".into());
    };
    let workload =
        by_name(bench, &cfg.workloads).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    // Streamed generation: the trace goes to disk chunk by chunk, so this
    // works at the paper's 100M scale without materializing anything.
    let file = File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
    let summary = stream_program_to_store(
        workload.program(),
        bench,
        cfg.trace_len,
        DEFAULT_CHUNK_LEN,
        BufWriter::new(file),
    )
    .map_err(|e| format!("write failed: {e}"))?;
    println!(
        "wrote {} instructions of `{bench}` to {path} ({} chunk(s), {} bytes)",
        summary.instructions, summary.chunks, summary.bytes
    );
    Ok(())
}

fn trace_gen(cfg: &ExperimentConfig, opts: &Options) -> Result<(), String> {
    let [bench] = opts.positionals.as_slice() else {
        return Err("trace-gen needs: <benchmark> [--trace-dir DIR | --out FILE]".into());
    };
    if let Some(path) = &opts.out {
        return save_trace(cfg, &[bench.clone(), path.clone()]);
    }
    let workload =
        by_name(bench, &cfg.workloads).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    let root = opts.resolved_trace_dir().or_else(TraceDir::default_root).ok_or(
        "trace-gen needs a destination: --trace-dir DIR, $FETCHVP_TRACE_DIR, or --out FILE \
         (no home directory found for the default ~/.cache/fetchvp)",
    )?;
    let dir = TraceDir::new(root);
    let key = TraceKey::benchmark(bench, cfg.workloads.seed, cfg.workloads.scale, cfg.trace_len);
    let store = dir
        .open_or_create(&key, |path| {
            let file = File::create(path)?;
            stream_program_to_store(
                workload.program(),
                bench,
                cfg.trace_len,
                DEFAULT_CHUNK_LEN,
                BufWriter::new(file),
            )
            .map(|_| ())
        })
        .map_err(|e| format!("cannot populate trace cache: {e}"))?;
    let counters = dir.counters();
    let state = if counters.hits > 0 { "already cached" } else { "generated" };
    println!(
        "{state}: {} instructions of `{bench}` at {} ({} chunk(s))",
        store.len(),
        store.path().display(),
        store.chunks().len()
    );
    Ok(())
}

fn trace_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("trace-info needs: <file>".into());
    };
    // Stats stream per chunk, so a 100M-instruction store is summarized in
    // bounded memory.
    let store = TraceStore::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let stats = stream_store_stats(&store).map_err(|e| format!("read failed: {e}"))?;
    println!("trace `{}` ({:?})", store.name(), store.outcome());
    println!(
        "chunked store: {} chunk(s) of <= {} instructions",
        store.chunks().len(),
        store.chunk_target()
    );
    println!("{stats}");
    Ok(())
}

fn run_asm(cfg: &ExperimentConfig, args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("run-asm needs: <file.s>".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("program");
    let program = parse_program(name, &source).map_err(|e| format!("{path}: {e}"))?;
    let trace = trace_program(&program, cfg.trace_len);
    println!("program `{name}`: {} static instructions", program.len());
    println!(
        "{}
",
        trace.stats()
    );
    for (label, vp) in
        [("baseline (no VP)", VpConfig::None), ("stride VP", VpConfig::stride_infinite())]
    {
        let r = IdealMachine::new(IdealConfig { fetch_rate: 16, vp, ..IdealConfig::default() })
            .run(&trace);
        println!(
            "== ideal machine, fetch 16, {label}
{r}"
        );
    }
    Ok(())
}

fn run_bench(sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let report = bench::run_repeat(sweep, opts.quick, opts.repeat);
    let path = opts.out.clone().unwrap_or_else(|| report.filename());
    let text = report.to_json().to_json() + "\n";
    std::fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!(
        "bench: {} workloads, {} simulated instructions in {:.2}s ({:.0} instr/s)",
        report.workloads.len(),
        report.total_instructions(),
        report.wall_seconds,
        report.sim_ips()
    );
    for w in &report.workloads {
        println!("  {:<10} {:>12} instrs  {:>12.0} instr/s", w.name, w.instructions, w.sim_ips());
    }
    if let Some(c) = &report.trace_cache {
        println!(
            "trace cache: {} hit(s), {} miss(es), {} bytes written",
            c.hits, c.misses, c.bytes
        );
    }
    println!("wrote {path}");
    Ok(())
}

fn run_trace_viz(sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let [workload] = opts.positionals.as_slice() else {
        return Err("trace-viz needs: <workload> [--cycles FIRST..LAST] [--out FILE]".into());
    };
    let viz = fetchvp_experiments::traceviz::run_with(sweep, workload, opts.cycles)?;
    let path = opts.out.clone().unwrap_or_else(|| format!("trace_{workload}.json"));
    std::fs::write(&path, viz.json.clone() + "\n")
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!(
        "trace-viz: {} events ({} dropped) over {} cycles of `{}`",
        viz.events, viz.dropped, viz.result.cycles, viz.workload
    );
    println!("wrote {path} — load it in Perfetto (ui.perfetto.dev) or chrome://tracing");
    Ok(())
}

fn run_bench_compare(opts: &Options) -> Result<(), String> {
    let [old_path, new_path] = opts.positionals.as_slice() else {
        return Err("bench-compare needs: <old.json> <new.json>".into());
    };
    // A missing baseline is the expected state of a fresh checkout (the
    // first bench run creates it), not a regression: warn and pass.
    if !std::path::Path::new(old_path.as_str()).exists() {
        eprintln!(
            "warning: baseline `{old_path}` not found — nothing to compare against; \
             run `fetchvp bench --out {old_path}` to create one"
        );
        println!("OK: no baseline, comparison skipped");
        return Ok(());
    }
    let load = |path: &str| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let outcome = bench::compare(&load(old_path)?, &load(new_path)?, opts.threshold / 100.0)?;
    for warning in &outcome.warnings {
        eprintln!("warning: {warning}");
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    if outcome.passed() {
        println!("OK: no throughput regression beyond {:.1}%", opts.threshold);
        Ok(())
    } else {
        for regression in &outcome.regressions {
            eprintln!("REGRESSION: {regression}");
        }
        Err(format!("{} throughput regression(s)", outcome.regressions.len()))
    }
}

fn run_serve(opts: &Options) -> Result<(), String> {
    let mut config = fetchvp_server::ServerConfig::default();
    if let Some(addr) = &opts.addr {
        config.addr = addr.clone();
    }
    if let Some(workers) = opts.workers {
        config.workers = workers;
    }
    if let Some(queue_depth) = opts.queue_depth {
        config.queue_depth = queue_depth;
    }
    if let Some(entries) = opts.result_cache {
        config.result_cache_entries = entries;
    }
    if let Some(peers) = &opts.peers {
        config.peers = peers.split(',').map(|p| p.trim().to_string()).collect();
    }
    config.trace_dir = opts.resolved_trace_dir();
    if let Some(dir) = &config.trace_dir {
        println!("trace cache: {} (out-of-core jobs enabled)", dir.display());
    }
    let fleet_size = config.peers.len();
    let server =
        fetchvp_server::Server::bind(config).map_err(|e| format!("cannot bind server: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("fetchvp-server listening on {addr}");
    if fleet_size > 0 {
        println!("fleet mode: {fleet_size} members, jobs sharded by spec hash");
    }
    println!(
        "endpoints: POST /run  GET /jobs/<id>  GET /jobs/<id>/events  GET /fleet/metrics  \
         GET /healthz  GET /metrics  POST /shutdown"
    );
    server.run().map_err(|e| format!("server failed: {e}"))?;
    println!("fetchvp-server shut down cleanly");
    Ok(())
}

/// Reads a `--spec-mix` file: a JSON array of job-spec objects (a single
/// object is accepted as a mix of one).
fn read_spec_mix(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let specs: Vec<String> = match &doc {
        Json::Array(items) => items.iter().map(Json::to_json).collect(),
        _ => vec![doc.to_json()],
    };
    if specs.is_empty() {
        return Err(format!("{path}: the spec mix is empty"));
    }
    Ok(specs)
}

fn run_loadgen(opts: &Options) -> Result<(), String> {
    let mut options = fetchvp_server::loadgen::LoadgenOptions::default();
    if let Some(addr) = &opts.addr {
        options.targets = addr.split(',').map(|t| t.trim().to_string()).collect();
    }
    if let Some(rps) = opts.rps {
        options.rps = rps;
    }
    if let Some(seconds) = opts.duration {
        options.duration = std::time::Duration::from_secs(seconds);
    }
    if let Some(path) = &opts.spec_mix {
        options.specs = read_spec_mix(path)?;
    }
    println!(
        "loadgen: {} rps for {:?} against {} (mix of {} spec(s))",
        options.rps,
        options.duration,
        options.targets.join(", "),
        options.specs.len()
    );
    let report = fetchvp_server::loadgen::run(&options)?;
    println!("{}", report.render());
    if let Some(path) = &opts.out {
        let text = report.to_json().to_json() + "\n";
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn run_top(opts: &Options) -> Result<(), String> {
    let mut options = top::TopOptions::default();
    if let Some(addr) = &opts.addr {
        options.addr = addr.clone();
    }
    if let Some(seconds) = opts.interval {
        options.interval = std::time::Duration::from_secs(seconds);
    }
    options.count = opts.count;
    top::run(&options)
}

fn run_fuzz(opts: &Options) -> Result<(), String> {
    if let Some(tuple) = &opts.replay {
        let spec = fuzz::CaseSpec::parse(tuple)?;
        return match fuzz::replay(&spec) {
            None => {
                println!("replay: {spec}\nreplay: every invariant holds");
                Ok(())
            }
            Some(invariant) => {
                println!("replay: {spec}");
                Err(format!("replayed case still fails: {invariant}"))
            }
        };
    }
    if opts.max_len > MAX_IN_MEMORY_TRACE_LEN {
        return Err(format!(
            "--max-len {} exceeds the in-memory limit of {MAX_IN_MEMORY_TRACE_LEN} instructions; \
             fuzzing replays every case in memory and cannot use a trace directory",
            opts.max_len
        ));
    }
    let options = fuzz::FuzzOptions {
        cases: opts.cases,
        seed: opts.config.workloads.seed,
        max_len: opts.max_len,
    };
    let report = fuzz::run(&options);
    print!("{}", report.render());
    if let Some(path) = &opts.out {
        std::fs::write(path, report.repro_lines())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("wrote {} repro tuple(s) to {path}", report.failures.len());
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} invariant failure(s)", report.failures.len()))
    }
}

fn run_atlas(opts: &Options) -> Result<(), String> {
    let family = match opts.positionals.as_slice() {
        [] => "m88ksim",
        [family] => family.as_str(),
        _ => return Err("atlas takes at most one family name".into()),
    };
    // The default 1M-point grid would dominate a CI run; the atlas is a
    // map, not a measurement, so it defaults to the quick length (an
    // explicit --trace-len still wins).
    let trace_len = if opts.used_flags.contains(&"--trace-len") {
        opts.config.trace_len
    } else {
        ExperimentConfig::quick().trace_len
    };
    let table = atlas::run(family, trace_len)?.to_table();
    let text = if opts.csv { table.to_csv() } else { format!("{table}\n") };
    write_output(&mut std::io::stdout().lock(), &text).map(drop)
}

fn run_one(name: &str, sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let cfg = sweep.config();
    let positionals = opts.positionals.as_slice();
    match name {
        "save-trace" => save_trace(cfg, positionals),
        "trace-gen" => trace_gen(cfg, opts),
        "trace-info" => trace_info(positionals),
        "run-asm" => run_asm(cfg, positionals),
        "bench" => run_bench(sweep, opts),
        "bench-compare" => run_bench_compare(opts),
        "trace-viz" => run_trace_viz(sweep, opts),
        "serve" => run_serve(opts),
        "loadgen" => run_loadgen(opts),
        "top" => run_top(opts),
        "fuzz" => run_fuzz(opts),
        "atlas" => run_atlas(opts),
        other => {
            let entries = registry::select(other);
            if entries.is_empty() {
                let suggestion = nearest_command(other)
                    .map(|cmd| format!(" (did you mean `{cmd}`?)"))
                    .unwrap_or_default();
                return Err(format!("unknown experiment `{other}`{suggestion}\n{}", usage()));
            }
            write_experiments(&entries, sweep, opts, &mut std::io::stdout().lock())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("fetchvp {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let options = match parse_args(&args)
        .and_then(|o| validate_invocation(&o).map(|()| o))
        .and_then(|o| validate_scale(&o).map(|()| o))
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // One sweep (and thus one trace cache) shared by everything this
    // invocation runs, including the `all`/`ablations` meta-experiments.
    // `bench --quick` caps the trace length at the quick configuration
    // (an explicit smaller `--trace-len` still wins).
    let mut config = options.config;
    if options.experiment == "bench" && options.quick {
        config.trace_len = config.trace_len.min(ExperimentConfig::quick().trace_len);
    }
    let trace_dir = options.resolved_trace_dir().map(|root| Arc::new(TraceDir::new(root)));
    let sweep = Sweep::with_trace_dir(&config, trace_dir, options.jobs);
    match run_one(&options.experiment, &sweep, &options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_experiment_and_flags() {
        let o = opts(&["fig3-1", "--trace-len", "1000", "--seed", "7", "--csv"]).unwrap();
        assert_eq!(o.experiment, "fig3-1");
        assert_eq!(o.config.trace_len, 1000);
        assert_eq!(o.config.workloads.seed, 7);
        assert_eq!(o.jobs, default_jobs());
        assert!(o.csv);
    }

    #[test]
    fn parses_jobs_flag() {
        let o = opts(&["fig3-1", "--jobs", "4"]).unwrap();
        assert_eq!(o.jobs, 4);
        assert!(opts(&["fig3-1", "--jobs", "0"]).is_err());
        assert!(opts(&["fig3-1", "--jobs", "many"]).is_err());
        assert!(opts(&["fig3-1", "--jobs"]).is_err());
    }

    #[test]
    fn rejects_missing_experiment() {
        assert!(opts(&["--csv"]).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(opts(&["fig3-1", "--wat"]).is_err());
    }

    #[test]
    fn rejects_unknown_experiment() {
        let o = opts(&["fig9-9"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        assert!(run_one(&o.experiment, &sweep, &o).is_err());
    }

    #[test]
    fn table3_2_runs_end_to_end() {
        let o = opts(&["table3-2", "--csv"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        run_one(&o.experiment, &sweep, &o).unwrap();
    }

    #[test]
    fn parses_bench_flags() {
        let o = opts(&["bench", "--quick", "--out", "report.json"]).unwrap();
        assert!(o.quick);
        assert_eq!(o.out.as_deref(), Some("report.json"));
        assert!((o.threshold - 15.0).abs() < 1e-12, "default threshold is 15%");
        assert_eq!(o.repeat, 3, "bench defaults to best-of-3 timing");
        assert!(opts(&["bench", "--out"]).is_err());
    }

    #[test]
    fn parses_repeat() {
        assert_eq!(opts(&["bench", "--repeat", "5"]).unwrap().repeat, 5);
        assert!(opts(&["bench", "--repeat", "0"]).is_err());
        assert!(opts(&["bench", "--repeat", "many"]).is_err());
        assert!(opts(&["bench", "--repeat"]).is_err());
    }

    #[test]
    fn parses_threshold() {
        let o = opts(&["bench-compare", "a.json", "b.json", "--threshold", "7.5"]).unwrap();
        assert_eq!(o.positionals, ["a.json", "b.json"]);
        assert!((o.threshold - 7.5).abs() < 1e-12);
        assert!(opts(&["bench-compare", "--threshold", "-3"]).is_err());
        assert!(opts(&["bench-compare", "--threshold", "wat"]).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let o = opts(&["serve", "--addr", "127.0.0.1:0", "--workers", "3", "--queue-depth", "5"])
            .unwrap();
        assert_eq!(o.experiment, "serve");
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.queue_depth, Some(5));
        assert!(opts(&["serve", "--workers", "0"]).is_err());
        assert!(opts(&["serve", "--queue-depth", "nope"]).is_err());
        assert!(opts(&["serve", "--addr"]).is_err());
    }

    #[test]
    fn usage_mentions_serve_and_version() {
        let usage = usage();
        assert!(usage.contains("serve [--addr HOST:PORT]"));
        assert!(usage.contains("loadgen"));
        assert!(usage.contains("--peers"));
        assert!(usage.contains("--version"));
        for entry in registry::ENTRIES {
            assert!(
                usage.contains(&format!(" {} ", entry.name))
                    || usage.contains(&format!(" {}\n", entry.name)),
                "{}",
                entry.name
            );
        }
        assert!(usage.contains("(not breakdown run-asm trace-viz atlas)"), "{usage}");
    }

    #[test]
    fn parses_fleet_serve_flags() {
        let o = opts(&[
            "serve",
            "--addr",
            "127.0.0.1:7001",
            "--peers",
            "127.0.0.1:7001, 127.0.0.1:7002",
            "--result-cache",
            "512",
        ])
        .unwrap();
        validate_invocation(&o).unwrap();
        assert_eq!(o.peers.as_deref(), Some("127.0.0.1:7001, 127.0.0.1:7002"));
        assert_eq!(o.result_cache, Some(512));
        // 0 disables the cache and must parse.
        assert_eq!(opts(&["serve", "--result-cache", "0"]).unwrap().result_cache, Some(0));
        assert!(opts(&["serve", "--result-cache", "lots"]).is_err());
        assert!(opts(&["serve", "--peers"]).is_err());
        // --peers belongs to serve, not the experiments.
        let o = opts(&["fig3-1", "--peers", "127.0.0.1:7001"]).unwrap();
        assert!(validate_invocation(&o).is_err());
    }

    #[test]
    fn parses_loadgen_flags() {
        let o = opts(&[
            "loadgen",
            "--addr",
            "127.0.0.1:7001,127.0.0.1:7002",
            "--rps",
            "1500",
            "--duration",
            "3",
            "--spec-mix",
            "mix.json",
            "--out",
            "report.json",
        ])
        .unwrap();
        validate_invocation(&o).unwrap();
        assert_eq!(o.rps, Some(1500));
        assert_eq!(o.duration, Some(3));
        assert_eq!(o.spec_mix.as_deref(), Some("mix.json"));
        assert_eq!(o.out.as_deref(), Some("report.json"));
        assert!(opts(&["loadgen", "--rps", "0"]).is_err());
        assert!(opts(&["loadgen", "--duration", "0.5"]).is_err());
        // loadgen is a client: it takes no server-side flags.
        let o = opts(&["loadgen", "--workers", "4"]).unwrap();
        assert!(validate_invocation(&o).is_err());
    }

    #[test]
    fn spec_mix_files_accept_arrays_and_single_objects() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-mix-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mix.json");
        std::fs::write(&path, r#"[{"experiment": "table3-1"}, {"experiment": "accuracy"}]"#)
            .unwrap();
        let specs = read_spec_mix(path.to_str().unwrap()).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs[0].contains("table3-1"));
        std::fs::write(&path, r#"{"experiment": "breakdown"}"#).unwrap();
        assert_eq!(read_spec_mix(path.to_str().unwrap()).unwrap().len(), 1);
        std::fs::write(&path, "[]").unwrap();
        assert!(read_spec_mix(path.to_str().unwrap()).is_err());
        std::fs::write(&path, "not json").unwrap();
        assert!(read_spec_mix(path.to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("serve", "serve"), 0);
        assert_eq!(edit_distance("serv", "serve"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn unknown_experiments_get_a_suggestion() {
        assert_eq!(nearest_command("serv"), Some("serve"));
        assert_eq!(nearest_command("ablation-bank"), Some("ablation-banks"));
        assert_eq!(nearest_command("fig51"), Some("fig5-1"));
        assert_eq!(nearest_command("zzzzzzzzzzzz"), None);
        let o = opts(&["benhc"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        let err = run_one(&o.experiment, &sweep, &o).unwrap_err();
        assert!(err.contains("did you mean `bench`?"), "{err}");
    }

    #[test]
    fn parses_cycles_window() {
        let o = opts(&["trace-viz", "gcc", "--cycles", "100..500"]).unwrap();
        assert_eq!(o.experiment, "trace-viz");
        assert_eq!(o.positionals, ["gcc"]);
        assert_eq!(o.cycles, Some((100, 500)));
        assert!(opts(&["trace-viz", "gcc", "--cycles", "500..100"]).is_err());
        assert!(opts(&["trace-viz", "gcc", "--cycles", "abc"]).is_err());
        assert!(opts(&["trace-viz", "gcc", "--cycles"]).is_err());
    }

    #[test]
    fn trace_viz_needs_a_workload() {
        let o = opts(&["trace-viz"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        assert!(run_one(&o.experiment, &sweep, &o).is_err());
    }

    #[test]
    fn rejects_inapplicable_known_flags() {
        // Regression: `fetchvp table3-1 --quick` used to exit 0, silently
        // ignoring the flag. Known flags must be rejected on subcommands
        // that do not take them.
        let o = opts(&["table3-1", "--quick"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("does not take the flag `--quick`"), "{err}");

        // Near-miss flags get the did-you-mean path.
        let o = opts(&["fuzz", "--cycles", "0..9"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("did you mean `--cases`?"), "{err}");

        // Regression: `fetchvp table3-1 --chart` used to exit 0 and print
        // the table. Only experiments that draw a chart take the flag;
        // `all` does (four of its members chart), `ablations` does not.
        for experiment in ["table3-1", "fig3-3", "usefulness", "ablation-tc", "ablations"] {
            let o = opts(&[experiment, "--chart"]).unwrap();
            let err = validate_invocation(&o).unwrap_err();
            assert!(err.contains("does not take the flag `--chart`"), "{experiment}: {err}");
        }

        // Applicable flags still pass on every surface they belong to.
        for line in [
            vec!["fig3-1", "--trace-len", "500", "--jobs", "2", "--csv", "--chart"],
            vec!["fig5-3", "--chart"],
            vec!["all", "--chart"],
            vec!["ablations", "--csv", "--trace-dir", "/tmp/x"],
            vec!["bench", "--quick", "--repeat", "2", "--out", "r.json"],
            vec!["trace-viz", "gcc", "--cycles", "0..9", "--out", "t.json"],
            vec!["serve", "--addr", "127.0.0.1:0", "--workers", "2"],
            vec!["fuzz", "--cases", "8", "--seed", "7", "--max-len", "900"],
            vec!["atlas", "mgrid", "--trace-len", "800"],
        ] {
            let o = opts(&line).unwrap();
            validate_invocation(&o).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
    }

    #[test]
    fn rejects_stray_positionals() {
        // Regression: `fetchvp fig3-1 extra` used to exit 0 with the
        // stray word silently dropped.
        let o = opts(&["fig3-1", "extra"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("positional"), "{err}");
        assert!(err.contains("`extra`"), "{err}");
        validate_invocation(&opts(&["save-trace", "gcc", "f.bin"]).unwrap()).unwrap();
        assert!(validate_invocation(&opts(&["save-trace", "gcc", "f.bin", "x"]).unwrap()).is_err());
    }

    #[test]
    fn unknown_subcommands_still_take_the_suggestion_path() {
        // validate_invocation must not shadow run_one's did-you-mean
        // handling for unknown subcommands.
        let o = opts(&["benhc", "--quick"]).unwrap();
        validate_invocation(&o).unwrap();
    }

    #[test]
    fn parses_fuzz_flags() {
        let o = opts(&["fuzz", "--cases", "16", "--seed", "7", "--max-len", "9000"]).unwrap();
        assert_eq!(o.cases, 16);
        assert_eq!(o.config.workloads.seed, 7);
        assert_eq!(o.max_len, 9000);
        assert!(o.replay.is_none());
        assert!(opts(&["fuzz", "--cases", "0"]).is_err());
        assert!(opts(&["fuzz", "--max-len", "wat"]).is_err());
        assert!(opts(&["fuzz", "--replay"]).is_err());
        let o = opts(&["fuzz", "--replay", "gcc did=1 len=600"]).unwrap();
        assert_eq!(o.replay.as_deref(), Some("gcc did=1 len=600"));
    }

    #[test]
    fn fuzz_replay_runs_end_to_end() {
        let o = opts(&["fuzz", "--replay", "m88ksim did=0.5 len=600"]).unwrap();
        run_fuzz(&o).unwrap();
        let o = opts(&["fuzz", "--replay", "nonesuch len=600"]).unwrap();
        assert!(run_fuzz(&o).is_err());
    }

    #[test]
    fn atlas_rejects_unknown_families() {
        let o = opts(&["atlas", "nonesuch"]).unwrap();
        assert!(run_atlas(&o).is_err());
    }

    #[test]
    fn parses_trace_dir_flag() {
        let o = opts(&["fig3-1", "--trace-dir", "/tmp/fetchvp-cache"]).unwrap();
        assert_eq!(o.trace_dir.as_deref(), Some("/tmp/fetchvp-cache"));
        validate_invocation(&o).unwrap();
        assert!(opts(&["fig3-1", "--trace-dir"]).is_err());
        // Surfaces that never read traces from disk reject the flag.
        let o = opts(&["trace-info", "f.bin", "--trace-dir", "/tmp/x"]).unwrap();
        assert!(validate_invocation(&o).is_err());
        // serve and trace-gen accept it.
        validate_invocation(&opts(&["serve", "--trace-dir", "/tmp/x"]).unwrap()).unwrap();
        validate_invocation(&opts(&["trace-gen", "gcc", "--trace-dir", "/tmp/x"]).unwrap())
            .unwrap();
    }

    #[test]
    fn scale_gate_distinguishes_capability_from_invalid() {
        let big = "20000000";
        for experiment in ["fig3-1", "fig3-3", "accuracy", "ablation-fetch", "all", "ablations"] {
            // Without a trace dir: the error names the fix.
            let o = opts(&[experiment, "--trace-len", big]).unwrap();
            if o.resolved_trace_dir().is_none() {
                let err = validate_scale(&o).unwrap_err();
                assert!(err.contains("--trace-dir"), "{experiment}: {err}");
            }
            // The same length with a dir passes the gate.
            let o = opts(&[experiment, "--trace-len", big, "--trace-dir", "/tmp/x"]).unwrap();
            validate_scale(&o).unwrap();
        }
        // Resident-only commands are blamed even with a dir.
        let o = opts(&["breakdown", "--trace-len", big, "--trace-dir", "/tmp/x"]).unwrap();
        let err = validate_scale(&o).unwrap_err();
        assert!(err.contains("needs whole resident traces"), "{err}");
        assert!(err.contains(&MAX_IN_MEMORY_TRACE_LEN.to_string()), "{err}");
        // save-trace streams at any in-cap size.
        let o = opts(&["save-trace", "gcc", "f.fvps", "--trace-len", big]).unwrap();
        validate_scale(&o).unwrap();
        // Beyond even the out-of-core cap: plainly invalid.
        let too_big = (jobspec::MAX_TRACE_LEN_OOC + 1).to_string();
        let o = opts(&["fig3-1", "--trace-len", &too_big, "--trace-dir", "/tmp/x"]).unwrap();
        let err = validate_scale(&o).unwrap_err();
        assert!(err.contains("out-of-core cap"), "{err}");
    }

    #[test]
    fn fuzz_rejects_out_of_core_max_len() {
        let big = (MAX_IN_MEMORY_TRACE_LEN + 1).to_string();
        let o = opts(&["fuzz", "--max-len", &big]).unwrap();
        let err = run_fuzz(&o).unwrap_err();
        assert!(err.contains("in memory"), "{err}");
        assert!(err.contains(&MAX_IN_MEMORY_TRACE_LEN.to_string()), "{err}");
    }

    #[test]
    fn save_trace_writes_chunked_stores_and_trace_info_reads_them() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("go.fvps");
        let o = opts(&["save-trace", "go", store_path.to_str().unwrap(), "--trace-len", "500"])
            .unwrap();
        save_trace(&o.config, &o.positionals).unwrap();
        let magic = &std::fs::read(&store_path).unwrap()[..4];
        assert_eq!(magic, fetchvp_tracestore::MAGIC, "save-trace must write the chunked format");
        trace_info(&[store_path.to_str().unwrap().to_string()]).unwrap();
        // Anything else is refused, not misread.
        let other = dir.join("not-a-store.bin");
        std::fs::write(&other, b"not a trace store, just some bytes").unwrap();
        assert!(trace_info(&[other.to_str().unwrap().to_string()]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_gen_populates_and_reuses_the_cache() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-gen-{}", std::process::id()));
        let o = opts(&[
            "trace-gen",
            "compress",
            "--trace-len",
            "400",
            "--trace-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        trace_gen(&o.config, &o).unwrap();
        let files = || {
            std::fs::read_dir(&dir)
                .map(|entries| entries.filter_map(Result::ok).count())
                .unwrap_or(0)
        };
        assert_eq!(files(), 1, "one store generated");
        trace_gen(&o.config, &o).unwrap();
        assert_eq!(files(), 1, "second run reuses the cached store");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_compare_passes_when_the_baseline_is_missing() {
        let o = opts(&["bench-compare", "/nonexistent/baseline.json", "new.json"]).unwrap();
        run_one(&o.experiment, &Sweep::with_jobs(&o.config, o.jobs), &o).unwrap();
    }

    /// A writer whose reader has hung up.
    #[derive(Default)]
    struct HungUp {
        writes: usize,
    }

    impl Write for HungUp {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            Err(ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_stops_the_run_and_succeeds() {
        // Regression: `fetchvp all --csv | head -1` panicked with "failed
        // printing to stdout: Broken pipe" and exited 101.
        let o = opts(&["all", "--csv", "--trace-len", "300"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, 1);
        let mut out = HungUp::default();
        write_experiments(&registry::select("all"), &sweep, &o, &mut out).unwrap();
        assert_eq!(out.writes, 1, "the first failed write ends the run");
        // Any other write error is still an error.
        let err = write_output(&mut [0u8; 2].as_mut_slice(), "too long").unwrap_err();
        assert!(err.contains("cannot write output"), "{err}");
    }

    #[test]
    fn bench_compare_needs_two_files() {
        let o = opts(&["bench-compare", "only-one.json"]).unwrap();
        let sweep = Sweep::with_jobs(&o.config, o.jobs);
        assert!(run_one(&o.experiment, &sweep, &o).is_err());
    }
}
