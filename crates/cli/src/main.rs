//! `fetchvp` — command-line driver for the paper's experiments.
//!
//! Every entry of `fetchvp_experiments::registry` (the paper's tables and
//! figures, the extra analyses and the ablations) is a subcommand, and so
//! is each tool in [`COMMANDS`]: trace files, the pipeline witness, the
//! counter report, the daemon and its dashboard, the fuzzer and the
//! scenario atlas. Each flag is one [`FLAGS`] row. [`usage`] prints the
//! whole surface; the README walks through it.

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

mod top;

use fetchvp_core::{IdealConfig, IdealMachine, VpConfig};
use fetchvp_experiments::registry::{self, Experiment, Group};
use fetchvp_experiments::{
    atlas, bench, default_jobs, fuzz, jobspec, ExperimentConfig, Sweep, MAX_IN_MEMORY_TRACE_LEN,
};
use fetchvp_isa::parse_program;
use fetchvp_trace::trace_program;
use fetchvp_tracestore::{
    stream_program_to_store, stream_store_stats, TraceDir, TraceKey, TraceStore, DEFAULT_CHUNK_LEN,
};
use fetchvp_workloads::by_name;

/// The usage text. Experiment names come from the registry; the
/// resident-only list names its resident entries and the CLI's own
/// whole-trace commands.
fn usage() -> String {
    let names = |groups: &[Group]| {
        let entries = registry::ENTRIES.iter().filter(|e| groups.contains(&e.group));
        wrapped(entries.map(|e| e.name).chain(groups.iter().filter_map(|g| g.command())))
    };
    let resident = registry::ENTRIES.iter().filter(|e| e.resident).map(|e| e.name);
    let resident =
        resident.chain(COMMANDS.iter().filter(|(_, c)| c.resident).map(|&(name, _)| name));
    format!(
        "usage: fetchvp <experiment> [--trace-len N] [--seed S] [--jobs N] [--csv] [--chart]
                   [--trace-dir DIR]
experiments: {}
ablations:   {}
trace files: trace-gen <benchmark> [--trace-dir DIR | --out FILE]
             trace-info <file> / run-asm <file.s>
out-of-core: --trace-dir DIR (or $FETCHVP_TRACE_DIR) walks traces over 8M instructions
             from disk, up to 100M (not {})
tracing:     trace-viz <workload> [--cycles A..B] [--out FILE]
counters:    bench (the suite's JSON counter report)
serving:     serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--trace-dir DIR]
             [--result-cache N] [--peers HOST:PORT,...]
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

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// What the missing-value error says the flag needs (`--addr needs a
    /// value (HOST:PORT)`); `None` for a switch, which takes no value.
    needs: Option<&'static str>,
    /// Whether a value is acceptable.
    check: fn(&str) -> bool,
    /// What the bad-value error calls a rejected value, and the hint
    /// after it: ``bad job count `0` (need an integer >= 1)``.
    bad: (&'static str, &'static str),
}

/// A flag whose value must pass `check`.
const fn checked(
    name: &'static str,
    needs: &'static str,
    check: fn(&str) -> bool,
    what: &'static str,
    hint: &'static str,
) -> Flag {
    Flag { name, needs: Some(needs), check, bad: (what, hint) }
}

/// A flag that takes any text.
const fn text(name: &'static str, needs: &'static str) -> Flag {
    checked(name, needs, |_| true, "", "")
}

/// A switch.
const fn switch(name: &'static str) -> Flag {
    Flag { name, needs: None, check: |_| true, bad: ("", "") }
}

fn integer(v: &str) -> bool {
    v.parse::<u64>().is_ok()
}

fn positive(v: &str) -> bool {
    v.parse::<u64>().is_ok_and(|n| n >= 1)
}

/// `FIRST..LAST`, an inclusive cycle window.
fn cycle_window(v: &str) -> Option<(u64, u64)> {
    let (first, last) = v.split_once("..")?;
    Some((first.parse().ok()?, last.parse().ok()?)).filter(|(first, last)| first <= last)
}

fn window(v: &str) -> bool {
    cycle_window(v).is_some()
}

const AN_INTEGER: &str = " (need an integer >= 1)";

/// Every flag the parser understands.
const FLAGS: &[Flag] = &[
    checked("--trace-len", "a value", positive, "trace length", AN_INTEGER),
    checked("--seed", "a value", integer, "seed", ""),
    checked("--jobs", "a value", positive, "job count", AN_INTEGER),
    switch("--csv"),
    switch("--chart"),
    text("--out", "a value"),
    checked("--cycles", "a value (FIRST..LAST)", window, "cycle window", " (need FIRST..LAST)"),
    text("--addr", "a value (HOST:PORT)"),
    checked("--workers", "a value", positive, "worker count", AN_INTEGER),
    checked("--queue-depth", "a value", positive, "queue depth", AN_INTEGER),
    checked("--cases", "a value", positive, "case count", AN_INTEGER),
    checked("--max-len", "a value", positive, "max length", AN_INTEGER),
    text("--replay", "a repro tuple"),
    text("--trace-dir", "a directory path"),
    checked("--result-cache", "a value (entries; 0 disables)", integer, "result-cache size", ""),
    text("--peers", "a value (HOST:PORT,HOST:PORT,...)"),
    checked("--interval", "a value (seconds)", positive, "interval", " (need whole seconds >= 1)"),
    checked("--count", "a value", positive, "refresh count", AN_INTEGER),
];

/// Flags shared by every figure/table/ablation experiment command.
const EXPERIMENT_FLAGS: &[&str] = &["--trace-len", "--seed", "--jobs", "--csv", "--trace-dir"];

/// [`EXPERIMENT_FLAGS`] plus `--chart`, for commands that draw a chart.
const CHART_FLAGS: &[&str] =
    &["--trace-len", "--seed", "--jobs", "--csv", "--chart", "--trace-dir"];

/// What runs a subcommand.
type Run = fn(&Sweep, &Options) -> Result<(), String>;

/// What one subcommand accepts and what runs it.
#[derive(Clone, Copy)]
struct Command {
    flags: &'static [&'static str],
    /// The most positional arguments it takes.
    positionals: usize,
    /// Needs whole traces in memory, so never runs beyond the in-memory
    /// bound, even with a trace directory.
    resident: bool,
    run: Run,
}

/// A command that can walk traces from disk.
const fn tool(flags: &'static [&'static str], positionals: usize, run: Run) -> Command {
    Command { flags, positionals, resident: false, run }
}

/// A command that needs whole traces in memory.
const fn resident(flags: &'static [&'static str], positionals: usize, run: Run) -> Command {
    Command { flags, positionals, resident: true, run }
}

/// Every subcommand besides the registry's experiments and group commands.
const COMMANDS: &[(&str, Command)] = &[
    ("trace-gen", tool(&["--trace-len", "--seed", "--trace-dir", "--out"], 1, trace_gen)),
    ("trace-info", tool(&[], 1, trace_info)),
    ("run-asm", resident(&["--trace-len", "--seed"], 1, run_asm)),
    (
        "trace-viz",
        resident(&["--trace-len", "--seed", "--jobs", "--cycles", "--out"], 1, run_trace_viz),
    ),
    ("bench", tool(&["--trace-len", "--seed", "--jobs", "--trace-dir"], 0, run_bench)),
    (
        "serve",
        tool(
            &["--addr", "--workers", "--queue-depth", "--trace-dir", "--result-cache", "--peers"],
            0,
            run_serve,
        ),
    ),
    ("top", tool(&["--addr", "--interval", "--count"], 0, run_top)),
    ("fuzz", tool(&["--cases", "--seed", "--max-len", "--replay", "--out"], 0, run_fuzz)),
    ("atlas", resident(&["--trace-len", "--seed", "--csv"], 1, run_atlas)),
];

/// The accepted surface of each known subcommand. `None` for unknown
/// subcommands (those take the did-you-mean path in [`run_one`]).
fn command_spec(name: &str) -> Option<Command> {
    if let Some(&(_, command)) = COMMANDS.iter().find(|&&(known, _)| known == name) {
        return Some(command);
    }
    // A registry experiment or group: `--chart` only where some member
    // draws one.
    let entries = registry::select(name);
    let charts = entries.iter().any(|e| e.chart.is_some());
    let flags = if charts { CHART_FLAGS } else { EXPERIMENT_FLAGS };
    let resident = entries.iter().any(|e| e.resident);
    (!entries.is_empty()).then_some(Command { resident, ..tool(flags, 0, run_experiments) })
}

/// Rejects flags and stray positionals a known subcommand does not take
/// (unknown subcommands are reported with suggestions by [`run_one`]).
fn validate_invocation(opts: &Options) -> Result<(), String> {
    let Some(spec) = command_spec(&opts.experiment) else { return Ok(()) };
    for &(flag, _) in &opts.flags {
        if !spec.flags.contains(&flag) {
            let suggestion = did_you_mean(nearest(flag, spec.flags.iter().copied()));
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
    // trace-gen streams straight to disk at any size.
    let streams = opts.experiment == "trace-gen";
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

/// The closest of `known` to `name` within 3 edits, if any.
fn nearest(name: &str, known: impl Iterator<Item = &'static str>) -> Option<&'static str> {
    let (distance, closest) = known.map(|k| (edit_distance(name, k), k)).min()?;
    (distance <= 3).then_some(closest)
}

/// ` (did you mean `x`?)`, or nothing.
fn did_you_mean(suggestion: Option<&str>) -> String {
    suggestion.map(|s| format!(" (did you mean `{s}`?)")).unwrap_or_default()
}

/// The closest known subcommand within 3 edits, if any.
fn nearest_command(name: &str) -> Option<&'static str> {
    let groups = [Group::Paper, Group::Extra, Group::Ablation].map(Group::command);
    let experiments = registry::ENTRIES.iter().map(|e| e.name).chain(groups.into_iter().flatten());
    nearest(name, COMMANDS.iter().map(|&(command, _)| command).chain(experiments))
}

struct Options {
    experiment: String,
    /// Extra positional arguments (benchmark name, file paths).
    positionals: Vec<String>,
    config: ExperimentConfig,
    /// Worker threads for the figure sweeps (default: one per logical CPU;
    /// `--jobs 1` forces the serial path).
    jobs: usize,
    /// Every flag given, in command-line order, with its checked value
    /// (empty for a switch).
    flags: Vec<(&'static str, String)>,
}

impl Options {
    /// The experiment configuration and sweep width set from the flags.
    fn configured(mut self) -> Options {
        self.config.trace_len = self.number("--trace-len").unwrap_or(self.config.trace_len);
        self.config.workloads.seed = self.number("--seed").unwrap_or(self.config.workloads.seed);
        self.jobs = self.number("--jobs").unwrap_or(self.jobs);
        self
    }

    /// `flag`'s value; a repeated flag's last value wins.
    fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(FLAGS.iter().any(|f| f.name == flag), "no flag `{flag}`");
        self.flags.iter().rev().find(|(given, _)| *given == flag).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// `flag`'s numeric value, which [`parse_args`] has checked.
    fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        let parse = |v: &str| v.parse().unwrap_or_else(|_| panic!("unchecked {flag} `{v}`"));
        self.value(flag).map(parse)
    }

    /// The trace directory to use: the `--trace-dir` flag, else the
    /// `FETCHVP_TRACE_DIR` environment variable (empty means unset).
    fn resolved_trace_dir(&self) -> Option<std::path::PathBuf> {
        if let Some(dir) = self.value("--trace-dir") {
            return Some(std::path::PathBuf::from(dir));
        }
        std::env::var_os("FETCHVP_TRACE_DIR")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from)
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut experiment, mut positionals, mut flags) = (None, Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = FLAGS.iter().find(|f| f.name == arg.as_str()) {
            let mut value = String::new();
            if let Some(needs) = flag.needs {
                value = it.next().ok_or_else(|| format!("{arg} needs {needs}"))?.clone();
                if !(flag.check)(&value) {
                    let (what, hint) = flag.bad;
                    return Err(format!("bad {what} `{value}`{hint}"));
                }
            }
            flags.push((flag.name, value));
        } else if arg.starts_with('-') {
            return Err(format!("unrecognized argument `{arg}`"));
        } else if experiment.is_none() {
            experiment = Some(arg.clone());
        } else {
            positionals.push(arg.clone());
        }
    }
    let experiment = experiment.ok_or("no experiment named")?;
    let (config, jobs) = (ExperimentConfig::default(), default_jobs());
    Ok(Options { experiment, positionals, config, jobs, flags }.configured())
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
        if !write_output(out, &entry.render(sweep, opts.has("--chart"), opts.has("--csv")))? {
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

/// The registry experiment or group the command names.
fn run_experiments(sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let entries = registry::select(&opts.experiment);
    write_experiments(&entries, sweep, opts, &mut std::io::stdout().lock())
}

fn trace_gen(_: &Sweep, opts: &Options) -> Result<(), String> {
    let cfg = &opts.config;
    let [bench] = opts.positionals.as_slice() else {
        return Err("trace-gen needs: <benchmark> [--trace-dir DIR | --out FILE]".into());
    };
    if opts.has("--out") && opts.has("--trace-dir") {
        return Err("trace-gen writes to --trace-dir DIR or to --out FILE, not both".into());
    }
    let workload =
        by_name(bench, &cfg.workloads).ok_or_else(|| format!("unknown benchmark `{bench}`"))?;
    // Streamed generation: the trace goes to disk chunk by chunk, so this
    // works at the paper's 100M scale without materializing anything.
    let stream = |file: File| {
        stream_program_to_store(
            workload.program(),
            bench,
            cfg.trace_len,
            DEFAULT_CHUNK_LEN,
            BufWriter::new(file),
        )
    };
    if let Some(path) = opts.value("--out") {
        let file = File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        let summary = stream(file).map_err(|e| format!("write failed: {e}"))?;
        println!(
            "wrote {} instructions of `{bench}` to {path} ({} chunk(s), {} bytes)",
            summary.instructions, summary.chunks, summary.bytes
        );
        return Ok(());
    }
    let root = opts.resolved_trace_dir().or_else(TraceDir::default_root).ok_or(
        "trace-gen needs a destination: --trace-dir DIR, $FETCHVP_TRACE_DIR, or --out FILE \
         (no home directory found for the default ~/.cache/fetchvp)",
    )?;
    let dir = TraceDir::new(root);
    let key = TraceKey::benchmark(bench, cfg.workloads.seed, cfg.workloads.scale, cfg.trace_len);
    let store = dir
        .open_or_create(&key, |path| stream(File::create(path)?).map(drop))
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

fn trace_info(_: &Sweep, opts: &Options) -> Result<(), String> {
    let [path] = opts.positionals.as_slice() else {
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

fn run_asm(_: &Sweep, opts: &Options) -> Result<(), String> {
    let [path] = opts.positionals.as_slice() else {
        return Err("run-asm needs: <file.s>".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("program");
    let program = parse_program(name, &source).map_err(|e| format!("{path}: {e}"))?;
    let trace = trace_program(&program, opts.config.trace_len);
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

/// Prints the bench report: the same bytes as the served `bench` result,
/// plus a final newline.
fn run_bench(sweep: &Sweep, _: &Options) -> Result<(), String> {
    let text = bench::run_with(sweep).to_json().to_json() + "\n";
    write_output(&mut std::io::stdout().lock(), &text).map(drop)
}

fn run_trace_viz(sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let [workload] = opts.positionals.as_slice() else {
        return Err("trace-viz needs: <workload> [--cycles FIRST..LAST] [--out FILE]".into());
    };
    let cycles = opts.value("--cycles").and_then(cycle_window);
    let viz = fetchvp_experiments::traceviz::run_with(sweep, workload, cycles)?;
    let path = opts.value("--out").map_or_else(|| format!("trace_{workload}.json"), str::to_string);
    std::fs::write(&path, viz.json.clone() + "\n")
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!(
        "trace-viz: {} events ({} dropped) over {} cycles of `{}`",
        viz.events, viz.dropped, viz.result.cycles, viz.workload
    );
    println!("wrote {path} — load it in Perfetto (ui.perfetto.dev) or chrome://tracing");
    Ok(())
}

/// The daemon's defaults, overridden by the `serve` flags given.
fn server_config(opts: &Options) -> fetchvp_server::ServerConfig {
    let defaults = fetchvp_server::ServerConfig::default();
    fetchvp_server::ServerConfig {
        addr: opts.value("--addr").map_or(defaults.addr, str::to_string),
        workers: opts.number("--workers").unwrap_or(defaults.workers),
        queue_depth: opts.number("--queue-depth").unwrap_or(defaults.queue_depth),
        result_cache_entries: opts
            .number("--result-cache")
            .unwrap_or(defaults.result_cache_entries),
        // The full fleet membership list, each member trimmed; none means
        // standalone.
        peers: opts.value("--peers").map_or_else(Vec::new, |peers| {
            peers.split(',').map(|p| p.trim().to_string()).collect()
        }),
        trace_dir: opts.resolved_trace_dir(),
        ..defaults
    }
}

fn run_serve(_: &Sweep, opts: &Options) -> Result<(), String> {
    let config = server_config(opts);
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

fn run_top(_: &Sweep, opts: &Options) -> Result<(), String> {
    top::run(
        opts.value("--addr").unwrap_or("127.0.0.1:7998"),
        Duration::from_secs(opts.number("--interval").unwrap_or(2)),
        opts.number("--count"),
    )
}

fn run_fuzz(_: &Sweep, opts: &Options) -> Result<(), String> {
    if let Some(tuple) = opts.value("--replay") {
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
    let defaults = fuzz::FuzzOptions::default();
    let options = fuzz::FuzzOptions {
        cases: opts.number("--cases").unwrap_or(defaults.cases),
        seed: opts.config.workloads.seed,
        max_len: opts.number("--max-len").unwrap_or(defaults.max_len),
    };
    if options.max_len > MAX_IN_MEMORY_TRACE_LEN {
        return Err(format!(
            "--max-len {} exceeds the in-memory limit of {MAX_IN_MEMORY_TRACE_LEN} instructions; \
             fuzzing replays every case in memory and cannot use a trace directory",
            options.max_len
        ));
    }
    let report = fuzz::run(&options);
    print!("{}", report.render());
    if let Some(path) = opts.value("--out") {
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

fn run_atlas(_: &Sweep, opts: &Options) -> Result<(), String> {
    let family = match opts.positionals.as_slice() {
        [] => "m88ksim",
        [family] => family.as_str(),
        _ => return Err("atlas takes at most one family name".into()),
    };
    // The default 1M-point grid would dominate a CI run; the atlas is a
    // map, not a measurement, so it defaults to the quick length (an
    // explicit --trace-len still wins).
    let trace_len = if opts.has("--trace-len") {
        opts.config.trace_len
    } else {
        ExperimentConfig::quick().trace_len
    };
    let table = atlas::run(family, trace_len)?.to_table();
    let text = if opts.has("--csv") { table.to_csv() } else { format!("{table}\n") };
    write_output(&mut std::io::stdout().lock(), &text).map(drop)
}

fn run_one(sweep: &Sweep, opts: &Options) -> Result<(), String> {
    let name = &opts.experiment;
    let Some(command) = command_spec(name) else {
        let suggestion = did_you_mean(nearest_command(name));
        return Err(format!("unknown experiment `{name}`{suggestion}\n{}", usage()));
    };
    (command.run)(sweep, opts)
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
    let trace_dir = options.resolved_trace_dir().map(|root| Arc::new(TraceDir::new(root)));
    let sweep = Sweep::with_trace_dir(&options.config, trace_dir, options.jobs);
    match run_one(&sweep, &options) {
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

    /// Parses, validates and runs one invocation, as `main` does.
    fn run(args: &[&str]) -> Result<(), String> {
        let o = opts(args)?;
        validate_invocation(&o)?;
        validate_scale(&o)?;
        run_one(&Sweep::with_jobs(&o.config, 1), &o)
    }

    #[test]
    fn parses_experiment_and_flags() {
        let o = opts(&["fig3-1", "--trace-len", "1000", "--seed", "7", "--csv"]).unwrap();
        assert_eq!(o.experiment, "fig3-1");
        assert_eq!(o.config.trace_len, 1000);
        assert_eq!(o.config.workloads.seed, 7);
        assert_eq!(o.jobs, default_jobs());
        assert!(o.has("--csv"));
        // Regression: `--trace-len 0` used to run and print 0.0% in every
        // cell, which reads like a measured "no speedup".
        for bad in ["0", "-3", "many"] {
            let err = opts(&["fig3-1", "--trace-len", bad]).err().unwrap();
            assert!(err.contains("need an integer >= 1"), "{bad}: {err}");
        }
        assert!(opts(&["fig3-1", "--trace-len"]).is_err());
        // A repeated flag's last value wins.
        let o = opts(&["fig3-1", "--trace-len", "5", "--trace-len", "9", "--jobs", "3"]).unwrap();
        assert_eq!((o.config.trace_len, o.jobs), (9, 3));
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
        assert!(run(&["fig9-9"]).is_err());
    }

    #[test]
    fn table3_2_runs_end_to_end() {
        run(&["table3-2", "--csv"]).unwrap();
    }

    #[test]
    fn parses_bench_flags() {
        let o = opts(&["bench", "--trace-len", "500", "--seed", "3", "--jobs", "2"]).unwrap();
        validate_invocation(&o).unwrap();
        assert_eq!((o.config.trace_len, o.config.workloads.seed, o.jobs), (500, 3, 2));
        validate_invocation(&opts(&["bench", "--trace-dir", "/tmp/x"]).unwrap()).unwrap();
        // The report goes to stdout: bench takes no output path.
        let err = validate_invocation(&opts(&["bench", "--out", "r.json"]).unwrap()).unwrap_err();
        assert!(err.contains("does not take the flag `--out`"), "{err}");
    }

    #[test]
    fn parses_serve_flags() {
        let o = opts(&["serve", "--addr", "127.0.0.1:0", "--workers", "3", "--queue-depth", "5"])
            .unwrap();
        assert_eq!(o.experiment, "serve");
        let config = server_config(&o);
        assert_eq!(
            (config.addr.as_str(), config.workers, config.queue_depth),
            ("127.0.0.1:0", 3, 5)
        );
        assert!(opts(&["serve", "--workers", "0"]).is_err());
        assert!(opts(&["serve", "--queue-depth", "nope"]).is_err());
        assert!(opts(&["serve", "--addr"]).is_err());
    }

    #[test]
    fn usage_mentions_serve_and_version() {
        let usage = usage();
        assert!(usage.contains("serve [--addr HOST:PORT]"));
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
        let config = server_config(&o);
        assert_eq!(config.peers, ["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(config.result_cache_entries, 512);
        // 0 disables the cache and must parse.
        let o = opts(&["serve", "--result-cache", "0"]).unwrap();
        assert_eq!(server_config(&o).result_cache_entries, 0);
        assert!(opts(&["serve", "--result-cache", "lots"]).is_err());
        assert!(opts(&["serve", "--peers"]).is_err());
        // --peers belongs to serve, not the experiments.
        let o = opts(&["fig3-1", "--peers", "127.0.0.1:7001"]).unwrap();
        assert!(validate_invocation(&o).is_err());
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
        let err = run(&["benhc"]).unwrap_err();
        assert!(err.contains("did you mean `bench`?"), "{err}");
    }

    #[test]
    fn parses_cycles_window() {
        let o = opts(&["trace-viz", "gcc", "--cycles", "100..500"]).unwrap();
        assert_eq!(o.experiment, "trace-viz");
        assert_eq!(o.positionals, ["gcc"]);
        assert_eq!(o.value("--cycles").and_then(cycle_window), Some((100, 500)));
        assert!(opts(&["trace-viz", "gcc", "--cycles", "500..100"]).is_err());
        assert!(opts(&["trace-viz", "gcc", "--cycles", "abc"]).is_err());
        assert!(opts(&["trace-viz", "gcc", "--cycles"]).is_err());
    }

    #[test]
    fn trace_viz_needs_a_workload() {
        assert!(run(&["trace-viz"]).is_err());
    }

    #[test]
    fn rejects_inapplicable_known_flags() {
        // Regression: `fetchvp table3-1 --quick` used to exit 0, silently
        // ignoring a flag that belonged to another subcommand. Known flags
        // must be rejected on subcommands that do not take them (the
        // pinned messages cover more of them).
        let o = opts(&["table3-1", "--out", "t.csv"]).unwrap();
        let err = validate_invocation(&o).unwrap_err();
        assert!(err.contains("does not take the flag `--out`"), "{err}");

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
            vec!["bench", "--trace-len", "500", "--jobs", "2", "--trace-dir", "/tmp/x"],
            vec!["trace-gen", "gcc", "--trace-len", "500", "--out", "g.fvps"],
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
        validate_invocation(&opts(&["trace-info", "f.bin"]).unwrap()).unwrap();
        assert!(validate_invocation(&opts(&["trace-info", "f.bin", "x"]).unwrap()).is_err());
    }

    #[test]
    fn unknown_subcommands_still_take_the_suggestion_path() {
        // validate_invocation must not shadow run_one's did-you-mean
        // handling for unknown subcommands.
        let o = opts(&["benhc", "--csv"]).unwrap();
        validate_invocation(&o).unwrap();
    }

    #[test]
    fn parses_fuzz_flags() {
        let o = opts(&["fuzz", "--cases", "16", "--seed", "7", "--max-len", "9000"]).unwrap();
        assert_eq!(o.number("--cases"), Some(16));
        assert_eq!(o.config.workloads.seed, 7);
        assert_eq!(o.number("--max-len"), Some(9000));
        assert!(!o.has("--replay"));
        assert!(opts(&["fuzz", "--cases", "0"]).is_err());
        assert!(opts(&["fuzz", "--max-len", "wat"]).is_err());
        assert!(opts(&["fuzz", "--replay"]).is_err());
        let o = opts(&["fuzz", "--replay", "gcc did=1 len=600"]).unwrap();
        assert_eq!(o.value("--replay"), Some("gcc did=1 len=600"));
    }

    #[test]
    fn fuzz_replay_runs_end_to_end() {
        run(&["fuzz", "--replay", "m88ksim did=0.5 len=600"]).unwrap();
        assert!(run(&["fuzz", "--replay", "nonesuch len=600"]).is_err());
    }

    #[test]
    fn atlas_rejects_unknown_families() {
        assert!(run(&["atlas", "nonesuch"]).is_err());
    }

    #[test]
    fn parses_trace_dir_flag() {
        let o = opts(&["fig3-1", "--trace-dir", "/tmp/fetchvp-cache"]).unwrap();
        assert_eq!(o.value("--trace-dir"), Some("/tmp/fetchvp-cache"));
        validate_invocation(&o).unwrap();
        assert!(opts(&["fig3-1", "--trace-dir"]).is_err());
        // Surfaces that never read traces from disk reject the flag.
        let o = opts(&["trace-info", "f.bin", "--trace-dir", "/tmp/x"]).unwrap();
        assert!(validate_invocation(&o).is_err());
        // serve and trace-gen accept it too.
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
        // trace-gen streams at any in-cap size.
        let o = opts(&["trace-gen", "gcc", "--out", "f.fvps", "--trace-len", big]).unwrap();
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
        let err = run(&["fuzz", "--max-len", &big]).unwrap_err();
        assert!(err.contains("in memory"), "{err}");
        assert!(err.contains(&MAX_IN_MEMORY_TRACE_LEN.to_string()), "{err}");
    }

    #[test]
    fn save_trace_writes_chunked_stores_and_trace_info_reads_them() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("go.fvps");
        let store = store_path.to_str().unwrap();
        run(&["trace-gen", "go", "--out", store, "--trace-len", "500"]).unwrap();
        let magic = &std::fs::read(&store_path).unwrap()[..4];
        assert_eq!(magic, fetchvp_tracestore::MAGIC, "trace-gen must write the chunked format");
        // Regression: an explicit --trace-dir next to --out used to be
        // silently ignored (the directory was never created).
        let ignored = dir.join("ignored-dir");
        let err =
            run(&["trace-gen", "go", "--out", store, "--trace-dir", ignored.to_str().unwrap()])
                .unwrap_err();
        assert!(err.contains("not both"), "{err}");
        assert!(!ignored.exists(), "the rejected --trace-dir must not be created");
        run(&["trace-info", store]).unwrap();
        // Anything else is refused, not misread.
        let other = dir.join("not-a-store.bin");
        std::fs::write(&other, b"not a trace store, just some bytes").unwrap();
        assert!(run(&["trace-info", other.to_str().unwrap()]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_gen_populates_and_reuses_the_cache() {
        let dir = std::env::temp_dir().join(format!("fetchvp-cli-gen-{}", std::process::id()));
        let args =
            ["trace-gen", "compress", "--trace-len", "400", "--trace-dir", dir.to_str().unwrap()];
        run(&args).unwrap();
        let files = || {
            std::fs::read_dir(&dir)
                .map(|entries| entries.filter_map(Result::ok).count())
                .unwrap_or(0)
        };
        assert_eq!(files(), 1, "one store generated");
        run(&args).unwrap();
        assert_eq!(files(), 1, "second run reuses the cached store");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The full error text (after `error: `) of each rejected invocation,
    /// word for word: a reworded message changes what users and scripts
    /// see, so it must change here on purpose. Arguments split at spaces.
    #[test]
    fn error_messages_are_pinned() {
        let rejected = [
            ("", "no experiment named"),
            ("--csv", "no experiment named"),
            ("fig3-1 --wat", "unrecognized argument `--wat`"),
            ("fig3-1 -", "unrecognized argument `-`"),
            ("fig3-1 --trace-len", "--trace-len needs a value"),
            ("fig3-1 --seed", "--seed needs a value"),
            ("fig3-1 --jobs", "--jobs needs a value"),
            ("trace-gen gcc --out", "--out needs a value"),
            ("trace-viz gcc --cycles", "--cycles needs a value (FIRST..LAST)"),
            ("serve --addr", "--addr needs a value (HOST:PORT)"),
            ("serve --workers", "--workers needs a value"),
            ("serve --queue-depth", "--queue-depth needs a value"),
            ("fuzz --cases", "--cases needs a value"),
            ("fuzz --max-len", "--max-len needs a value"),
            ("fuzz --replay", "--replay needs a repro tuple"),
            ("fig3-1 --trace-dir", "--trace-dir needs a directory path"),
            ("serve --result-cache", "--result-cache needs a value (entries; 0 disables)"),
            ("serve --peers", "--peers needs a value (HOST:PORT,HOST:PORT,...)"),
            ("top --interval", "--interval needs a value (seconds)"),
            ("top --count", "--count needs a value"),
            ("fig3-1 --trace-len 1.5", "bad trace length `1.5` (need an integer >= 1)"),
            ("fig3-1 --seed -1", "bad seed `-1`"),
            ("fig3-1 --jobs 0", "bad job count `0` (need an integer >= 1)"),
            ("fig3-1 --jobs many", "bad job count `many` (need an integer >= 1)"),
            ("trace-viz gcc --cycles 500..100", "bad cycle window `500..100` (need FIRST..LAST)"),
            ("trace-viz gcc --cycles 1..2..3", "bad cycle window `1..2..3` (need FIRST..LAST)"),
            ("serve --workers 0", "bad worker count `0` (need an integer >= 1)"),
            ("serve --queue-depth nope", "bad queue depth `nope` (need an integer >= 1)"),
            ("fuzz --cases 0", "bad case count `0` (need an integer >= 1)"),
            ("fuzz --max-len wat", "bad max length `wat` (need an integer >= 1)"),
            ("serve --result-cache lots", "bad result-cache size `lots`"),
            ("top --interval 1.5", "bad interval `1.5` (need whole seconds >= 1)"),
            ("top --count 0", "bad refresh count `0` (need an integer >= 1)"),
            ("fig3-1 --jobs 2 --jobs 0", "bad job count `0` (need an integer >= 1)"),
            (
                "table3-1 --out t.csv",
                "`table3-1` does not take the flag `--out` (did you mean `--csv`?)",
            ),
            (
                "fuzz --cycles 0..9",
                "`fuzz` does not take the flag `--cycles` (did you mean `--cases`?)",
            ),
            ("fuzz --trace-len 500", "`fuzz` does not take the flag `--trace-len`"),
            ("ablations --chart", "`ablations` does not take the flag `--chart`"),
            (
                "fig3-1 --peers 127.0.0.1:7001",
                "`fig3-1` does not take the flag `--peers` (did you mean `--seed`?)",
            ),
            (
                "trace-info f.bin --trace-dir /tmp/x",
                "`trace-info` does not take the flag `--trace-dir`",
            ),
            ("serve --seed 3", "`serve` does not take the flag `--seed` (did you mean `--peers`?)"),
            ("run-asm x.s --csv", "`run-asm` does not take the flag `--csv`"),
            (
                "trace-gen gcc --jobs 2",
                "`trace-gen` does not take the flag `--jobs` (did you mean `--out`?)",
            ),
            (
                "fig3-1 extra",
                "`fig3-1` takes at most 0 positional argument(s), got 1 (first extra: `extra`)",
            ),
            (
                "trace-info a b",
                "`trace-info` takes at most 1 positional argument(s), got 2 (first extra: `b`)",
            ),
            (
                "serve x y",
                "`serve` takes at most 0 positional argument(s), got 2 (first extra: `x`)",
            ),
            (
                "fig3-1 --trace-len 100000001 --trace-dir d",
                "--trace-len 100000001 exceeds even the out-of-core cap of 100000000 instructions",
            ),
            (
                "breakdown --trace-len 20000000 --trace-dir d",
                "--trace-len 20000000 exceeds the in-memory limit of 8000000 instructions; \
                 `breakdown` needs whole resident traces",
            ),
        ];
        let error = |line: &str| {
            let args: Vec<&str> = line.split_whitespace().collect();
            let o = opts(&args)?;
            validate_invocation(&o)?;
            validate_scale(&o)
        };
        for (line, expected) in rejected {
            assert_eq!(error(line).unwrap_err(), expected, "{line}");
        }
        if opts(&["fig3-1"]).unwrap().resolved_trace_dir().is_none() {
            assert_eq!(
                error("fig3-1 --trace-len 20000000").unwrap_err(),
                "--trace-len 20000000 exceeds the in-memory limit of 8000000 instructions; longer \
                 runs replay from disk and need a trace directory: pass --trace-dir DIR (or set \
                 FETCHVP_TRACE_DIR)"
            );
        }
        for (name, suggestion) in [
            ("serv", " (did you mean `serve`?)"),
            ("fig51", " (did you mean `fig5-1`?)"),
            ("ablation-bank", " (did you mean `ablation-banks`?)"),
            ("benhc", " (did you mean `bench`?)"),
            ("fig9-9", " (did you mean `fig3-1`?)"),
            ("zzzzzzzzzzzz", ""),
        ] {
            let err = run(&[name]).unwrap_err();
            assert_eq!(err, format!("unknown experiment `{name}`{suggestion}\n{}", usage()));
        }
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
}
