//! `fetchvp-benchmark`: runs the benchmark's workloads, each in a fresh
//! child process (so a workload's peak RSS is its own), prints every
//! metric as `workload metric value unit`, and ends with one JSON result
//! line. Usually invoked through `perfbench/run.sh`, which builds it.
//!
//! ```text
//! fetchvp-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!                   [--sets N] [--runs N] [--smoke] [--update-golden]
//!                   [--cli PATH] [--out DIR] [--golden PATH]
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use fetchvp_benchmark::golden::Golden;
use fetchvp_benchmark::report::{self, MetricDef, Outcome, END_TO_END, PER_LAYER};
use fetchvp_benchmark::stats::{median, Summary};
use fetchvp_benchmark::{Ctx, Sizes, Workload, DEFAULT_SECONDS, DEFAULT_SEED};
use fetchvp_metrics::Json;

/// Runs per workload and set under `--sets` unless `--runs` says
/// otherwise: each run takes the next seed, so the spread covers inputs as
/// well as host noise.
const SET_RUNS: usize = 10;

/// A child that runs longer than this is killed and counted as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
    runs: usize,
    smoke: bool,
    update_golden: bool,
    child: bool,
    cli: PathBuf,
    out: PathBuf,
    golden: Option<PathBuf>,
}

const USAGE: &str = "usage: fetchvp-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--sets N] [--runs N] [--smoke] [--update-golden] \
                     [--cli PATH] [--out DIR] [--golden PATH]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let target =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 1,
        runs: 1,
        smoke: false,
        update_golden: false,
        child: false,
        cli: target.join("release").join("fetchvp-cli"),
        out: target.join("benchmark"),
        golden: Some(PathBuf::from("perfbench/golden.json")),
    };
    let mut runs_given = false;
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>().map_err(|_| format!("{name}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                a.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => a.seed = number("--seed", value("--seed")?)?,
            "--seconds" => {
                let v = value("--seconds")?;
                a.seconds =
                    v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or(format!("--seconds: {v}"))?;
            }
            "--trace" => {
                a.traced = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    a.traced = v == "1";
                }
            }
            "--sets" => {
                a.sets = number("--sets", value("--sets")?)?.max(1) as usize;
                if !runs_given && a.sets > 1 {
                    a.runs = SET_RUNS;
                }
            }
            "--runs" => {
                a.runs = number("--runs", value("--runs")?)?.max(1) as usize;
                runs_given = true;
            }
            "--smoke" => a.smoke = true,
            "--update-golden" => a.update_golden = true,
            "--child" => a.child = true,
            "--cli" => a.cli = value("--cli")?.into(),
            "--out" => a.out = value("--out")?.into(),
            "--golden" => a.golden = Some(value("--golden")?.into()),
            "--no-golden" => a.golden = None,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if a.smoke && a.update_golden {
        return Err("--update-golden pins the benchmark's sizes; drop --smoke".to_string());
    }
    Ok(a)
}

fn catalog(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn report_path(a: &Args, w: Workload, seed: u64) -> PathBuf {
    let kind = if a.traced { "traced" } else { "timed" };
    a.out.join(format!("{}-{seed}-{kind}.json", w.name()))
}

/// Child mode: run one workload in this process.
fn child(a: &Args) -> ExitCode {
    let w = a.workloads[0];
    let ctx = Ctx {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        sizes: if a.smoke { Sizes::SMOKE } else { Sizes::FULL },
        cli: a.cli.clone(),
        scratch: a.out.join(format!("tmp-{}-{}", w.name(), std::process::id())),
        trace_out: a.out.join(format!("trace-{}-{}.json", w.name(), a.seed)),
    };
    let golden = match a.golden.as_deref().map(Golden::load).transpose() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("golden file: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = fetchvp_benchmark::run_workload(&ctx, golden.as_ref());
    let doc = report::report_json(w.name(), a.seed, a.traced, &outcome, catalog(a.traced));
    if let Err(e) = std::fs::write(report_path(a, w, a.seed), doc.to_json() + "\n") {
        eprintln!("writing report: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&[("", &outcome)], catalog(a.traced)));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh child process and reads back its report.
fn spawn(a: &Args, w: Workload, seed: u64) -> Outcome {
    let failed = |why: String| {
        let mut o = Outcome::default();
        o.check(false, || why);
        o.require(catalog(a.traced));
        o
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("locating the harness binary: {e}")),
    };
    let path = report_path(a, w, seed);
    let _ = std::fs::remove_file(&path);
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if a.traced { "1" } else { "0" }])
        .arg("--cli")
        .arg(&a.cli)
        .arg("--out")
        .arg(&a.out)
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    // Digests are pinned at the benchmark's sizes only.
    match &a.golden {
        Some(g) if !a.update_golden && !a.smoke => cmd.arg("--golden").arg(g),
        _ => cmd.arg("--no-golden"),
    };
    if a.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = match cmd.spawn() {
        Ok(p) => p,
        Err(e) => return failed(format!("spawning {}: {e}", w.name())),
    };
    let start = Instant::now();
    loop {
        match proc.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if start.elapsed() > CHILD_DEADLINE => {
                let _ = proc.kill();
                let _ = proc.wait();
                return failed(format!("{} ran past {CHILD_DEADLINE:?} and was killed", w.name()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return failed(format!("waiting for {}: {e}", w.name())),
        }
    }
    let parsed = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| report::outcome_from_json(&doc));
    parsed.unwrap_or_else(|| failed(format!("{} left no report at {}", w.name(), path.display())))
}

fn print_outcome(w: Workload, o: &Outcome, cat: &[MetricDef]) {
    for d in cat {
        println!("{} {} {} {}", w.name(), d.name, report::number(o.metrics[d.name]), d.unit);
    }
    for d in &o.detail {
        println!("{} {} {} {}", w.name(), d.name, report::number(d.value), d.unit);
    }
    let fail_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "{} fail_frac {} ratio ({} of {})",
        w.name(),
        report::number(fail_frac),
        o.failed,
        o.attempted
    );
    for p in &o.problems {
        println!("{} FAIL {p}", w.name());
    }
}

/// The bounds BENCHMARK.json fixes, by metric name.
fn bounds(path: &Path) -> BTreeMap<String, f64> {
    let doc = std::fs::read_to_string(path).ok().and_then(|t| Json::parse(&t).ok());
    let Some(Json::Array(entries)) = doc.as_ref().and_then(|d| d.get("end_to_end")) else {
        return BTreeMap::new();
    };
    entries
        .iter()
        .filter_map(|e| Some((e.get("name")?.as_str()?.to_string(), e.get("bound")?.as_f64()?)))
        .collect()
}

/// Prints each metric's median and quartile spread per set, and set 2's
/// drift from set 1 against the metric's bound; writes every value.
fn summarize_sets(a: &Args, sets: &[Vec<(Workload, u64, Outcome)>]) {
    let bounds = bounds(Path::new("BENCHMARK.json"));
    let cat = catalog(a.traced);
    let mut doc = Vec::new();
    println!(
        "\n{:<26} {:<16} {:>4} {:>14} {:>9} {:>9}",
        "workload", "metric", "set", "median", "spread", "drift"
    );
    for &w in &a.workloads {
        let mut wdoc = Vec::new();
        for d in cat {
            let per_set: Vec<Vec<f64>> = sets
                .iter()
                .map(|s| {
                    s.iter()
                        .filter(|(x, _, _)| *x == w)
                        .map(|(_, _, o)| o.metrics[d.name])
                        .collect()
                })
                .collect();
            let first = median(&per_set[0]);
            let mut mdoc = Vec::new();
            for (k, values) in per_set.iter().enumerate() {
                let s = Summary::of(values);
                let worse = if d.better == "lower" {
                    s.median / first - 1.0
                } else {
                    1.0 - s.median / first
                };
                let bound = bounds.get(d.name).copied().unwrap_or(f64::NAN);
                let flag = if k > 0 && worse > bound { " OVER" } else { "" };
                println!(
                    "{:<26} {:<16} {:>4} {:>14.6} {:>8.2}% {:>8.2}%{flag}",
                    w.name(),
                    d.name,
                    k + 1,
                    s.median,
                    100.0 * s.spread(),
                    100.0 * worse
                );
                mdoc.push(Json::object([
                    ("median".to_string(), Json::Float(s.median)),
                    ("q1".to_string(), Json::Float(s.q1)),
                    ("q3".to_string(), Json::Float(s.q3)),
                    ("spread".to_string(), Json::Float(s.spread())),
                    ("worse_than_set1".to_string(), Json::Float(worse)),
                    (
                        "values".to_string(),
                        Json::Array(values.iter().map(|&v| Json::Float(v)).collect()),
                    ),
                ]));
            }
            wdoc.push((d.name.to_string(), Json::Array(mdoc)));
        }
        doc.push((w.name().to_string(), Json::object(wdoc)));
    }
    let path = a.out.join("sets.json");
    match std::fs::write(&path, Json::object(doc).to_json() + "\n") {
        Ok(()) => println!("sets: {}", path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
}

fn orchestrate(a: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("output directory {}: {e}", a.out.display());
        return ExitCode::FAILURE;
    }
    let cat = catalog(a.traced);
    let mut sets = Vec::new();
    for set in 0..a.sets {
        let mut runs = Vec::new();
        for run in 0..a.runs {
            let seed = a.seed.wrapping_add(run as u64);
            for &w in &a.workloads {
                if a.sets > 1 || a.runs > 1 {
                    eprintln!("== set {} run {} seed {seed}: {}", set + 1, run + 1, w.name());
                }
                let o = spawn(a, w, seed);
                print_outcome(w, &o, cat);
                runs.push((w, seed, o));
            }
        }
        sets.push(runs);
    }
    // Outputs are a function of the seed alone: every later set must
    // reproduce the first set's digests run for run.
    if let Some((first, later)) = sets.split_first_mut() {
        let mut identical = true;
        for (w, seed, o) in later.iter_mut().flatten() {
            if let Some((_, _, f)) = first.iter().find(|(x, s, _)| x == w && s == seed) {
                let same = f.digests == o.digests;
                identical &= same;
                o.check(same, || format!("{} seed {seed}: outputs differ from set 1", w.name()));
            }
        }
        if !later.is_empty() {
            println!("outputs identical across sets: {identical}");
        }
    }
    if a.sets > 1 || a.runs > 1 {
        summarize_sets(a, &sets);
    }
    if a.update_golden {
        let Some(path) = &a.golden else {
            eprintln!("--update-golden needs --golden PATH");
            return ExitCode::FAILURE;
        };
        let mut golden = Golden::load(path).unwrap_or_default();
        for (w, seed, o) in sets.iter().flatten() {
            if o.correct() {
                golden.pin(*seed, w.name(), &o.digests);
            }
        }
        if let Err(e) = golden.save(path) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // One result line: per workload, the median of each metric over every
    // run made; attempts and failures summed.
    let all: Vec<&(Workload, u64, Outcome)> = sets.iter().flatten().collect();
    let merged: Vec<(Workload, Outcome)> = a
        .workloads
        .iter()
        .map(|&w| {
            let mine: Vec<&Outcome> =
                all.iter().filter(|(x, _, _)| *x == w).map(|(_, _, o)| o).collect();
            let mut m = Outcome {
                attempted: mine.iter().map(|o| o.attempted).sum(),
                failed: mine.iter().map(|o| o.failed).sum(),
                ..Outcome::default()
            };
            for d in cat {
                m.set(d.name, median(&mine.iter().map(|o| o.metrics[d.name]).collect::<Vec<_>>()));
            }
            (w, m)
        })
        .collect();
    let single = merged.len() == 1;
    let parts: Vec<(&str, &Outcome)> =
        merged.iter().map(|(w, o)| (if single { "" } else { w.name() }, o)).collect();
    println!("{}", report::result_line(&parts, cat));
    if merged.iter().all(|(_, o)| o.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(&args)
    } else {
        orchestrate(&args)
    }
}
