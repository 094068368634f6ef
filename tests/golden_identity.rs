//! The golden-identity matrix: "outputs unchanged" as one cargo test.
//!
//! Every [`registry`] experiment, the four `--chart` figures and the
//! `bench` counter sections are checked, at two seeds and 20,000
//! instructions, against one committed digest file, `tests/golden.json`.
//! Its digests are FNV-1a over the exact bytes `fetchvp-cli <name> --csv`
//! (or `--chart`) prints; `bench` pins each workload's `counters` and
//! `gauges` sections. Each row is computed along every execution path that
//! must not change it — the axes:
//!
//! * `serial`: in process, `--jobs 1`, resident traces, no observer, one
//!   sweep shared by every entry (the CLI's path);
//! * `jobs 4`: the same on four sweep workers;
//! * `observer`: with a progress observer attached;
//! * `windows of 997` / `one whole-trace window`: walking stored `.fvps`
//!   sources chunk by chunk instead of resident traces (resident-only
//!   entries skip these);
//! * `JobSpec::run`, then `served fresh`, `served proxied`, `served cached`
//!   and `served cached via the peer`: the daemon's path, in process and
//!   through a two-member `--peers` fleet — each spec runs once, on the
//!   member owning it; the other member relays its record, and both answer
//!   a repeat from the owner's result cache (entries the daemon does not
//!   serve skip these; `bench` reports are never cached).
//!
//! A golden change is a reviewed diff of `tests/golden.json`: nothing
//! rewrites it. On a mismatch the test names the entry, axis and seed, and
//! prints the file as the serial axis computed it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fetchvp_experiments::registry;
use fetchvp_experiments::{bench, ExperimentConfig, JobSpec, Sweep, SweepProgress};
use fetchvp_metrics::Json;
use fetchvp_server::ServerConfig;
use fetchvp_tracestore::{fnv1a, write_store, TraceSource, TraceStore};

mod common;
use common::{request, shutdown, start_fleet, wait_for_job};

/// Instructions traced per workload.
const TRACE_LEN: u64 = 20_000;

/// The default workload seed and a held-out one.
const SEEDS: [u64; 2] = [1_592_596_888, 1_592_598_566];

/// Output digests of one seed: `entry → output → hex digest`.
type Digests = BTreeMap<String, BTreeMap<String, String>>;

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig { trace_len: TRACE_LEN, ..ExperimentConfig::default() };
    cfg.workloads.seed = seed;
    cfg
}

/// `tests/golden.json`, by seed.
fn golden() -> BTreeMap<u64, Digests> {
    let doc = Json::parse(include_str!("golden.json")).expect("golden.json parses");
    let strings = |doc: &Json| -> BTreeMap<String, String> {
        let pairs = doc.as_object().expect("golden outputs are an object");
        pairs.iter().map(|(k, v)| (k.clone(), v.as_str().expect("hex").to_string())).collect()
    };
    let seeds = doc.as_object().expect("golden.json is an object");
    seeds
        .iter()
        .map(|(seed, entries)| {
            let entries = entries.as_object().expect("golden entries are an object");
            let digests = entries.iter().map(|(e, outputs)| (e.clone(), strings(outputs)));
            (seed.parse().expect("seed keys are integers"), digests.collect())
        })
        .collect()
}

/// The golden file's text for `table` (keys sorted, like `perfbench/golden.json`).
fn render_golden(table: &BTreeMap<u64, Digests>) -> String {
    let strings = |m: &BTreeMap<String, String>| {
        Json::object(m.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))))
    };
    let doc = Json::object(table.iter().map(|(seed, entries)| {
        let entries = entries.iter().map(|(e, outputs)| (e.clone(), strings(outputs)));
        (seed.to_string(), Json::object(entries))
    }));
    doc.to_json() + "\n"
}

/// Runs `f`, turning a panic into its message.
fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|panic| {
        let text = panic.downcast_ref::<String>().map(String::as_str);
        format!("panicked: {}", text.or(panic.downcast_ref::<&str>().copied()).unwrap_or("?"))
    })
}

/// Records `entry`'s `output`: the digest of its text, or why there is
/// none — a panicking or failed entry is a mismatch naming its axis, not
/// an aborted matrix.
fn put(digests: &mut Digests, entry: &str, output: &str, text: Result<String, String>) {
    let digest = text.map_or_else(|why| why, |text| format!("{:016x}", fnv1a(text.as_bytes())));
    digests.entry(entry.to_string()).or_default().insert(output.to_string(), digest);
}

/// The `bench` report's counter sections, one digest per workload and
/// section.
fn bench_digests(report: &Json, digests: &mut Digests) {
    let workloads = report.get("workloads").and_then(Json::as_object).expect("bench workloads");
    for (name, section) in workloads {
        for part in ["counters", "gauges"] {
            let text = section.get(part).expect("bench section").to_json();
            put(digests, "bench", &format!("{name}.{part}"), Ok(text));
        }
    }
}

/// Every entry (and chart, and the bench counters) run in process on
/// `sweep`; `stored` skips the entries that need resident traces.
fn in_process(sweep: &Sweep, stored: bool) -> Digests {
    let mut digests = Digests::new();
    for entry in registry::ENTRIES.iter().filter(|e| !(stored && e.resident)) {
        put(&mut digests, entry.name, "csv", catching(|| entry.render(sweep, false, true)));
        if entry.chart.is_some() {
            put(&mut digests, entry.name, "chart", catching(|| entry.render(sweep, true, false)));
        }
    }
    match catching(|| bench::run_with(sweep, true).to_json()) {
        Ok(report) => bench_digests(&report, &mut digests),
        Err(why) => put(&mut digests, "bench", "report", Err(why)),
    }
    digests
}

/// The served entries, plus `bench`: what a job spec may name.
fn served() -> impl Iterator<Item = &'static str> {
    registry::ENTRIES.iter().filter(|e| e.served).map(|e| e.name).chain(["bench"])
}

fn spec_text(name: &str, seed: u64) -> String {
    format!(r#"{{"experiment": "{name}", "trace_len": {TRACE_LEN}, "seed": {seed}}}"#)
}

/// One served result's digests under `name`; `Err` says why there is no
/// result.
fn result_digests(name: &str, result: Result<&Json, String>, digests: &mut Digests) {
    match result {
        Ok(report) if name == "bench" => bench_digests(report, digests),
        Err(why) if name == "bench" => put(digests, name, "report", Err(why)),
        Ok(result) => {
            let csv = result.get("csv").and_then(Json::as_str).expect("served csv");
            put(digests, name, "csv", Ok(csv.to_string()));
        }
        Err(why) => put(digests, name, "csv", Err(why)),
    }
}

/// `JobSpec::run` on one fresh serial sweep per seed.
fn job_specs(seed: u64) -> Digests {
    let sweep = Sweep::with_jobs(&config(seed), 1);
    let mut digests = Digests::new();
    for name in served() {
        let spec = JobSpec::from_json(&Json::parse(&spec_text(name, seed)).unwrap()).unwrap();
        let outcome = catching(|| spec.run(&sweep).result);
        result_digests(name, outcome.as_ref().map_err(String::clone), &mut digests);
    }
    digests
}

/// A progress observer that only counts what it sees.
#[derive(Default)]
struct Tally {
    retired: AtomicU64,
}

impl SweepProgress for Tally {
    fn begin(&self, _cells: u64, _instructions_total: u64) {}

    fn retired(&self, _workload: &'static str, _chunk: usize, _store_chunk: usize, delta: u64) {
        self.retired.fetch_add(delta, Ordering::Relaxed);
    }

    fn cell_done(&self, _workload: &'static str, _chunk: usize) {}
}

/// `resident`'s traces written to `dir` as stores of `window`-instruction
/// chunks and opened as stored sources.
fn stored_sources(resident: &Sweep, window: usize, dir: &Path) -> Vec<TraceSource> {
    let workloads = resident.cache().workloads(true).len();
    (0..workloads)
        .map(|i| {
            let trace = resident.cache().trace(i);
            let path = dir.join(format!("{}-{window}.fvps", trace.name()));
            let out = BufWriter::new(File::create(&path).expect("create store"));
            write_store(&trace, window, out).expect("write store");
            TraceSource::Stored(Arc::new(TraceStore::open(&path).expect("open store")))
        })
        .collect()
}

/// The in-process axes of one seed, serial first.
fn in_process_axes(seed: u64) -> Vec<(String, Digests)> {
    let cfg = config(seed);
    let serial = Sweep::with_jobs(&cfg, 1);
    let mut axes = vec![("serial".to_string(), in_process(&serial, false))];
    let workloads = serial.cache().workloads(true).len();
    assert_eq!(serial.cache().generated(), workloads, "seed {seed}: one trace per workload");

    axes.push(("jobs 4".to_string(), in_process(&Sweep::with_jobs(&cfg, 4), false)));

    let tally = Arc::new(Tally::default());
    let observed = Sweep::with_jobs(&cfg, 1).with_progress(Arc::clone(&tally) as _);
    axes.push(("observer".to_string(), in_process(&observed, false)));
    assert!(tally.retired.load(Ordering::Relaxed) > 0, "seed {seed}: the observer saw nothing");

    let dir = std::env::temp_dir().join(format!("fetchvp-golden-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (axis, window) in [("windows of 997", 997), ("one whole-trace window", TRACE_LEN as usize)]
    {
        let sweep = Sweep::over_sources(&cfg, stored_sources(&serial, window, &dir), 1);
        axes.push((axis.to_string(), in_process(&sweep, true)));
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    axes.push(("JobSpec::run".to_string(), job_specs(seed)));
    axes
}

/// The served axes of every seed through a two-member fleet: each spec
/// runs once, fresh, on the member that owns it; the other member relays
/// its record; both answer a repeat from the owner's result cache.
fn served_axes(fleet: [SocketAddr; 2]) -> Vec<(u64, String, Digests)> {
    let mut jobs = Vec::new();
    for seed in SEEDS {
        for name in served() {
            let spec = spec_text(name, seed);
            let reply = request(fleet[0], "POST", "/run", Some(&spec));
            assert_eq!(reply.status, 202, "{name} seed {seed}: {}", reply.body);
            let id = reply.json().get("job").and_then(Json::as_u64).expect("job id");
            jobs.push((seed, name, spec, id));
        }
    }
    let mut axes: BTreeMap<(u64, &str), Digests> = BTreeMap::new();
    for (seed, name, spec, id) in jobs {
        // Job ids encode the member that minted them, i.e. the owner.
        let owner = fleet[(id % 2) as usize];
        let other = fleet[1 - (id % 2) as usize];
        let mut record = |axis, addr| {
            let doc = wait_for_job(addr, id);
            let error = doc.get("error").and_then(Json::as_str).unwrap_or("no result");
            let result = doc.get("result").ok_or_else(|| format!("job failed: {error}"));
            result_digests(name, result, axes.entry((seed, axis)).or_default());
        };
        record("served fresh", owner);
        record("served proxied", other);
        if name == "bench" {
            continue;
        }
        for (axis, addr) in [("served cached", owner), ("served cached via the peer", other)] {
            // Only a cache hit answers `200` with the result inlined.
            let reply = request(addr, "POST", "/run", Some(&spec));
            let doc = reply.json();
            let result = match doc.get("result") {
                Some(result) if reply.status == 200 => Ok(result),
                _ => Err(format!("no cache hit (HTTP {})", reply.status)),
            };
            result_digests(name, result, axes.entry((seed, axis)).or_default());
        }
    }
    axes.into_iter().map(|((seed, axis), digests)| (seed, axis.to_string(), digests)).collect()
}

/// One line per digest of `got` that differs from (or is absent in) `want`.
fn mismatches(seed: u64, axis: &str, got: &Digests, want: &Digests) -> Vec<String> {
    let mut lines = Vec::new();
    for (entry, outputs) in got {
        for (output, digest) in outputs {
            let pinned = want.get(entry).and_then(|o| o.get(output));
            if pinned != Some(digest) {
                let pinned = pinned.map_or("nothing", String::as_str);
                lines.push(format!(
                    "  {entry} {output}: axis `{axis}`, seed {seed}: got {digest}, pinned {pinned}"
                ));
            }
        }
    }
    lines
}

#[test]
fn every_output_matches_its_golden_digest_on_every_axis() {
    let golden = golden();
    let want =
        |seed: u64| golden.get(&seed).unwrap_or_else(|| panic!("golden.json lacks seed {seed}"));

    // The daemon's axes first, on an otherwise idle host: the fleet's
    // health probes have sub-second timeouts.
    let ((a, handle_a), (b, handle_b)) =
        start_fleet(ServerConfig { workers: 1, queue_depth: 64, ..ServerConfig::default() });
    let served = served_axes([a, b]);
    shutdown(a, handle_a);
    shutdown(b, handle_b);
    let in_process: Vec<_> = std::thread::scope(|scope| {
        let seeds = SEEDS.map(|seed| scope.spawn(move || (seed, in_process_axes(seed))));
        seeds.into_iter().map(|h| h.join().expect("in-process axes")).collect()
    });

    let mut lines = Vec::new();
    let mut computed = BTreeMap::new();
    for (seed, axes) in &in_process {
        for (axis, digests) in axes {
            lines.extend(mismatches(*seed, axis, digests, want(*seed)));
        }
        // The serial axis computes every pinned output: nothing in the
        // golden file goes unchecked.
        let serial = &axes[0].1;
        for (entry, outputs) in want(*seed) {
            for output in outputs.keys() {
                if serial.get(entry).and_then(|o| o.get(output)).is_none() {
                    lines.push(format!("  {entry} {output}: pinned for seed {seed}, not computed"));
                }
            }
        }
        computed.insert(*seed, serial.clone());
    }
    for (seed, axis, digests) in &served {
        lines.extend(mismatches(*seed, axis, digests, want(*seed)));
    }
    assert!(
        lines.is_empty(),
        "{} output(s) differ from tests/golden.json:\n{}\n\nIf the serial axis's change is \
         intended, tests/golden.json becomes:\n{}",
        lines.len(),
        lines.join("\n"),
        render_golden(&computed)
    );
}
