//! `serve_mixed`: the real `fetchvp-cli serve` daemon under a mix of cold
//! jobs and cached hits, plus the small server-layer probe every other
//! workload's traced run uses.
//!
//! One client process runs two threads in a closed loop. Thread A submits
//! cold `fig3-1` jobs with unique seeds (each misses the result cache and
//! regenerates its traces) and polls `GET /jobs/<id>` every [`POLL`]
//! until the job is terminal. Thread B repeats `POST /run` of specs warmed
//! in set-up — all result-cache hits — until A finishes, so the hit path
//! is measured while cold compute competes for the host.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fetchvp_experiments::{JobSpec, Sweep};
use fetchvp_metrics::Json;

use crate::http::{self, Response};
use crate::report::Outcome;
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, percentile, tail_percentile, Summary};
use crate::{digest, secs, Ctx, SETUPS};

/// Benchmarks × configurations a cold `fig3-1` job simulates.
const COLD_CELLS: u64 = 8 * 10;

/// Experiments the warm (cached) specs cycle through.
const WARM_EXPERIMENTS: [&str; 4] = ["fig3-1", "fig5-2", "fig5-3", "table3-1"];

/// Warm specs: every experiment at four seeds.
const WARM_SPECS: usize = 16;

/// Every `RECOMPUTE_EVERY`th cold job is recomputed in-process after
/// timing and compared with the served result.
const RECOMPUTE_EVERY: usize = 20;

/// Cold jobs in each pass of a traced `serve_mixed` run.
const TRACED_COLD_JOBS: usize = 60;

/// Cold jobs in the server-layer probe of the other workloads.
const PROBE_COLD_JOBS: usize = 10;

/// Thread A's poll interval.
const POLL: Duration = Duration::from_millis(1);

/// The cold-job percentile `op_ms` reports (see [`run_timed`]).
const OP_PERCENTILE: f64 = 10.0;

/// The daemon as a child process.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `cli serve` on an ephemeral port with one worker and waits
    /// for it to report its address.
    ///
    /// # Errors
    ///
    /// Spawn failures, or no address within ten seconds.
    pub fn start(cli: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .env_remove("FETCHVP_TRACE_DIR")
            .env_remove("FETCHVP_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Drain stdout for the daemon's whole life so it never blocks on
        // a full pipe; the first address line goes back to the caller.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("fetchvp-server listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut daemon = Daemon { child, addr: ([127, 0, 0, 1], 0).into(), stdout: Some(reader) };
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| io::Error::other("daemon did not report its address"))?;
        daemon.addr =
            addr.parse().map_err(|e| io::Error::other(format!("bad address {addr}: {e}")))?;
        Ok(daemon)
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        crate::peak_rss_mib(&self.child.id().to_string())
    }

    /// Asks the daemon to drain and exit, killing it after ten seconds;
    /// returns once it has exited.
    ///
    /// # Errors
    ///
    /// A daemon that had to be killed or exited non-zero.
    pub fn shutdown(mut self) -> io::Result<()> {
        let _ = http::post(self.addr, "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break Some(status);
            }
            if Instant::now() > deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        self.reap();
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(io::Error::other(format!("daemon exited with {s}"))),
            None => Err(io::Error::other("daemon ignored /shutdown and was killed")),
        }
    }

    fn reap(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A warmed spec and the exact bytes of its cached response.
#[derive(Debug, Clone)]
pub struct Warm {
    spec: String,
    body: Vec<u8>,
}

fn spec_json(experiment: &str, trace_len: u64, seed: u64) -> String {
    format!(r#"{{"experiment":"{experiment}","trace_len":{trace_len},"seed":{seed}}}"#)
}

fn warm_specs(ctx: &Ctx) -> Vec<String> {
    (0..WARM_SPECS)
        .map(|i| {
            let seed = ctx.seed.wrapping_add(1_000_000 + (i / WARM_EXPERIMENTS.len()) as u64);
            spec_json(WARM_EXPERIMENTS[i % WARM_EXPERIMENTS.len()], ctx.sizes.warm_trace_len, seed)
        })
        .collect()
}

fn cold_spec(ctx: &Ctx, i: usize) -> String {
    spec_json("fig3-1", ctx.sizes.cold_trace_len, ctx.seed.wrapping_add(i as u64))
}

/// The golden digest of the cached responses: their bytes, in spec order.
fn bodies_digest(warm: &[Warm]) -> String {
    digest(&warm.iter().flat_map(|w| w.body.iter().copied()).collect::<Vec<u8>>())
}

fn parse(r: &Response) -> Option<Json> {
    Json::parse(std::str::from_utf8(&r.body).ok()?).ok()
}

/// One cold job, submit to terminal response.
#[derive(Debug, Clone)]
struct Cold {
    index: usize,
    latency_s: f64,
    post_s: f64,
    queue_wait_s: f64,
    polls: u32,
    result: Json,
}

/// Submits one cold job and polls it to completion.
fn cold_job(
    addr: SocketAddr,
    spec: &str,
    index: usize,
    tracer: Option<&Tracer>,
) -> Result<Cold, String> {
    let exchange = |name: &str, f: &dyn Fn() -> io::Result<Response>| match tracer {
        Some(t) => t.span(name, format!("job {index}"), f),
        None => f(),
    };
    let start = Instant::now();
    let posted = exchange("POST /run cold", &|| http::post(addr, "/run", spec))
        .map_err(|e| e.to_string())?;
    let post_s = secs(start);
    if posted.status != 202 {
        return Err(format!(
            "cold job {index}: POST /run answered {}: {}",
            posted.status,
            posted.text()
        ));
    }
    let id = parse(&posted)
        .and_then(|d| d.get("job").and_then(Json::as_u64))
        .ok_or_else(|| format!("cold job {index}: no job id in {}", posted.text()))?;
    let path = format!("/jobs/{id}");
    let mut polls = 0;
    let mut queue_wait_s = None;
    loop {
        std::thread::sleep(POLL);
        let r = exchange("GET /jobs", &|| http::get(addr, &path)).map_err(|e| e.to_string())?;
        polls += 1;
        let doc = parse(&r)
            .filter(|_| r.ok())
            .ok_or_else(|| format!("job {id}: poll answered {}", r.status))?;
        let status = doc.get("status").and_then(Json::as_str).unwrap_or("?").to_string();
        if status != "queued" && queue_wait_s.is_none() {
            queue_wait_s = Some(secs(start) - post_s);
        }
        match status.as_str() {
            "done" => {
                let result = doc
                    .get("result")
                    .cloned()
                    .ok_or_else(|| format!("job {id}: done without result"))?;
                return Ok(Cold {
                    index,
                    latency_s: secs(start),
                    post_s,
                    queue_wait_s: queue_wait_s.unwrap_or(0.0),
                    polls,
                    result,
                });
            }
            "failed" => return Err(format!("job {id} failed: {}", r.text())),
            _ if start.elapsed() > http::TIMEOUT => return Err(format!("job {id} timed out")),
            _ => {}
        }
    }
}

/// Warms `specs` on a running daemon: each is run once cold, then posted
/// again to capture its cached response bytes.
fn warm_up(addr: SocketAddr, specs: &[String]) -> Result<Vec<Warm>, String> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            cold_job(addr, spec, i, None)?;
            let r = http::post(addr, "/run", spec).map_err(|e| e.to_string())?;
            let cached = parse(&r).and_then(|d| d.get("cached").cloned()) == Some(Json::Bool(true));
            if r.status != 200 || !cached {
                return Err(format!(
                    "warm spec {i} not served from cache: {} {}",
                    r.status,
                    r.text()
                ));
            }
            Ok(Warm { spec: spec.clone(), body: r.body })
        })
        .collect()
}

/// What one traffic pass measured.
struct Traffic {
    cold: Vec<Cold>,
    hits_us: Vec<f64>,
    window_s: f64,
    attempted: u64,
    failures: Vec<String>,
    spans: Vec<Span>,
}

/// Runs thread A (cold jobs numbered from `first`, until `min_jobs` are
/// done and `seconds` have passed) and thread B (cached hits until A
/// finishes).
fn traffic(
    addr: SocketAddr,
    ctx: &Ctx,
    warm: &[Warm],
    first: usize,
    min_jobs: usize,
    seconds: f64,
    epoch: Option<Instant>,
) -> Traffic {
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let cold = s.spawn(|| {
            let tracer = epoch.map(|e| Tracer::new(e, 0, 2));
            let mut jobs = Vec::new();
            let mut failures = Vec::new();
            let mut n = 0;
            while n < min_jobs || secs(start) < seconds {
                let i = first + n;
                let job = || cold_job(addr, &cold_spec(ctx, i), i, tracer.as_ref());
                let job = match &tracer {
                    Some(t) => t.span("cold job", format!("job {i}"), job),
                    None => job(),
                };
                match job {
                    Ok(job) => jobs.push(job),
                    Err(e) => failures.push(e),
                }
                n += 1;
            }
            done.store(true, Ordering::SeqCst);
            (jobs, failures, n as u64, tracer.map(Tracer::into_spans).unwrap_or_default())
        });
        let hits = s.spawn(|| {
            let tracer = epoch.map(|e| Tracer::new(e, 0, 3));
            let mut latencies = Vec::new();
            let mut failures = Vec::new();
            let mut i = 0;
            while !done.load(Ordering::SeqCst) && !warm.is_empty() {
                let w = &warm[i % warm.len()];
                let t = Instant::now();
                let post = || http::post(addr, "/run", &w.spec);
                let r = match &tracer {
                    Some(tr) => {
                        tr.span("POST /run cached", format!("spec {}", i % warm.len()), post)
                    }
                    None => post(),
                };
                match r {
                    Ok(r) if r.status == 200 && r.body == w.body => latencies.push(secs(t) * 1e6),
                    Ok(r) => failures
                        .push(format!("cached hit {i}: status {} or bytes differ", r.status)),
                    Err(e) => failures.push(format!("cached hit {i}: {e}")),
                }
                i += 1;
            }
            (latencies, failures, i as u64, tracer.map(Tracer::into_spans).unwrap_or_default())
        });
        (cold.join().expect("cold-job thread"), hits.join().expect("cached-hit thread"))
    });
    let window_s = secs(start);
    let mut failures = a.1;
    failures.extend(b.1);
    Traffic {
        cold: a.0,
        hits_us: b.0,
        window_s,
        attempted: a.2 + b.2,
        failures,
        spans: spans::merge(vec![a.3, b.3]),
    }
}

/// The daemon's result-cache hit and miss gauges.
fn cache_counters(addr: SocketAddr) -> (f64, f64) {
    let doc = http::get(addr, "/metrics").ok().as_ref().and_then(parse);
    let gauge = |key: &str| {
        doc.as_ref()
            .and_then(|d| d.get("gauges"))
            .and_then(|g| g.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (gauge("server.result_cache.hits"), gauge("server.result_cache.misses"))
}

fn record(out: &mut Outcome, t: &Traffic) {
    out.attempted += t.attempted;
    out.failed += t.failures.len() as u64;
    out.problems.extend(t.failures.iter().take(20).cloned());
}

/// Sets the four `server.*` per-layer metrics from one traffic pass and
/// the cache counters scraped around it.
fn server_metrics(t: &Traffic, before: (f64, f64), after: (f64, f64), out: &mut Outcome) {
    let posts: Vec<f64> = t.cold.iter().map(|c| c.post_s * 1e6).collect();
    let waits: Vec<f64> = t.cold.iter().map(|c| c.queue_wait_s * 1e3).collect();
    let polls: f64 =
        t.cold.iter().map(|c| c.polls as f64).sum::<f64>() / t.cold.len().max(1) as f64;
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    out.set("server.post_p50_us", if posts.is_empty() { 0.0 } else { median(&posts) });
    out.set("server.queue_wait_ms", if waits.is_empty() { 0.0 } else { median(&waits) });
    out.set("server.polls_per_job", polls);
    out.set("server.result_cache_hit_ratio", hits / (hits + misses).max(1.0));
}

/// The server-layer probe for the machine workloads' traced runs: a fresh
/// daemon, the warm specs, and a short mixed traffic pass.
pub fn server_layer(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let result = tracer.span("server.probe", "", || -> Result<(), String> {
        let daemon = Daemon::start(&ctx.cli).map_err(|e| e.to_string())?;
        let warm = warm_up(daemon.addr(), &warm_specs(ctx))?;
        let before = cache_counters(daemon.addr());
        let t = traffic(daemon.addr(), ctx, &warm, 0, PROBE_COLD_JOBS, 0.0, None);
        let after = cache_counters(daemon.addr());
        record(out, &t);
        server_metrics(&t, before, after, out);
        daemon.shutdown().map_err(|e| e.to_string())
    });
    out.check(result.is_ok(), || format!("server probe: {}", result.unwrap_err()));
}

/// Runs `serve_mixed`.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let result = if ctx.traced { run_traced(ctx, out) } else { run_timed(ctx, out) };
    if let Err(e) = result {
        out.check(false, || format!("serve_mixed: {e}"));
    }
}

fn run_timed(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let specs = warm_specs(ctx);
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((daemon, _)) = live.take() {
            Daemon::shutdown(daemon).map_err(|e| e.to_string())?;
        }
        let start = Instant::now();
        let daemon = Daemon::start(&ctx.cli).map_err(|e| e.to_string())?;
        let warm = warm_up(daemon.addr(), &specs)?;
        setups.push(secs(start));
        live = Some((daemon, warm));
    }
    let (daemon, warm) = live.expect("at least one setup");
    let addr = daemon.addr();
    let before = cache_counters(addr);
    let t = traffic(addr, ctx, &warm, 0, ctx.sizes.min_cold_jobs, ctx.seconds, None);
    let rss = daemon.peak_rss_mib().unwrap_or(0.0);
    let after = cache_counters(addr);
    daemon.shutdown().map_err(|e| e.to_string())?;
    record(out, &t);
    recompute(ctx, &t.cold, out);
    out.digests.insert("cached.bodies".into(), bodies_digest(&warm));

    let jobs: Vec<f64> = t.cold.iter().map(|c| c.latency_s * 1e3).collect();
    if jobs.is_empty() {
        return Err("no cold job completed".into());
    }
    // Co-tenant interference on a shared host comes in episodes of
    // seconds that slow every job they cover, which turns the latency
    // distribution bimodal and moves its median by whole episodes. The
    // 10th percentile (at least 20 jobs below it) stays in the quiet
    // mode, as the machine workloads' best segments do; the median and
    // tail are reported beside it.
    let job = Summary::of(&jobs);
    let quiet = percentile(&jobs, OP_PERCENTILE);
    let work = (COLD_CELLS * ctx.sizes.cold_trace_len) as f64;
    out.set("setup_s", median(&setups));
    out.set("sim_mips", work / (quiet / 1e3) / 1e6);
    out.set("peak_rss_mib", rss);
    out.set("op_ms", quiet);
    out.detail("job_p50_ms", job.median, "ms");
    out.detail("delivered_mips", jobs.len() as f64 * work / t.window_s / 1e6, "Minstr/s");
    out.detail("op_q1_ms", job.q1, "ms");
    out.detail("op_q3_ms", job.q3, "ms");
    out.detail("cold_jobs", jobs.len() as f64, "count");
    out.detail("jobs_per_s", jobs.len() as f64 / t.window_s, "1/s");
    if let Some(p) = tail_percentile(jobs.len()) {
        out.detail(format!("job_p{p}_ms"), percentile(&jobs, p), "ms");
    }
    out.detail("hits", t.hits_us.len() as f64, "count");
    out.detail("hits_per_s", t.hits_us.len() as f64 / t.window_s, "1/s");
    if !t.hits_us.is_empty() {
        out.detail("hit_p50_us", median(&t.hits_us), "us");
        if let Some(p) = tail_percentile(t.hits_us.len()) {
            out.detail(format!("hit_p{p}_us"), percentile(&t.hits_us, p), "us");
        }
    }
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    out.detail("server.result_cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    out.detail("window_s", t.window_s, "s");
    out.samples.insert("setup_s".into(), setups);
    out.samples.insert("job_ms".into(), jobs);
    Ok(())
}

/// Recomputes every [`RECOMPUTE_EVERY`]th cold job in-process and compares
/// the served result with it; returns the recomputed jobs' sweeps.
fn recompute(ctx: &Ctx, cold: &[Cold], out: &mut Outcome) -> Vec<(JobSpec, Sweep)> {
    let mut sweeps = Vec::new();
    for job in cold.iter().filter(|c| c.index % RECOMPUTE_EVERY == 0) {
        let text = cold_spec(ctx, job.index);
        let Ok(spec) =
            Json::parse(&text).map_err(|e| e.to_string()).and_then(|d| JobSpec::from_json(&d))
        else {
            out.check(false, || format!("cold spec {text} does not validate"));
            continue;
        };
        let sweep = Sweep::with_jobs(&spec.config(), 1);
        let local = spec.run(&sweep).result.to_json();
        out.check(local == job.result.to_json(), || {
            format!("cold job {}: served result differs from in-process", job.index)
        });
        sweeps.push((spec, sweep));
    }
    sweeps
}

fn run_traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let daemon = Daemon::start(&ctx.cli).map_err(|e| e.to_string())?;
    let warm = warm_up(daemon.addr(), &warm_specs(ctx))?;
    out.digests.insert("cached.bodies".into(), bodies_digest(&warm));
    let addr = daemon.addr();
    let untraced = traffic(addr, ctx, &warm, 0, TRACED_COLD_JOBS, 0.0, None);
    record(out, &untraced);

    let epoch = Instant::now();
    let tracer = Tracer::new(epoch, 0, 1);
    let before = cache_counters(addr);
    let traced = tracer.span("traffic", "threads A and B", || {
        traffic(addr, ctx, &warm, TRACED_COLD_JOBS, TRACED_COLD_JOBS, 0.0, Some(epoch))
    });
    let after = cache_counters(addr);
    daemon.shutdown().map_err(|e| e.to_string())?;
    record(out, &traced);
    server_metrics(&traced, before, after, out);

    // A job the daemon ran, replayed in-process the way the ideal sweep's
    // traced run replays its figure: the experiments call, the same cells
    // as per-benchmark run_batch calls, then the layer probes.
    let sweeps =
        tracer.span("recompute", "every 20th cold job", || recompute(ctx, &traced.cold, out));
    let Some((_, sweep)) = sweeps.first() else { return Err("no cold job to replay".into()) };
    crate::machine::job_layers(ctx, sweep, &tracer, traced.window_s, untraced.window_s, out)
        .map_err(|e| e.to_string())?;
    crate::write_trace(ctx, spans::merge(vec![tracer.into_spans(), traced.spans]), out);
    Ok(())
}
