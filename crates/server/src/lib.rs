//! `fetchvp-server` — a zero-dependency simulation-as-a-service daemon.
//!
//! `fetchvp serve` turns the one-shot experiment CLI into a long-lived
//! service: clients `POST /run` a JSON job spec (see
//! [`fetchvp_experiments::jobspec`]), the daemon queues it with admission
//! control, a worker pool executes it through the shared [`Sweep`] runner,
//! and `GET /jobs/<id>` returns the result — with workload traces staying
//! **warm across requests**, so the second job against the same
//! configuration skips tracing entirely, and **results cached by
//! content** ([`cache`]), so a repeated spec skips simulation entirely.
//!
//! Everything is built on `std` only: a [`std::net::TcpListener`] served
//! by a fixed pool of connection threads (each blocks in `accept`, then
//! reads, routes and answers one request on its own), a hand-rolled
//! HTTP/1.1 subset ([`http`]), a condvar-based bounded MPMC queue
//! ([`queue`]) and a mutex-guarded job table ([`jobs`]). Several
//! daemons started with `--peers` form a fleet ([`peers`]): jobs shard
//! across members by consistent hashing on the spec's canonical hash,
//! with single-hop proxying and per-peer health checks.
//!
//! # Endpoints
//!
//! | method & path | behaviour |
//! |---|---|
//! | `POST /run` | validate a job spec; `202` + job id (or `200` with the inlined result on a cache hit), `400` on a bad spec, `503` + `Retry-After` when the queue is full |
//! | `GET /jobs/<id>` | the job's status/result document (with a live `progress` snapshot); `404` for unknown ids; proxied to the owning fleet member when the id belongs elsewhere |
//! | `GET /jobs/<id>/events` | **live NDJSON progress stream** over HTTP/1.1 chunked transfer: one [`jobs::Event`] line per chunk until the terminal `done`/`failed` event, relayed 1 hop from the owning fleet member when the id belongs elsewhere |
//! | `GET /fleet/metrics` | fleet-wide observability: any member fans the request out to its peers and returns the merged per-member snapshots (version, uptime, live jobs with progress, metrics) plus fleet-summed counters, with dead members marked |
//! | `GET /healthz` | liveness + queue/worker summary (+ per-peer liveness in a fleet) |
//! | `GET /metrics` | live [`fetchvp_metrics::Registry`] snapshot: `server.*` counters alongside accumulated simulator counters (`trace.*`, `sched.*`, …) |
//! | `POST /shutdown` | graceful shutdown (also triggered by `SIGTERM`/`SIGINT`): stop accepting, drain admitted jobs, exit |
//!
//! # Operational guarantees
//!
//! * **Backpressure, not buffering** — the queue is bounded
//!   ([`ServerConfig::queue_depth`]); when full, `/run` answers `503`
//!   immediately with a `Retry-After` derived from the observed drain
//!   rate.
//! * **A slow peer stalls only its own requests** — a fleet proxy hop,
//!   the `/fleet/metrics` fan-out and a relayed stream block just the
//!   connection thread serving them, under the hop's connect and I/O
//!   timeouts.
//! * **Isolation** — a panicking job marks itself `failed` and the worker
//!   lives on; a panicking worker can never take `GET /metrics` down
//!   (the registry lock is poison-proof).
//! * **Bounded connections** — at most [`MAX_CONNECTIONS`] connections
//!   served at once, one thread each (excess clients wait in the
//!   kernel's accept backlog); a request must arrive whole within the
//!   read timeout of its accept, a client that stops reading is dropped
//!   after [`WRITE_TIMEOUT`], and bodies are capped at
//!   [`MAX_BODY_BYTES`].
//! * **No dropped jobs** — shutdown drains everything that was `202`ed.

#![deny(missing_docs)]

#[cfg(not(unix))]
compile_error!("fetchvp-server is Unix-only: its SIGTERM/SIGINT handling uses signal(2)");

pub mod cache;
pub mod http;
pub mod jobs;
pub mod peers;
pub mod queue;

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fetchvp_experiments::{ExperimentConfig, JobSpec, Sweep};
use fetchvp_metrics::{Json, SharedRegistry};
use fetchvp_tracestore::TraceDir;
use fetchvp_tracing::{log_with, Level};

use cache::ResultCache;
use http::{error_body, Request, RequestError, Response};
use jobs::{Job, JobTable};
use peers::Fleet;
use queue::BoundedQueue;

/// How the daemon is sized and where it listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// `HOST:PORT` to bind (port 0 picks an ephemeral port).
    pub addr: String,
    /// Pool workers executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it get `503`.
    pub queue_depth: usize,
    /// Per-request read deadline: the whole request must arrive within it
    /// of the accept.
    pub read_timeout: Duration,
    /// Content-addressed trace directory. When set, benchmark traces are
    /// generated once to disk and replayed chunk-by-chunk, which lifts the
    /// `trace_len` cap for machine-sweep experiments to
    /// [`fetchvp_experiments::jobspec::MAX_TRACE_LEN_OOC`].
    pub trace_dir: Option<PathBuf>,
    /// In-memory result-cache capacity (finished result documents); 0
    /// disables result caching. When [`ServerConfig::trace_dir`] is also
    /// set, results spill to `<trace_dir>/results-v1/` and survive
    /// restarts.
    pub result_cache_entries: usize,
    /// Full fleet member list (`host:port`, including this process's own
    /// address) for `--peers` mode; empty means standalone.
    pub peers: Vec<String>,
    /// How many progress events each job's log retains for
    /// `GET /jobs/<id>/events` readers; a slower reader loses the oldest
    /// events (drop-oldest), never the terminal one.
    pub progress_ring_events: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7998".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_depth: 32,
            read_timeout: Duration::from_secs(5),
            trace_dir: None,
            result_cache_entries: 256,
            peers: Vec::new(),
            progress_ring_events: jobs::DEFAULT_PROGRESS_EVENTS,
        }
    }
}

/// How many distinct experiment configurations keep their traces cached.
///
/// Each slot holds one [`Sweep`] (≈ one generated trace set, a few MB at
/// served trace lengths); least-recently-used configurations are evicted.
const SWEEP_POOL_SLOTS: usize = 8;

/// An MRU pool of [`Sweep`]s keyed by [`ExperimentConfig`] — the
/// cross-request trace cache. Served experiments run through the pooled
/// sweep's batch API (`Sweep::machines` → `fetchvp_core::run_batch`), so
/// a job's `jobs` worker count composes with per-cell config batching
/// exactly as it does on the CLI.
struct SweepPool {
    slots: Mutex<Vec<(ExperimentConfig, Sweep)>>,
    /// One on-disk trace cache shared by every pooled sweep, so evicting a
    /// slot never discards generated trace files.
    trace_dir: Option<Arc<TraceDir>>,
}

impl SweepPool {
    fn new(trace_dir: Option<Arc<TraceDir>>) -> SweepPool {
        SweepPool { slots: Mutex::new(Vec::new()), trace_dir }
    }

    /// The pooled sweep for `spec`'s configuration (built on miss),
    /// reconfigured to the spec's worker count. The bool reports a hit.
    fn sweep_for(&self, spec: &JobSpec) -> (Sweep, bool) {
        let cfg = spec.config();
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(at) = slots.iter().position(|(c, _)| *c == cfg) {
            let entry = slots.remove(at);
            let sweep = entry.1.clone();
            slots.insert(0, entry);
            return (sweep.reconfigured(spec.jobs), true);
        }
        let sweep = Sweep::with_trace_dir(&cfg, self.trace_dir.clone(), 1);
        slots.insert(0, (cfg, sweep.clone()));
        slots.truncate(SWEEP_POOL_SLOTS);
        (sweep.reconfigured(spec.jobs), false)
    }
}

/// How often a blocked thread re-checks the shutdown flag: the
/// supervisor's poll interval, the longest single read of a connection
/// still waiting for its request, a live stream's frame cadence and the
/// pause after a throttled accept.
const TICK: Duration = Duration::from_millis(50);

/// Maximum connections served at once — one connection thread each;
/// excess clients wait in the kernel's accept backlog.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a response or stream write may stall: a client that stops
/// reading is dropped after it.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Maximum accepted `POST` body, bytes; a larger one gets `413`.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// A quiet stream emits a `{"heartbeat": true}` frame this often, so
/// clients (and intermediaries) can tell an idle job from a dead
/// connection.
const STREAM_HEARTBEAT: Duration = Duration::from_secs(1);

/// State shared by the connection threads, pool workers and the health
/// checker.
struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<Arc<Job>>,
    jobs: JobTable,
    metrics: SharedRegistry,
    sweeps: SweepPool,
    results: ResultCache,
    fleet: Fleet,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    /// When the daemon bound its socket — the `server.uptime_seconds`
    /// gauge and the per-member RPS denominator in `/fleet/metrics`.
    started: Instant,
}

impl Shared {
    fn should_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signals::terminated()
    }
}

/// The daemon: bind with [`Server::bind`], then block in [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Shared,
}

impl Server {
    /// Binds the listening socket and builds the shared state. Nothing
    /// runs until [`Server::run`].
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = SharedRegistry::new();
        metrics.counter("server", "started", 1);
        // Build identity, for version-skew detection across a fleet:
        // `fetchvp_build_info 1` plus the crate and on-disk format
        // versions as their own series (this exposition has no labels).
        metrics.counter("build", "info", 1);
        for (name, text) in [
            ("version_major", env!("CARGO_PKG_VERSION_MAJOR")),
            ("version_minor", env!("CARGO_PKG_VERSION_MINOR")),
            ("version_patch", env!("CARGO_PKG_VERSION_PATCH")),
        ] {
            metrics.counter("build", name, text.parse().unwrap_or(0));
        }
        metrics.counter("build", "trace_format_version", fetchvp_tracestore::FORMAT_VERSION as u64);
        let trace_dir = config.trace_dir.as_ref().map(|root| Arc::new(TraceDir::new(root)));
        let fleet = if config.peers.is_empty() {
            Fleet::standalone()
        } else {
            Fleet::from_members(&config.peers, listener.local_addr()?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?
        };
        let results = ResultCache::new(config.result_cache_entries, config.trace_dir.as_deref());
        let state = Shared {
            queue: BoundedQueue::new(config.queue_depth),
            jobs: JobTable::sharded(fleet.stride(), fleet.self_index() as u64)
                .with_progress_capacity(config.progress_ring_events),
            metrics,
            sweeps: SweepPool::new(trace_dir),
            results,
            fleet,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
            config,
        };
        Ok(Server { listener, state })
    }

    /// The bound address — the way to learn the port after binding `:0`.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown` or `SIGTERM`/`SIGINT`, then finishes
    /// the connections in flight and drains admitted jobs before
    /// returning.
    pub fn run(self) -> io::Result<()> {
        signals::install();
        let wake = wake_addr(self.listener.local_addr()?);
        let (listener, state) = (&self.listener, &self.state);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..state.config.workers.max(1))
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("fetchvp-worker-{i}"))
                        .spawn_scoped(scope, move || worker_loop(state))
                        .expect("spawn worker thread")
                })
                .collect();
            let health_checker = state.fleet.is_fleet().then(|| {
                std::thread::Builder::new()
                    .name("fetchvp-health".to_string())
                    .spawn_scoped(scope, move || health_loop(state))
                    .expect("spawn health checker")
            });
            // The pool size is the connection cap: a client beyond it
            // waits in the kernel's accept backlog, not refused.
            let connections: Vec<_> = (0..MAX_CONNECTIONS)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("fetchvp-conn-{i}"))
                        .spawn_scoped(scope, move || accept_loop(listener, state))
                        .expect("spawn connection thread")
                })
                .collect();

            while !state.should_shutdown() {
                std::thread::sleep(TICK);
            }
            // One loopback connect completes one blocked accept, whose
            // thread then sees the flag and exits; busy threads see it
            // when their connection ends.
            for _ in &connections {
                let _ = TcpStream::connect_timeout(&wake, TICK);
            }
            let served: Vec<_> = connections.into_iter().map(|c| c.join()).collect();

            // Graceful shutdown: reject new work, drain everything admitted.
            state.queue.close();
            for worker in workers {
                let _ = worker.join();
            }
            if let Some(checker) = health_checker {
                let _ = checker.join();
            }
            // A connection thread's panic resurfaces once the workers are
            // drained; a listener failure is what `run` returns.
            served.into_iter().try_for_each(|joined| {
                joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
        })
    }
}

/// Where the shutdown wake-up connects: the bound address, with a
/// wildcard IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// One connection thread: accepts a connection, serves it to the end,
/// and repeats until shutdown. Only a failure of the listener itself
/// stops the daemon (the error is what [`Server::run`] returns).
fn accept_loop(listener: &TcpListener, state: &Shared) -> io::Result<()> {
    while !state.should_shutdown() {
        match listener.accept() {
            // The shutdown wake-up, or a client that raced it.
            Ok(_) if state.should_shutdown() => break,
            Ok((stream, _peer)) => {
                state.active_connections.fetch_add(1, Ordering::SeqCst);
                serve_connection(stream, state);
                state.active_connections.fetch_sub(1, Ordering::SeqCst);
            }
            // Transient per-connection accept failures (e.g. the peer
            // aborted before the accept) must not kill the daemon.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                ) => {}
            // EMFILE (24) / ENFILE (23): fd exhaustion under a connection
            // flood is transient — closing connections free descriptors
            // within a tick or two.
            Err(e) if matches!(e.raw_os_error(), Some(23 | 24)) => {
                state.metrics.counter("server.connections", "accept_throttled", 1);
                std::thread::sleep(TICK);
            }
            Err(e) => {
                state.shutdown.store(true, Ordering::SeqCst);
                return Err(e);
            }
        }
    }
    Ok(())
}

/// Serves one accepted connection: reads its request within
/// `read_timeout` of the accept, routes it and answers — for an events
/// stream, until the stream ends. A client too slow to send its request
/// or to take the answer counts as `server.requests.io_error`.
fn serve_connection(stream: TcpStream, state: &Shared) {
    let started = Instant::now();
    // Reads wait a tick at a time (see `Conn::read`); a write may stall
    // for at most `WRITE_TIMEOUT`.
    let timeouts = stream
        .set_read_timeout(Some(TICK))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)));
    if timeouts.is_err() {
        state.metrics.counter("server.requests", "io_error", 1);
        return;
    }
    let mut conn = Conn { stream, deadline: started + state.config.read_timeout, state };
    let sent = match http::read_request(&mut conn, MAX_BODY_BYTES) {
        Ok(request) => {
            let routed = route(state, &request);
            // A stream is metered when it is accepted: its lifetime is
            // the job's, not a request-latency sample's.
            let status = match &routed {
                Routed::Ready(response) => response.status,
                Routed::Stream(_) | Routed::Relay(_) => 200,
            };
            finish_request(state, &request, status, started);
            match routed {
                Routed::Ready(response) => response.write_to(&mut conn.stream),
                Routed::Stream(job) => conn.stream_log(&job),
                Routed::Relay(upstream) => conn.relay(upstream),
            }
        }
        Err(RequestError::Io(_)) => {
            state.metrics.counter("server.requests", "io_error", 1);
            return;
        }
        Err(RequestError::TooLarge(what)) => {
            state.metrics.counter("server.requests", "too_large.413", 1);
            Response::json(413, error_body(&format!("{what} too large"))).write_to(&mut conn.stream)
        }
        Err(RequestError::Malformed(why)) => {
            state.metrics.counter("server.requests", "malformed.400", 1);
            Response::json(400, error_body(why)).write_to(&mut conn.stream)
        }
        Err(RequestError::LengthRequired) => {
            state.metrics.counter("server.requests", "length_required.411", 1);
            let why = "a request body needs Content-Length; Transfer-Encoding is not supported";
            Response::json(411, error_body(why)).write_to(&mut conn.stream)
        }
    };
    // A client that hung up is not an error of ours; one that stopped
    // reading for `WRITE_TIMEOUT` is.
    if sent.is_err_and(|e| is_timeout(&e)) {
        state.metrics.counter("server.requests", "io_error", 1);
    }
}

/// Whether an I/O error is a deadline expiring: our own, or a socket
/// timeout (`EAGAIN` on Unix).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// One accepted connection and the deadline its whole request must
/// arrive by.
struct Conn<'a> {
    stream: TcpStream,
    deadline: Instant,
    state: &'a Shared,
}

impl Read for Conn<'_> {
    /// Reads before the request deadline. Each socket read waits at most
    /// a tick, so the deadline — and shutdown, for a connection still
    /// waiting for its request — is checked at least that often. End of
    /// stream is an error here: it can only come before the request is
    /// whole.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if Instant::now() >= self.deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            match self.stream.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {
                    if self.state.should_shutdown() {
                        return Err(e);
                    }
                }
                read => return read,
            }
        }
    }
}

impl Conn<'_> {
    /// Streams the job's event log as chunked NDJSON from this
    /// connection's own cursor, cutting frames every tick: one chunk per
    /// event, a `{"dropped": n}` notice when the log evicted events this
    /// reader never saw (a slow client stalls only itself), a heartbeat
    /// after a quiet second, and the final chunk right after the terminal
    /// event — always the log's newest, so drop-oldest never loses it.
    /// Shutdown cuts the stream; the job keeps running.
    fn stream_log(&mut self, job: &Job) -> io::Result<()> {
        // The head goes out with the first frames, in one write.
        let mut out = http::stream_head(200, STREAM_CONTENT_TYPE);
        let (mut cursor, mut events, mut last_emit) = (0, Vec::new(), Instant::now());
        while !self.state.should_shutdown() {
            let dropped = job.read_log(&mut cursor, &mut events);
            if dropped > 0 {
                let notice = format!("{{\"dropped\": {dropped}}}\n");
                out.extend(http::chunk(notice.as_bytes()));
            }
            for event in events.drain(..) {
                out.extend(http::chunk(format!("{}\n", event.to_line()).as_bytes()));
                if event.is_terminal() {
                    out.extend_from_slice(http::chunk_end());
                    return self.stream.write_all(&out);
                }
            }
            let now = Instant::now();
            if out.is_empty() && now.duration_since(last_emit) >= STREAM_HEARTBEAT {
                out.extend(http::chunk(b"{\"heartbeat\": true}\n"));
            }
            if !out.is_empty() {
                self.stream.write_all(&out)?;
                out.clear();
                last_emit = now;
            }
            std::thread::sleep(TICK);
        }
        Ok(())
    }

    /// Passes the owning member's events response through verbatim —
    /// head and chunked framing included — until the owner ends it. An
    /// owner that dies mid-stream leaves the client a chunked body
    /// without its final chunk, so it knows the stream did not end
    /// cleanly. Shutdown cuts the relay.
    fn relay(&mut self, mut upstream: TcpStream) -> io::Result<()> {
        upstream.set_read_timeout(Some(TICK))?;
        let mut buf = [0u8; 4096];
        while !self.state.should_shutdown() {
            match upstream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.stream.write_all(&buf[..n])?,
                Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        Ok(())
    }
}

/// Probes every peer on a fixed interval, flipping liveness flags and
/// counting transitions so a flapping peer is visible in `/metrics`.
fn health_loop(state: &Shared) {
    while !state.should_shutdown() {
        for member in 0..state.fleet.members().len() {
            if member == state.fleet.self_index() {
                continue;
            }
            let alive = state.fleet.probe(member);
            if state.fleet.set_alive(member, alive) {
                state.metrics.counter("server.peers", "health_flips", 1);
                let label = state.fleet.metric_label(member);
                log_with("server.peers", Level::Info, || {
                    format!("peer {label} is now {}", if alive { "up" } else { "down" })
                });
            }
        }
        // Sleep in small steps so shutdown is honored promptly.
        let deadline = Instant::now() + peers::HEALTH_INTERVAL;
        while Instant::now() < deadline && !state.should_shutdown() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One pool worker: pull, run (panic-isolated), publish.
fn worker_loop(state: &Shared) {
    while let Some(job) = state.queue.pop() {
        job.start();
        let spec = &job.spec;
        let (sweep, pool_hit) = state.sweeps.sweep_for(spec);
        // The job observes every machine sweep its spec runs, which feeds
        // `GET /jobs/<id>/events`; observers never change results (the
        // sweep determinism tests assert this).
        let sweep = sweep.with_progress(job.clone());
        state.metrics.counter("server.sweep_pool", if pool_hit { "hits" } else { "misses" }, 1);
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| spec.run(&sweep))) {
            Ok(outcome) => {
                state.metrics.merge(&outcome.metrics);
                state.metrics.counter("server.jobs", "completed", 1);
                state.metrics.observe(
                    "server",
                    "job_latency_ms",
                    started.elapsed().as_millis() as u64,
                );
                // Results are cached by content so the next identical spec
                // is a lookup; failures are never cached.
                state.results.insert(spec.canonical_hash(), spec.canonical(), &outcome.result);
                state.jobs.finish(&job, Ok(outcome.result));
            }
            Err(_) => {
                state.metrics.counter("server.jobs", "failed", 1);
                state.jobs.finish(&job, Err("job panicked; see server logs".to_string()));
            }
        }
    }
}

/// Monotone id shared by every connection, for correlating access log
/// lines (`FETCHVP_LOG=server=info`) across requests.
static REQUEST_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// What routing decided for one request.
enum Routed {
    /// A buffered response, ready to write.
    Ready(Response),
    /// A live `GET /jobs/<id>/events` stream of a job this process owns.
    Stream(Arc<Job>),
    /// A `GET /jobs/<id>/events` stream relayed from the fleet member
    /// that owns the job: a socket with the forwarded request sent.
    Relay(TcpStream),
}

/// Records the per-request metrics and access log line once routing has
/// answered. `started` is when the connection was accepted, so
/// `server.request_latency_us` includes request-receive (and any
/// proxy-hop) time.
fn finish_request(state: &Shared, request: &Request, status: u16, started: Instant) {
    let id = REQUEST_ID.fetch_add(1, Ordering::Relaxed) + 1;
    state.metrics.counter(
        "server.requests",
        &format!("{}.{}", endpoint_label(&request.path), status),
        1,
    );
    let micros = started.elapsed().as_micros() as u64;
    state.metrics.observe("server", "request_latency_us", micros);
    log_with("server.http", Level::Info, || {
        format!("req={id} {} {} -> {status} in {micros}us", request.method, request.path)
    });
}

/// The content type of the `GET /jobs/<id>/events` stream: newline-
/// delimited JSON, one [`jobs::Event`] line per chunk.
pub const STREAM_CONTENT_TYPE: &str = "application/x-ndjson";

/// The metric label for a request path (`/jobs/7` → `jobs`,
/// `/jobs/7/events` → `events`).
fn endpoint_label(path: &str) -> &'static str {
    if path == "/healthz" {
        "healthz"
    } else if path == "/metrics" {
        "metrics"
    } else if path == "/run" {
        "run"
    } else if path == "/shutdown" {
        "shutdown"
    } else if path == "/fleet/metrics" {
        "fleet"
    } else if path.starts_with("/jobs/") && path.ends_with("/events") {
        "events"
    } else if path.starts_with("/jobs/") {
        "jobs"
    } else {
        "other"
    }
}

/// Routes a request — the one router every connection runs. Fleet hops
/// happen inline: they block only this connection's thread.
fn route(state: &Shared, request: &Request) -> Routed {
    Routed::Ready(match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics_snapshot(state, request),
        ("GET", "/fleet/metrics") => {
            // A forwarded request is one peer answering the aggregator:
            // it reports just its own member document.
            if is_forwarded(request) {
                Response::json(200, fleet_member_json(state).to_json())
            } else {
                fleet_metrics_merged(state)
            }
        }
        ("POST", "/run") => submit(state, request),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            Response::json(200, Json::object([status_pair("shutting down")]).to_json())
        }
        ("GET", path) if path.starts_with("/jobs/") => return job_endpoint(state, request, path),
        (_, "/healthz" | "/metrics" | "/run" | "/shutdown" | "/fleet/metrics") => {
            Response::json(405, error_body("method not allowed"))
        }
        (_, path) if path.starts_with("/jobs/") => {
            Response::json(405, error_body("method not allowed"))
        }
        _ => Response::json(404, error_body("no such endpoint")),
    })
}

fn status_pair(status: &str) -> (String, Json) {
    ("status".to_string(), Json::Str(status.to_string()))
}

fn healthz(state: &Shared) -> Response {
    let (queued, running, done, failed) = state.jobs.counts();
    let mut pairs = vec![
        status_pair("ok"),
        ("workers".to_string(), Json::UInt(state.config.workers as u64)),
        ("queue_depth".to_string(), Json::UInt(state.queue.len() as u64)),
        ("queue_capacity".to_string(), Json::UInt(state.queue.capacity() as u64)),
        (
            "jobs".to_string(),
            Json::object([
                ("queued".to_string(), Json::UInt(queued)),
                ("running".to_string(), Json::UInt(running)),
                ("done".to_string(), Json::UInt(done)),
                ("failed".to_string(), Json::UInt(failed)),
            ]),
        ),
    ];
    if state.fleet.is_fleet() {
        let members = state
            .fleet
            .members()
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let status = if i == state.fleet.self_index() {
                    "self"
                } else if state.fleet.is_alive(i) {
                    "up"
                } else {
                    "down"
                };
                (addr.clone(), Json::Str(status.to_string()))
            })
            .collect::<Vec<_>>();
        pairs.push(("peers".to_string(), Json::object(members)));
    }
    Response::json(200, Json::object(pairs).to_json())
}

/// Whether the request's `Accept` header asks for Prometheus text
/// exposition rather than the default JSON snapshot.
fn wants_prometheus(request: &Request) -> bool {
    request
        .header("accept")
        .is_some_and(|accept| accept.contains("text/plain") || accept.contains("openmetrics"))
}

/// Refreshes the point-in-time gauges Prometheus-collector style, right
/// before a snapshot is taken (`/metrics` scrape or a `/fleet/metrics`
/// member report); counters accumulate across the daemon's lifetime.
fn refresh_gauges(state: &Shared) {
    state.metrics.gauge("server", "uptime_seconds", state.started.elapsed().as_secs_f64());
    state.metrics.gauge("server.queue", "depth", state.queue.len() as f64);
    state.metrics.gauge(
        "server.connections",
        "active",
        state.active_connections.load(Ordering::SeqCst) as f64,
    );
    if let Some(dir) = &state.sweeps.trace_dir {
        let counters = dir.counters();
        state.metrics.gauge("server.trace_cache", "hits", counters.hits as f64);
        state.metrics.gauge("server.trace_cache", "misses", counters.misses as f64);
        state.metrics.gauge("server.trace_cache", "bytes", counters.bytes as f64);
    }
    if state.results.enabled() {
        let counters = state.results.counters();
        state.metrics.gauge("server.result_cache", "hits", counters.hits as f64);
        state.metrics.gauge("server.result_cache", "disk_hits", counters.disk_hits as f64);
        state.metrics.gauge("server.result_cache", "misses", counters.misses as f64);
        state.metrics.gauge("server.result_cache", "bytes", counters.bytes as f64);
    }
    for member in 0..state.fleet.members().len() {
        let up = if state.fleet.is_alive(member) { 1.0 } else { 0.0 };
        state.metrics.gauge(
            &format!("server.peers.{}", state.fleet.metric_label(member)),
            "up",
            up,
        );
    }
}

fn metrics_snapshot(state: &Shared, request: &Request) -> Response {
    refresh_gauges(state);
    // `server.started` (recorded at bind) guarantees the `server.*`
    // namespace is present even in the very first scrape; this request's
    // own counter lands in the *next* snapshot via finish_request.
    let snapshot = state.metrics.snapshot();
    if wants_prometheus(request) {
        return Response::text(
            200,
            fetchvp_tracing::prom::render(&snapshot),
            fetchvp_tracing::prom::CONTENT_TYPE,
        );
    }
    Response::json(200, snapshot.to_json().to_json())
}

/// One member's contribution to `/fleet/metrics`: who it is (address,
/// crate version, uptime), what it is doing (live jobs with progress
/// snapshots) and its full metrics snapshot.
fn fleet_member_json(state: &Shared) -> Json {
    refresh_gauges(state);
    let addr = state
        .fleet
        .members()
        .get(state.fleet.self_index())
        .cloned()
        .unwrap_or_else(|| state.config.addr.clone());
    Json::object([
        ("addr".to_string(), Json::Str(addr)),
        ("version".to_string(), Json::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("uptime_seconds".to_string(), Json::UInt(state.started.elapsed().as_secs())),
        ("live_jobs".to_string(), state.jobs.live_json()),
        ("metrics".to_string(), state.metrics.snapshot().to_json()),
    ])
}

/// Builds the merged `/fleet/metrics` document: this member's own report
/// plus one forwarded fetch per peer. Unreachable peers are marked `"down"` (and their
/// liveness flag flipped) instead of failing the whole aggregation, and
/// counters of every reporting member are summed into a fleet-wide
/// `summed.counters` section.
fn fleet_metrics_merged(state: &Shared) -> Response {
    let mut members: Vec<(String, Json)> = Vec::new();
    let mut summed: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut reporting = 0u64;
    let mut sum_counters = |doc: &Json| {
        if let Some(counters) = doc.get_path("metrics.counters").and_then(Json::as_object) {
            for (key, value) in counters {
                if let Some(n) = value.as_u64() {
                    *summed.entry(key.clone()).or_insert(0) += n;
                }
            }
        }
    };
    if state.fleet.is_fleet() {
        let probe = Request::get("/fleet/metrics");
        for (member, addr) in state.fleet.members().iter().enumerate() {
            let (status, doc) = if member == state.fleet.self_index() {
                ("self", Some(fleet_member_json(state)))
            } else {
                let fetched = hop(state, member, &probe)
                    .filter(|response| response.status == 200)
                    .and_then(|response| Json::parse(&response.body).ok());
                match fetched {
                    Some(doc) => ("up", Some(doc)),
                    None => ("down", None),
                }
            };
            let mut pairs = vec![("status".to_string(), Json::Str(status.to_string()))];
            if let Some(doc) = doc {
                reporting += 1;
                sum_counters(&doc);
                if let Some(fields) = doc.as_object() {
                    pairs.extend(fields.iter().cloned());
                }
            }
            members.push((addr.clone(), Json::object(pairs)));
        }
    } else {
        let doc = fleet_member_json(state);
        reporting = 1;
        sum_counters(&doc);
        let mut pairs = vec![("status".to_string(), Json::Str("self".to_string()))];
        pairs.extend(doc.as_object().into_iter().flatten().cloned());
        members.push((state.config.addr.clone(), Json::object(pairs)));
    }
    let summed_counters =
        summed.into_iter().map(|(key, value)| (key, Json::UInt(value))).collect::<Vec<_>>();
    let doc = Json::object([
        ("fleet_size".to_string(), Json::UInt(state.fleet.members().len().max(1) as u64)),
        ("reporting".to_string(), Json::UInt(reporting)),
        ("members".to_string(), Json::object(members)),
        (
            "summed".to_string(),
            Json::object([("counters".to_string(), Json::object(summed_counters))]),
        ),
    ]);
    Response::json(200, doc.to_json())
}

/// Seconds a rejected client should wait before retrying, derived from
/// the live drain rate: `ceil(queued × mean job latency / workers)`,
/// clamped to `1..=60`. Before any job has finished (no latency history)
/// each queued job is assumed to take one second.
fn retry_after_hint(state: &Shared) -> u64 {
    // +1 for the job that was just bounced: the client retries behind
    // everything currently queued.
    let queued = state.queue.len() as u64 + 1;
    let mean_ms = state
        .metrics
        .get_histogram("server.job_latency_ms")
        .map(|h| h.mean())
        .filter(|&mean| mean > 0.0)
        .unwrap_or(1000.0);
    let workers = state.config.workers.max(1) as f64;
    let seconds = (queued as f64 * mean_ms / workers / 1000.0).ceil() as u64;
    seconds.clamp(1, 60)
}

/// Whether this request already made its one proxy hop — such requests
/// are always handled locally, which is what bounds a stale ring view at
/// one extra hop instead of a forwarding loop.
fn is_forwarded(request: &Request) -> bool {
    request.header(peers::FORWARDED_HEADER).is_some()
}

/// The fleet member a request must hop to when `owner` owns what it
/// asks for: `None` when that is this process, or when the request has
/// already made its one hop.
fn remote_owner(state: &Shared, owner: usize, request: &Request) -> Option<usize> {
    (state.fleet.is_fleet() && owner != state.fleet.self_index() && !is_forwarded(request))
        .then_some(owner)
}

/// Forwards `request` one hop to `member` and stamps the relay
/// (`X-Fetchvp-Proxied: 1`) so clients can attribute the extra hop's
/// latency. `None` when the hop cannot run — the peer is already marked
/// dead, which spares a connect timeout, or the hop just failed, which
/// marks it dead — so the caller degrades to local handling instead of
/// surfacing a peer's failure to the client.
fn hop(state: &Shared, member: usize, request: &Request) -> Option<Response> {
    if !state.fleet.is_alive(member) {
        return None;
    }
    let Some(mut response) = state.fleet.proxy(member, request) else {
        mark_dead(state, member);
        return None;
    };
    state.metrics.counter("server.peers", "proxied", 1);
    response.proxied = true;
    Some(response)
}

/// Counts a failed hop to `member` and marks the peer down.
fn mark_dead(state: &Shared, member: usize) {
    state.metrics.counter("server.peers", "proxy_errors", 1);
    if state.fleet.set_alive(member, false) {
        state.metrics.counter("server.peers", "health_flips", 1);
    }
}

/// The `502` for a job whose record lives only on an unreachable fleet
/// member — there is no local fallback to answer from.
fn unreachable_owner(state: &Shared, id_text: &str, owner: usize) -> Response {
    Response::json(
        502,
        error_body(&format!(
            "job {id_text} belongs to unreachable fleet member {}",
            state.fleet.members().get(owner).map(String::as_str).unwrap_or("?")
        )),
    )
}

fn submit(state: &Shared, request: &Request) -> Response {
    if state.should_shutdown() {
        return Response::retry_after(503, error_body("server is shutting down"), 1);
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::json(400, error_body("body is not UTF-8")),
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Response::json(400, error_body(&e.to_string())),
    };
    let spec = match JobSpec::from_json_with_limits(&doc, state.sweeps.trace_dir.is_some()) {
        Ok(spec) => spec,
        Err(e) => return Response::json(400, error_body(&e)),
    };

    // Fleet routing: the spec's canonical hash names exactly one owner;
    // everyone else proxies a single hop. A failed hop degrades to
    // running the job here — availability over cache locality.
    let hash = spec.canonical_hash();
    if let Some(owner) = remote_owner(state, state.fleet.owner_of(hash), request) {
        if let Some(response) = hop(state, owner, request) {
            return response;
        }
    }

    // Result cache: a spec answered before is a dictionary lookup — the
    // result is inlined and the response is self-contained (nothing to
    // poll), so no job record is minted and a flood of warm cache hits
    // cannot grow the job table.
    if let Some(result) = state.results.get(hash, &spec.canonical()) {
        state.metrics.counter("server.jobs", "cached", 1);
        let body = Json::object([
            status_pair("done"),
            ("cached".to_string(), Json::Bool(true)),
            ("result".to_string(), result),
        ]);
        return Response::json(200, body.to_json());
    }

    let job = state.jobs.create(spec);
    let id = job.id;
    match state.queue.try_push(job) {
        Ok(depth) => {
            state.metrics.counter("server.queue", "admitted", 1);
            let body = Json::object([
                ("job".to_string(), Json::UInt(id)),
                status_pair("queued"),
                ("queue_depth".to_string(), Json::UInt(depth as u64)),
            ]);
            Response::json(202, body.to_json())
        }
        Err(_) => {
            state.jobs.remove(id);
            state.metrics.counter("server.queue", "rejected", 1);
            Response::retry_after(503, error_body("queue full"), retry_after_hint(state))
        }
    }
}

/// `GET /jobs/<id>` and `GET /jobs/<id>/events`: the job's document or
/// a live stream of its event log — from the fleet member that owns the
/// id (one proxy hop, or a relayed stream) when the id belongs elsewhere
/// — or `404` when no job exists (ids never minted, evicted terminal
/// jobs, and cache-hit submissions, which are answered inline).
fn job_endpoint(state: &Shared, request: &Request, path: &str) -> Routed {
    let tail = &path["/jobs/".len()..];
    let (id_text, events) = tail.strip_suffix("/events").map_or((tail, false), |id| (id, true));
    let Ok(id) = id_text.parse::<u64>() else {
        return Routed::Ready(Response::json(400, error_body("job id must be an integer")));
    };
    // In a fleet the id encodes its owner, the one member holding the
    // job and its log.
    let owner = JobTable::owner_of(id, state.fleet.stride()) as usize;
    if let Some(owner) = remote_owner(state, owner, request) {
        if !events {
            let hopped = hop(state, owner, request);
            return Routed::Ready(
                hopped.unwrap_or_else(|| unreachable_owner(state, id_text, owner)),
            );
        }
        // An unreachable owner leaves nothing to stream.
        let upstream = if state.fleet.is_alive(owner) {
            state.fleet.open_stream(owner, request)
        } else {
            None
        };
        return match upstream {
            Some(upstream) => {
                state.metrics.counter("server.peers", "proxied_streams", 1);
                Routed::Relay(upstream)
            }
            None => {
                mark_dead(state, owner);
                Routed::Ready(unreachable_owner(state, id_text, owner))
            }
        };
    }
    match state.jobs.get(id) {
        Some(job) if events => Routed::Stream(job),
        Some(job) => Routed::Ready(Response::json(200, job.to_json().to_json())),
        None => Routed::Ready(Response::json(404, error_body(&format!("no job {id}")))),
    }
}

/// Process-wide termination flag set from `SIGTERM`/`SIGINT`.
///
/// `std` exposes no signal API and the workspace links no crates, but
/// `std` itself links libc, so declaring `signal(2)` directly keeps the
/// daemon zero-dependency. The handler only stores to an atomic —
/// async-signal-safe — and the supervising thread checks the flag every
/// tick (50 ms).
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the `SIGTERM`/`SIGINT` handlers (idempotent).
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn terminated() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(queue_depth: usize) -> Shared {
        Shared {
            // Pin workers so tests that exercise the Retry-After math are
            // independent of the host's core count.
            config: ServerConfig { queue_depth, workers: 4, ..ServerConfig::default() },
            queue: BoundedQueue::new(queue_depth),
            jobs: JobTable::new(),
            metrics: SharedRegistry::new(),
            sweeps: SweepPool::new(None),
            results: ResultCache::new(8, None),
            fleet: Fleet::standalone(),
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
        }
    }

    /// One request through the daemon's own connection handler, over a
    /// loopback socket; a chunked stream's body comes back dechunked.
    fn exchange(state: &Shared, method: &str, path: &str, headers: &str, body: &str) -> Response {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let head =
            format!("{method} {path} HTTP/1.1\r\n{headers}Content-Length: {}\r\n\r\n", body.len());
        client.write_all(format!("{head}{body}").as_bytes()).unwrap();
        let mut raw = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| serve_connection(listener.accept().unwrap().0, state));
            client.read_to_end(&mut raw).unwrap();
        });
        let mut response = peers::parse_upstream_response(&raw).expect("a well-formed reply");
        if response.content_type == STREAM_CONTENT_TYPE {
            let mut chunks = response.body.as_str();
            let mut body = String::new();
            while let Some((len, rest)) = chunks.split_once("\r\n") {
                let len = usize::from_str_radix(len, 16).expect("chunk length");
                body.push_str(&rest[..len]);
                chunks = &rest[len + 2..];
            }
            response.body = body;
        }
        response
    }

    fn get(state: &Shared, path: &str) -> Response {
        exchange(state, "GET", path, "", "")
    }

    fn post(state: &Shared, path: &str, body: &str) -> Response {
        exchange(state, "POST", path, "", body)
    }

    #[test]
    fn healthz_reports_ok() {
        let state = test_state(4);
        let response = get(&state, "/healthz");
        assert_eq!(response.status, 200);
        let doc = Json::parse(&response.body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    }

    #[test]
    fn submit_validates_then_queues() {
        let state = test_state(4);
        assert_eq!(post(&state, "/run", "not json").status, 400);
        assert_eq!(post(&state, "/run", r#"{"experiment": "fig9-9"}"#).status, 400);
        let ok = post(&state, "/run", r#"{"experiment": "bench", "trace_len": 1000}"#);
        assert_eq!(ok.status, 202);
        let doc = Json::parse(&ok.body).unwrap();
        assert_eq!(doc.get("job").and_then(Json::as_u64), Some(1));
        assert_eq!(state.queue.len(), 1);
        assert_eq!(get(&state, "/jobs/1").status, 200);
        assert_eq!(get(&state, "/jobs/99").status, 404);
        assert_eq!(get(&state, "/jobs/xyz").status, 400);
    }

    #[test]
    fn full_queue_answers_503_with_retry_after() {
        let state = test_state(1);
        assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 202);
        let rejected = post(&state, "/run", r#"{"experiment": "bench"}"#);
        assert_eq!(rejected.status, 503);
        // No latency history yet: 2 outstanding × 1s assumed / 4 workers,
        // ceiled — the minimum hint.
        assert_eq!(rejected.retry_after, Some(1));
        // The rejected job's record was rolled back.
        assert_eq!(get(&state, "/jobs/2").status, 404);
        assert_eq!(state.jobs.counts(), (1, 0, 0, 0));
    }

    #[test]
    fn retry_after_tracks_queue_depth_and_drain_rate() {
        let state = test_state(32);
        // 9 queued + the bounced one = 10 outstanding; no history yet →
        // assume 1s each over 4 workers: ceil(10/4) = 3.
        for _ in 0..9 {
            assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 202);
        }
        assert_eq!(retry_after_hint(&state), 3);
        // Jobs observed to finish in ~2s each: ceil(10 × 2 / 4) = 5.
        state.metrics.observe("server", "job_latency_ms", 2000);
        assert_eq!(retry_after_hint(&state), 5);
        // Fast drain (40ms jobs): clamps up to the 1-second floor.
        let state = test_state(32);
        state.metrics.observe("server", "job_latency_ms", 40);
        assert_eq!(retry_after_hint(&state), 1);
        // Pathological backlog: capped at 60 so clients do retry.
        let state = test_state(512);
        for _ in 0..500 {
            assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 202);
        }
        state.metrics.observe("server", "job_latency_ms", 10_000);
        assert_eq!(retry_after_hint(&state), 60);
    }

    #[test]
    fn repeated_deterministic_specs_hit_the_result_cache() {
        let state = test_state(4);
        let spec = r#"{"experiment": "table3-1", "trace_len": 300}"#;
        let first = post(&state, "/run", spec);
        assert_eq!(first.status, 202, "cold cache: the job must queue");
        state.queue.close();
        worker_loop(&state);
        let done = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        let uncached_result = done.get("result").unwrap().to_json();

        // Same spec, noisy formatting: answered inline from the cache.
        let second = post(&state, "/run", r#"{ "trace_len": 300, "experiment": "table3-1" }"#);
        assert_eq!(second.status, 200);
        let doc = Json::parse(&second.body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("result").unwrap().to_json(),
            uncached_result,
            "cached result must be byte-identical to the uncached run"
        );
        // A cache hit is self-contained: no job record is minted, so the
        // table stays bounded no matter how much warm traffic repeats.
        assert!(doc.get("job").is_none(), "cache hits must not mint a job id");
        assert_eq!(state.jobs.counts(), (0, 0, 1, 0), "only the cold run has a record");
        assert_eq!(state.results.counters().hits, 1);
        let snapshot = state.metrics.snapshot();
        assert_eq!(snapshot.get_counter("server.jobs.cached"), Some(1));
        assert_eq!(
            snapshot.get_counter("server.sweep_pool.misses"),
            Some(1),
            "the cache hit must not touch the sweep pool"
        );

        // A spec differing in any canonical field misses: it falls
        // through to the queue path (503 here only because this test
        // already closed the queue) instead of being answered inline.
        let miss = post(&state, "/run", r#"{"experiment": "table3-1", "trace_len": 301}"#);
        assert_ne!(miss.status, 200, "different trace_len must be a cache miss");
        assert_eq!(state.results.counters().misses, 2, "cold lookup + changed-field lookup");
    }

    #[test]
    fn unknown_paths_and_methods() {
        let state = test_state(4);
        assert_eq!(get(&state, "/nope").status, 404);
        assert_eq!(post(&state, "/healthz", "").status, 405);
        assert_eq!(post(&state, "/jobs/1", "").status, 405);
        assert_eq!(get(&state, "/run").status, 405);
    }

    #[test]
    fn shutdown_flag_rejects_new_submissions() {
        let state = test_state(4);
        assert_eq!(post(&state, "/shutdown", "").status, 200);
        assert!(state.should_shutdown());
        assert_eq!(post(&state, "/run", r#"{"experiment": "bench"}"#).status, 503);
    }

    #[test]
    fn worker_executes_a_tiny_job_end_to_end() {
        let state = test_state(4);
        let ok = post(&state, "/run", r#"{"experiment": "table3-1", "trace_len": 300}"#);
        assert_eq!(ok.status, 202);
        state.queue.close(); // worker drains the one job, then exits
        worker_loop(&state);
        let doc = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert!(doc.get_path("result.csv").is_some());
        let snapshot = state.metrics.snapshot();
        assert_eq!(snapshot.get_counter("server.jobs.completed"), Some(1));
        assert_eq!(snapshot.get_counter("server.sweep_pool.misses"), Some(1));
    }

    #[test]
    fn metrics_negotiates_prometheus_exposition() {
        let state = test_state(4);
        state.metrics.counter("server", "started", 1); // recorded by bind()
        let json = get(&state, "/metrics");
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        Json::parse(&json.body).expect("default /metrics body stays JSON");

        let prom = exchange(&state, "GET", "/metrics", "Accept: text/plain\r\n", "");
        assert_eq!(prom.status, 200);
        assert_eq!(prom.content_type, fetchvp_tracing::prom::CONTENT_TYPE);
        assert!(
            prom.body.lines().any(|l| l == "fetchvp_server_started 1"),
            "exposition must carry the started counter:\n{}",
            prom.body
        );
        assert!(prom.body.contains("# TYPE fetchvp_server_started counter"), "{}", prom.body);
    }

    #[test]
    fn out_of_core_specs_are_admitted_only_with_a_trace_dir() {
        let big_spec = r#"{"experiment": "fig3-1", "trace_len": 50000000}"#;

        let state = test_state(4);
        let rejected = post(&state, "/run", big_spec);
        assert_eq!(rejected.status, 400);
        assert!(
            rejected.body.contains("trace directory"),
            "rejection must name the missing capability: {}",
            rejected.body
        );

        // Same spec with a trace directory configured: admitted. The job
        // only queues here (no worker), so nothing touches the disk yet
        // and the lazily-created directory never materialises.
        let dir = std::env::temp_dir().join("fetchvp-server-ooc-admission-test");
        let state =
            Shared { sweeps: SweepPool::new(Some(Arc::new(TraceDir::new(&dir)))), ..test_state(4) };
        assert_eq!(post(&state, "/run", big_spec).status, 202);

        // So are analysis experiments, which walk the stores too.
        let analysis = r#"{"experiment": "fig3-3", "trace_len": 50000000}"#;
        assert_eq!(post(&state, "/run", analysis).status, 202);

        // The event-machine oracle stays memory-bound even with the
        // directory.
        let oracle = r#"{"experiment": "breakdown", "trace_len": 50000000}"#;
        let rejected = post(&state, "/run", oracle);
        assert_eq!(rejected.status, 400);
        assert!(rejected.body.contains("whole resident traces"), "{}", rejected.body);
    }

    #[test]
    fn job_documents_carry_live_progress_snapshots() {
        let state = test_state(4);
        let ok = post(&state, "/run", r#"{"experiment": "fig3-1", "trace_len": 400}"#);
        assert_eq!(ok.status, 202);
        let doc = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        assert_eq!(doc.get_path("progress.phase").and_then(Json::as_str), Some("queued"));
        assert_eq!(doc.get_path("progress.percent").and_then(Json::as_u64), Some(0));
        state.queue.close();
        worker_loop(&state);
        let doc = Json::parse(&get(&state, "/jobs/1").body).unwrap();
        assert_eq!(doc.get_path("progress.phase").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get_path("progress.percent").and_then(Json::as_u64), Some(100));
        let done = doc.get_path("progress.instructions_done").and_then(Json::as_u64).unwrap();
        let total = doc.get_path("progress.instructions_total").and_then(Json::as_u64).unwrap();
        assert!(total > 0 && done >= total, "sweep must have walked every instruction");
    }

    #[test]
    fn events_endpoint_replays_the_ring_and_404s_unknown_jobs() {
        let state = test_state(4);
        assert_eq!(get(&state, "/jobs/1/events").status, 404, "no record yet");
        assert_eq!(get(&state, "/jobs/x/events").status, 400);
        let ok = post(&state, "/run", r#"{"experiment": "fig3-1", "trace_len": 400}"#);
        assert_eq!(ok.status, 202);
        state.queue.close();
        worker_loop(&state);
        // A finished job's stream replays its event log and ends.
        let stream = get(&state, "/jobs/1/events");
        assert_eq!(stream.status, 200);
        assert_eq!(stream.content_type, STREAM_CONTENT_TYPE);
        let lines: Vec<&str> = stream.body.lines().collect();
        assert!(lines.len() >= 3, "expect queued + running + progress + done:\n{}", stream.body);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("phase").and_then(Json::as_str), Some("queued"));
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("phase").and_then(Json::as_str), Some("done"));
        // instructions_done is monotone across the whole stream.
        let done: Vec<u64> = lines
            .iter()
            .map(|l| {
                Json::parse(l).unwrap().get("instructions_done").and_then(Json::as_u64).unwrap()
            })
            .collect();
        assert!(done.windows(2).all(|w| w[0] <= w[1]), "{done:?}");
    }

    #[test]
    fn cached_result_submissions_have_no_stream() {
        let state = test_state(4);
        let spec = r#"{"experiment": "table3-1", "trace_len": 300}"#;
        assert_eq!(post(&state, "/run", spec).status, 202);
        state.queue.close();
        worker_loop(&state);
        let hit = post(&state, "/run", spec);
        assert_eq!(hit.status, 200, "second submission must be a cache hit");
        assert!(hit.body.contains("\"cached\""));
        // The hit minted no job record, so there is nothing to stream.
        assert_eq!(get(&state, "/jobs/2/events").status, 404);
    }

    #[test]
    fn standalone_fleet_metrics_reports_a_single_member() {
        let state = test_state(4);
        state.metrics.counter("server", "started", 1);
        let response = get(&state, "/fleet/metrics");
        assert_eq!(response.status, 200);
        let doc = Json::parse(&response.body).unwrap();
        assert_eq!(doc.get("fleet_size").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("reporting").and_then(Json::as_u64), Some(1));
        let members = doc.get("members").and_then(Json::as_object).unwrap();
        assert_eq!(members.len(), 1);
        let (_, member) = &members[0];
        assert_eq!(member.get("status").and_then(Json::as_str), Some("self"));
        assert_eq!(member.get("version").and_then(Json::as_str), Some(env!("CARGO_PKG_VERSION")));
        assert!(member.get("live_jobs").is_some());
        assert_eq!(
            doc.get_path("summed.counters")
                .and_then(|c| c.get("server.started"))
                .and_then(Json::as_u64),
            Some(1),
            "summed counters must include the member's own:\n{}",
            response.body
        );
        // Method guard matches the other endpoints.
        assert_eq!(post(&state, "/fleet/metrics", "").status, 405);
    }

    #[test]
    fn sweep_pool_shares_traces_between_equal_configs() {
        let pool = SweepPool::new(None);
        let spec = JobSpec { trace_len: 500, ..JobSpec::default() };
        let (first, hit_first) = pool.sweep_for(&spec);
        first.cache().trace(0);
        let (second, hit_second) = pool.sweep_for(&spec);
        assert!(!hit_first && hit_second);
        assert_eq!(second.cache().generated(), 1, "trace must already be warm");
        let other = JobSpec { trace_len: 600, ..JobSpec::default() };
        let (third, hit_third) = pool.sweep_for(&other);
        assert!(!hit_third);
        assert_eq!(third.cache().generated(), 0);
    }
}
