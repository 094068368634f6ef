//! End-to-end tests for `fetchvp serve`: a real daemon on an ephemeral
//! port, driven over raw `TcpStream`s exactly like an external client.
//!
//! The two contracts under test:
//!
//! 1. **Concurrent serving** — jobs submitted from several client threads
//!    at once all complete, each echoing its own spec, with one identical
//!    result per spec however many pool workers execute them, and feed the
//!    live metrics registry. (That served results are byte-identical to
//!    in-process runs is the served axis of `tests/golden_identity.rs`.)
//! 2. **Backpressure** — a full queue answers `503` + `Retry-After`
//!    immediately (never blocks, never panics), and every job the server
//!    `202`-accepted still runs to completion.
//! 3. **Connection deadlines** — a request must arrive whole within
//!    `read_timeout` of the accept, and a connection still waiting for
//!    its request never holds up shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fetchvp_metrics::Json;
use fetchvp_server::ServerConfig;

mod common;
use common::{parse_reply, request, shutdown, start, wait_for_job, Reply};

#[test]
fn concurrent_jobs_complete_and_feed_the_live_registry() {
    // The result cache is disabled so every repeat of a spec reaches a
    // worker instead of being answered inline.
    let (addr, handle) = start(ServerConfig {
        workers: 3,
        queue_depth: 32,
        result_cache_entries: 0,
        ..ServerConfig::default()
    });

    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.json().get("status").and_then(Json::as_str), Some("ok"));

    // 8 jobs from 4 client threads: two distinct specs (different seeds,
    // one parallel inner sweep) so the sweep pool serves both hits and
    // misses while workers execute concurrently.
    let specs = [
        r#"{"experiment": "bench", "trace_len": 2000, "seed": 7}"#,
        r#"{"experiment": "bench", "trace_len": 2000, "seed": 11, "jobs": 2}"#,
    ];
    let ids: Vec<(usize, u64)> = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..8)
            .map(|i| {
                let spec = specs[i % specs.len()];
                s.spawn(move || {
                    let reply = request(addr, "POST", "/run", Some(spec));
                    assert_eq!(reply.status, 202, "submit {i} rejected: {}", reply.body);
                    let doc = reply.json();
                    assert_eq!(doc.get("status").and_then(Json::as_str), Some("queued"));
                    (i % specs.len(), doc.get("job").and_then(Json::as_u64).expect("job id"))
                })
            })
            .collect();
        submitters.into_iter().map(|t| t.join().expect("submitter thread")).collect()
    });
    assert_eq!(ids.len(), 8);

    // Every job finishes and echoes its own spec; the four jobs of each
    // spec agree on every counter, whichever worker ran them.
    let mut counters: [Option<String>; 2] = [None, None];
    for (which, id) in &ids {
        let doc = wait_for_job(addr, *id);
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("done"),
            "job {id} failed: {}",
            doc.get("error").and_then(Json::as_str).unwrap_or("<no error>")
        );
        let seed = Json::parse(specs[*which]).unwrap().get("seed").and_then(Json::as_u64);
        assert_eq!(doc.get_path("spec.seed").and_then(Json::as_u64), seed, "job {id} spec");
        let workloads = doc.get_path("result.workloads").and_then(Json::as_object).unwrap();
        let served: String = workloads
            .iter()
            .map(|(name, w)| format!("{name}: {}\n", w.get("counters").unwrap().to_json()))
            .collect();
        let first = counters[*which].get_or_insert_with(|| served.clone());
        assert_eq!(*first, served, "job {id}: concurrent jobs of one spec disagree");
    }

    // Error paths, still over the wire.
    let bad = request(addr, "POST", "/run", Some(r#"{"experiment": "fig9-9"}"#));
    assert_eq!(bad.status, 400);
    assert!(bad.json().get("error").and_then(Json::as_str).unwrap().contains("fig9-9"));
    assert_eq!(request(addr, "GET", "/jobs/999999", None).status, 404);
    assert_eq!(request(addr, "GET", "/jobs/not-a-number", None).status, 400);
    assert_eq!(request(addr, "PUT", "/run", Some("{}")).status, 405);
    assert_eq!(request(addr, "GET", "/nope", None).status, 404);

    // The live registry: server counters plus the simulator namespaces
    // merged from completed bench jobs, parseable by our own Json.
    let metrics = request(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    let doc = metrics.json();
    let counters = doc.get("counters").and_then(Json::as_object).expect("counters section");
    for namespace in ["server.", "sched.", "trace."] {
        assert!(
            counters.iter().any(|(k, _)| k.starts_with(namespace)),
            "metrics missing `{namespace}*` counters (got {:?})",
            counters.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }
    assert_eq!(
        doc.get_path("counters")
            .and_then(|c| c.get("server.jobs.completed"))
            .and_then(Json::as_u64),
        Some(8),
        "all eight jobs should be counted as completed"
    );
    assert!(
        doc.get("histograms").and_then(|h| h.get("server.job_latency_ms")).is_some(),
        "metrics missing the job latency histogram"
    );
    assert!(
        doc.get("gauges").and_then(|g| g.get("server.queue.depth")).is_some(),
        "metrics missing the queue depth gauge"
    );

    shutdown(addr, handle);
}

#[test]
fn full_queue_answers_503_and_accepted_jobs_still_finish() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });

    // A single worker and a one-slot queue: a burst of slow-ish jobs must
    // overflow. Submissions happen from four threads at once so rejection
    // is exercised under contention, not just sequentially.
    let spec = r#"{"experiment": "bench", "trace_len": 20000, "seed": 5}"#;
    let replies: Vec<(u16, Option<String>, Option<u64>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..12)
            .map(|_| {
                s.spawn(move || {
                    let reply = request(addr, "POST", "/run", Some(spec));
                    let retry = reply.header("Retry-After").map(str::to_string);
                    let id = reply.json().get("job").and_then(Json::as_u64);
                    (reply.status, retry, id)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });

    let accepted: Vec<u64> =
        replies.iter().filter(|(s, _, _)| *s == 202).filter_map(|(_, _, id)| *id).collect();
    let rejected: Vec<_> = replies.iter().filter(|(s, _, _)| *s == 503).collect();
    assert!(
        !accepted.is_empty(),
        "at least one job must be admitted (statuses: {:?})",
        replies.iter().map(|(s, _, _)| s).collect::<Vec<_>>()
    );
    assert!(
        !rejected.is_empty(),
        "a one-slot queue must reject part of a 12-job burst (statuses: {:?})",
        replies.iter().map(|(s, _, _)| s).collect::<Vec<_>>()
    );
    for (_, retry, _) in &rejected {
        assert!(retry.is_some(), "503 must carry Retry-After");
    }

    // The 202 contract: everything admitted completes.
    for id in &accepted {
        let doc = wait_for_job(addr, *id);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"), "job {id}");
    }

    let metrics = request(addr, "GET", "/metrics", None).json();
    let counter = |name: &str| {
        metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(counter("server.queue.admitted"), accepted.len() as u64);
    assert_eq!(counter("server.queue.rejected"), rejected.len() as u64);
    assert_eq!(counter("server.jobs.completed"), accepted.len() as u64);

    shutdown(addr, handle);
}

/// The result cache makes a repeated deterministic spec a dictionary
/// lookup: the second POST of an identical spec (even reformatted) is
/// answered inline with a byte-identical result, without any new
/// sweep-pool or worker activity; changing any canonical field misses.
#[test]
fn identical_specs_hit_the_result_cache() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });
    let spec = r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 9}"#;

    // Cold: the job queues and a worker simulates it.
    let cold = request(addr, "POST", "/run", Some(spec));
    assert_eq!(cold.status, 202, "{}", cold.body);
    let id = cold.json().get("job").and_then(Json::as_u64).unwrap();
    let uncached = wait_for_job(addr, id);
    assert_eq!(uncached.get("status").and_then(Json::as_str), Some("done"));
    let uncached_result = uncached.get("result").expect("result document").to_json();

    let counters_before = request(addr, "GET", "/metrics", None).json();
    let pool_work = |doc: &Json| {
        let counter = |name: &str| {
            doc.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
        };
        counter("server.sweep_pool.hits") + counter("server.sweep_pool.misses")
    };

    // Warm: same spec with different formatting and explicit defaults —
    // answered inline, result byte-identical, no new pool work.
    let reformatted = r#"{ "seed": 9, "experiment": "table3-1", "trace_len": 1000, "jobs": 1 }"#;
    let warm = request(addr, "POST", "/run", Some(reformatted));
    assert_eq!(warm.status, 200, "cache hit answers inline: {}", warm.body);
    let doc = warm.json();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(doc.get("cached").map(Json::to_json), Some("true".to_string()));
    assert_eq!(
        doc.get("result").expect("inlined result").to_json(),
        uncached_result,
        "cached result must be byte-identical to the uncached run"
    );
    // A cache hit is self-contained: no job record is minted, so warm
    // traffic cannot grow the job table.
    assert!(doc.get("job").is_none(), "cache hits must not mint a job id: {}", warm.body);

    let metrics = request(addr, "GET", "/metrics", None).json();
    assert_eq!(
        pool_work(&metrics),
        pool_work(&counters_before),
        "a cache hit must not create sweep-pool work"
    );
    let counter = |name: &str| {
        metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
    };
    assert_eq!(counter("server.jobs.cached"), 1);
    assert_eq!(counter("server.jobs.completed"), 1, "only the cold job ran");
    let gauge = |name: &str| {
        metrics.get("gauges").and_then(|g| g.get(name)).and_then(Json::as_f64).unwrap_or(-1.0)
    };
    assert_eq!(gauge("server.result_cache.hits"), 1.0);
    assert!(gauge("server.result_cache.misses") >= 1.0, "the cold lookup was a miss");

    // Any canonical field changing is a miss: the job queues again.
    for changed in [
        r#"{"experiment": "table3-1", "trace_len": 1001, "seed": 9}"#,
        r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 10}"#,
        r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 9, "jobs": 2}"#,
        r#"{"experiment": "accuracy", "trace_len": 1000, "seed": 9}"#,
    ] {
        let miss = request(addr, "POST", "/run", Some(changed));
        assert_eq!(miss.status, 202, "changed field must miss: {changed}");
        let id = miss.json().get("job").and_then(Json::as_u64).unwrap();
        wait_for_job(addr, id);
    }

    shutdown(addr, handle);
}

/// Keep-alive audit: the daemon serves exactly one request per
/// connection, so every response — success *and* every error path — must
/// carry `Connection: close`, and `503`s must carry a `Retry-After`
/// derived from the live queue state (at least 1 second).
#[test]
fn every_path_closes_the_connection_and_503_hints_a_retry() {
    let (addr, handle) =
        start(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() });

    let paths: &[(&str, &str, Option<&str>, u16)] = &[
        ("GET", "/healthz", None, 200),
        ("POST", "/run", Some(r#"{"experiment": "fig9-9"}"#), 400),
        ("GET", "/jobs/424242", None, 404),
        ("PUT", "/run", Some("{}"), 405),
        ("GET", "/nope", None, 404),
    ];
    for (method, path, body, expected) in paths {
        let reply = request(addr, method, path, *body);
        assert_eq!(reply.status, *expected, "{method} {path}");
        assert_eq!(
            reply.header("Connection"),
            Some("close"),
            "{method} {path} ({expected}) must tell keep-alive clients to hang up"
        );
    }
    // An oversized declared body is rejected while reading — with the
    // close header intact on the 413.
    let huge = request_with_declared_length(addr, 10 * 1024 * 1024);
    assert_eq!(huge.status, 413);
    assert_eq!(huge.header("Connection"), Some("close"));
    // A chunked body is refused before it is read, not misread as an
    // empty one.
    let chunked = raw_request(
        addr,
        b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    );
    assert_eq!(chunked.status, 411, "{}", chunked.body);
    assert_eq!(chunked.header("Connection"), Some("close"));

    shutdown(addr, handle);
}

/// A POST /run whose `Content-Length` declares `declared` bytes but only
/// sends a few — exercises the header-time body-size rejection.
fn request_with_declared_length(addr: SocketAddr, declared: usize) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!("POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {declared}\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(b"{}").expect("write partial body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_reply(&raw)
}

/// Sends `bytes` verbatim in one write and reads the whole reply.
fn raw_request(addr: SocketAddr, bytes: &[u8]) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(bytes).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_reply(&raw)
}

/// The read deadline is the whole request's, counted from the accept: a
/// client sending one byte every 100 ms never completes its request, so
/// it is hung up on with no response soon after `read_timeout` — however
/// steadily it trickles — and the daemon stays healthy.
#[test]
fn a_trickling_client_is_cut_off_at_the_read_deadline() {
    let (addr, handle) =
        start(ServerConfig { read_timeout: Duration::from_millis(300), ..ServerConfig::default() });
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    let connected = Instant::now();
    // The read timeout paces the trickle: one byte, then up to 100 ms
    // listening for a reply or a hang-up.
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let text = format!("POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 2\r\n\r\n{{}}");
    let mut unsent = text.bytes();
    let mut received = Vec::new();
    loop {
        if let Some(byte) = unsent.next() {
            if stream.write_all(&[byte]).is_err() {
                break;
            }
        }
        let mut buf = [0u8; 512];
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
        assert!(
            connected.elapsed() < Duration::from_millis(1500),
            "a trickling client was still connected after {:?}",
            connected.elapsed()
        );
    }
    let cut_after = connected.elapsed();
    assert!(cut_after < Duration::from_millis(1500), "cut after {cut_after:?}");
    assert!(
        received.is_empty(),
        "a request cut off at its deadline gets no response, got:\n{}",
        String::from_utf8_lossy(&received)
    );

    assert_eq!(request(addr, "GET", "/healthz", None).status, 200);
    let metrics = request(addr, "GET", "/metrics", None).json();
    let io_errors = metrics
        .get("counters")
        .and_then(|c| c.get("server.requests.io_error"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(io_errors >= 1, "the cut-off request must count as an io_error");

    shutdown(addr, handle);
}

/// Shutdown does not wait out a connection that never sends its request:
/// with a 30 s read timeout and one such connection open, `run()` still
/// returns promptly after the `POST /shutdown` reply.
#[test]
fn an_idle_connection_does_not_hold_up_shutdown() {
    let (addr, handle) =
        start(ServerConfig { read_timeout: Duration::from_secs(30), ..ServerConfig::default() });
    let idle = TcpStream::connect(addr).expect("connect to server");
    // Accepts are served in arrival order, so once this round-trip is
    // answered the idle connection has been accepted too.
    assert_eq!(request(addr, "GET", "/healthz", None).status, 200);

    let reply = request(addr, "POST", "/shutdown", None);
    assert_eq!(reply.status, 200, "shutdown refused: {}", reply.body);
    let asked = Instant::now();
    while !handle.is_finished() {
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "run() still had not returned {:?} after the shutdown reply",
            asked.elapsed()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("server thread").expect("server run() returned an error");
    drop(idle);
}

/// The on-disk trace cache survives daemon restarts: a second server
/// pointed at the same `--trace-dir` must replay every trace from disk
/// without generating anything (all hits, zero misses, zero bytes written
/// in the `server.trace_cache.*` gauges).
#[test]
fn warm_trace_dir_serves_a_restarted_daemon_without_regenerating() {
    let dir = std::env::temp_dir().join(format!("fetchvp-server-e2e-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Runs `spec` to completion on a fresh daemon over `dir`; returns the
    // trace cache's (hits, misses, bytes) gauges.
    let run = |spec: &str| -> (u64, u64, u64) {
        let (addr, handle) = start(ServerConfig {
            workers: 1,
            trace_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let reply = request(addr, "POST", "/run", Some(spec));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let id = reply.json().get("job").and_then(Json::as_u64).unwrap();
        let doc = wait_for_job(addr, id);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        let metrics = request(addr, "GET", "/metrics", None).json();
        let gauge = |name: &str| {
            metrics
                .get("gauges")
                .and_then(|g| g.get(&format!("server.trace_cache.{name}")))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("metrics missing gauge server.trace_cache.{name}"))
                as u64
        };
        let gauges = (gauge("hits"), gauge("misses"), gauge("bytes"));
        shutdown(addr, handle);
        gauges
    };

    // Cold daemon: every benchmark trace is generated to disk once.
    let (hits, cold_misses, bytes) =
        run(r#"{"experiment": "bench", "trace_len": 2000, "seed": 13}"#);
    assert_eq!(hits, 0, "cold cache cannot hit");
    assert!(cold_misses > 0, "cold run must generate every trace");
    assert!(bytes > 0);

    // Restarted daemon, same directory: zero generation, all hits. The
    // restart asks for two sweep workers, which misses the result cache
    // spilled under the trace dir but reads the same traces.
    let (hits, misses, bytes) =
        run(r#"{"experiment": "bench", "trace_len": 2000, "seed": 13, "jobs": 2}"#);
    assert_eq!(misses, 0, "warm trace dir must not regenerate anything");
    assert_eq!(hits, cold_misses);
    assert_eq!(bytes, 0, "no bytes written when warm");

    std::fs::remove_dir_all(&dir).expect("remove scratch trace dir");
}

/// The sweep pool keeps traces warm across requests: two identical specs
/// must hit the pool the second time (visible in the hit/miss counters).
/// The result cache is disabled here so the second job actually reaches a
/// worker — with caching on it would be answered inline and never touch
/// the pool (covered by `identical_specs_hit_the_result_cache`).
#[test]
fn repeated_specs_hit_the_sweep_pool() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        result_cache_entries: 0,
        ..ServerConfig::default()
    });
    let spec = r#"{"experiment": "table3-1", "trace_len": 1000, "seed": 9}"#;
    for _ in 0..2 {
        let reply = request(addr, "POST", "/run", Some(spec));
        assert_eq!(reply.status, 202, "{}", reply.body);
        let id = reply.json().get("job").and_then(Json::as_u64).unwrap();
        let doc = wait_for_job(addr, id);
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert!(
            doc.get_path("result.csv").and_then(Json::as_str).is_some(),
            "table experiments return CSV"
        );
    }
    let metrics = request(addr, "GET", "/metrics", None).json();
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("server.sweep_pool.misses"))
            .and_then(Json::as_u64),
        Some(1),
        "first job builds the sweep"
    );
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("server.sweep_pool.hits"))
            .and_then(Json::as_u64),
        Some(1),
        "second identical spec reuses it"
    );
    shutdown(addr, handle);
}
