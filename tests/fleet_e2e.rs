//! End-to-end tests for `--peers` fleet mode: two real daemons on
//! ephemeral loopback ports, sharding jobs by consistent hashing with
//! single-hop proxying — driven entirely over raw `TcpStream`s.
//!
//! The contracts under test:
//!
//! 1. **Shard routing** — every member agrees who owns a spec; a request
//!    landing on the wrong member is proxied to the owner, visible in the
//!    returned job id (`id % members == owner index`), and a job's event
//!    stream is relayed from its owner byte for byte.
//! 2. **Fleet-wide result cache** — a spec answered by its owner is a
//!    cache hit no matter which member the repeat lands on. (That proxied
//!    and cached results are byte-identical to the original run is the
//!    served axis of `tests/golden_identity.rs`.)
//! 3. **Graceful degradation** — killing a member flips its health flag
//!    on the survivor and its share of the ring rehashes to the
//!    survivors; submissions keep succeeding throughout.
//! 4. **Fleet-wide observability** — `GET /fleet/metrics` asked of
//!    *either* member returns a merged document carrying both members'
//!    snapshots plus fleet-summed counters, and a killed member shows up
//!    as `"down"` instead of failing the aggregation.
//! 5. **A warm fleet under concurrent load** — hundreds of repeats from
//!    several client threads, spread over both members, are all answered
//!    from the result cache with the warmed bytes, locally or over the
//!    proxy hop, and no connection fails; sequential repeats over the hop
//!    cost a round-trip each.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fetchvp_metrics::Json;
use fetchvp_server::ServerConfig;

mod common;
use common::{request, shutdown, start_fleet, submit, wait_for_job, Running};

/// The fleet under test: two members, one worker each.
fn fleet() -> (Running, Running) {
    start_fleet(ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() })
}

/// Submits specs (varying the seed) to `submit_to` until one is owned by
/// the member with id parity `owner_parity`; returns `(spec, job_id)`.
/// With 64 vnodes per member the ring splits close to evenly, so a
/// handful of seeds always suffices.
fn find_spec_owned_by(submit_to: SocketAddr, owner_parity: u64) -> (String, u64) {
    for seed in 0..64u64 {
        let spec = format!(r#"{{"experiment": "table3-1", "trace_len": 600, "seed": {seed}}}"#);
        let deadline = Instant::now() + Duration::from_secs(120);
        let reply = loop {
            let reply = request(submit_to, "POST", "/run", Some(&spec));
            // 503 is honest backpressure (the bounded queue is full);
            // wait for the single worker to drain and try again.
            if reply.status != 503 {
                break reply;
            }
            assert!(Instant::now() < deadline, "queue never drained for seed {seed}");
            std::thread::sleep(Duration::from_millis(50));
        };
        assert!(
            reply.status == 200 || reply.status == 202,
            "submit failed ({}): {}",
            reply.status,
            reply.body
        );
        // A 200 with no job id is a result-cache hit (a seed an earlier
        // search already ran) — no record to check parity on; move on.
        let Some(id) = reply.json().get("job").and_then(Json::as_u64) else { continue };
        if id % 2 == owner_parity {
            return (spec, id);
        }
    }
    panic!("no spec hashed to member parity {owner_parity} in 64 seeds — ring is degenerate");
}

#[test]
fn fleet_shards_jobs_and_proxies_lookups() {
    let ((addr_a, handle_a), (addr_b, handle_b)) = fleet();

    // start_fleet already proved both members list each other "up".

    // Everything is submitted to A, but job ids prove both members mint
    // records: odd ids were created by B after a proxy hop.
    let (spec_b, id_b) = find_spec_owned_by(addr_a, 1);
    assert_eq!(id_b % 2, 1, "B-owned spec must come back with a B-minted id");
    let (_, id_a) = find_spec_owned_by(addr_a, 0);
    assert_eq!(id_a % 2, 0);

    // GET /jobs for a B-owned id works from either member: A proxies the
    // lookup to B transparently.
    for member in [addr_a, addr_b] {
        let doc = wait_for_job(member, id_b);
        assert_eq!(doc.get("job").and_then(Json::as_u64), Some(id_b), "lookup via {member}");
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    }

    // So does its event stream: A relays B's response verbatim — head,
    // chunk framing and final chunk — and ends it when B does.
    let events = format!("/jobs/{id_b}/events");
    let direct = request(addr_b, "GET", &events, None);
    assert_eq!(direct.status, 200, "{}", direct.body);
    assert!(direct.body.ends_with("0\r\n\r\n"), "a finished job's stream ends cleanly");
    let relayed = request(addr_a, "GET", &events, None);
    assert_eq!(
        (relayed.status, &relayed.headers, &relayed.body),
        (direct.status, &direct.headers, &direct.body),
        "the relay must pass the owner's bytes through unchanged"
    );

    // Fleet-wide cache: the repeat of a B-owned spec submitted to A is
    // routed to B and answered from B's result cache.
    let repeat = request(addr_a, "POST", "/run", Some(&spec_b));
    assert_eq!(repeat.status, 200, "repeat must be a cache hit: {}", repeat.body);
    let doc = repeat.json();
    assert_eq!(doc.get("cached").map(Json::to_json), Some("true".to_string()));

    // The proxy hop is visible in A's metrics.
    let metrics = request(addr_a, "GET", "/metrics", None).json();
    let proxied = metrics
        .get("counters")
        .and_then(|c| c.get("server.peers.proxied"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(proxied >= 2, "expected at least 2 proxied requests, saw {proxied}");

    shutdown(addr_a, handle_a);
    shutdown(addr_b, handle_b);
}

#[test]
fn fleet_metrics_merge_from_either_member_and_mark_the_dead() {
    let ((addr_a, handle_a), (addr_b, handle_b)) = fleet();

    // Some traffic first, so the merged counters have something to sum.
    let (_, id) = find_spec_owned_by(addr_a, 0);
    wait_for_job(addr_a, id);

    // Asked of either member, the merged document reports both: the
    // asked member as "self", the other fetched over one forwarded hop
    // as "up", each carrying its full member snapshot.
    for (asked, other) in [(addr_a, addr_b), (addr_b, addr_a)] {
        let reply = request(asked, "GET", "/fleet/metrics", None);
        assert_eq!(reply.status, 200, "{asked}: {}", reply.body);
        let doc = reply.json();
        assert_eq!(doc.get("fleet_size").and_then(Json::as_u64), Some(2), "{asked}");
        assert_eq!(doc.get("reporting").and_then(Json::as_u64), Some(2), "{asked}");
        for (addr, status) in [(asked, "self"), (other, "up")] {
            let member = doc
                .get("members")
                .and_then(|m| m.get(&addr.to_string()))
                .unwrap_or_else(|| panic!("{asked}'s merge is missing member {addr}"));
            assert_eq!(member.get("status").and_then(Json::as_str), Some(status), "{addr}");
            assert_eq!(
                member.get("addr").and_then(Json::as_str),
                Some(addr.to_string().as_str()),
                "member snapshots carry their own address"
            );
            assert!(member.get("uptime_seconds").and_then(Json::as_u64).is_some(), "{addr}");
            assert!(member.get("live_jobs").is_some(), "{addr} must report its live jobs");
            assert!(
                member.get_path("metrics.counters").and_then(|c| c.get("server.started")).is_some(),
                "{addr} must embed a full metrics snapshot"
            );
        }
        // Counters are fleet-summed: both members started exactly once.
        assert_eq!(
            doc.get_path("summed.counters")
                .and_then(|c| c.get("server.started"))
                .and_then(Json::as_u64),
            Some(2),
            "{asked}: summed counters must cover both members"
        );
    }

    // Kill B: A's merge degrades instead of failing — B is marked
    // "down" (no snapshot), A still reports, the endpoint stays 200.
    shutdown(addr_b, handle_b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = request(addr_a, "GET", "/fleet/metrics", None).json();
        let status = doc
            .get("members")
            .and_then(|m| m.get(&addr_b.to_string()))
            .and_then(|m| m.get("status"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        if status == "down" {
            assert_eq!(doc.get("reporting").and_then(Json::as_u64), Some(1));
            assert_eq!(doc.get("fleet_size").and_then(Json::as_u64), Some(2));
            assert!(
                doc.get("members")
                    .and_then(|m| m.get(&addr_b.to_string()))
                    .and_then(|m| m.get("metrics"))
                    .is_none(),
                "a dead member contributes no snapshot"
            );
            break;
        }
        assert!(Instant::now() < deadline, "B never marked down in the merge (`{status}`)");
        std::thread::sleep(Duration::from_millis(50));
    }

    shutdown(addr_a, handle_a);
}

#[test]
fn killing_a_member_degrades_gracefully() {
    let ((addr_a, handle_a), (addr_b, handle_b)) = fleet();

    // Pin down a spec owned by B, then take B away.
    let (spec_b, id_b) = find_spec_owned_by(addr_a, 1);
    wait_for_job(addr_a, id_b);
    shutdown(addr_b, handle_b);

    // A's health checker notices within a few probe intervals.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = request(addr_a, "GET", "/healthz", None).json();
        let status = health
            .get("peers")
            .and_then(|p| p.get(&addr_b.to_string()))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        if status == "down" {
            break;
        }
        assert!(Instant::now() < deadline, "peer never marked down (stuck at `{status}`)");
        std::thread::sleep(Duration::from_millis(50));
    }

    // B's share of the ring rehashes onto A: the same spec now runs
    // locally (A-minted even id) and still completes. A fresh job record
    // is minted because B's cache died with it.
    let rerouted = request(addr_a, "POST", "/run", Some(&spec_b));
    assert!(
        rerouted.status == 200 || rerouted.status == 202,
        "submission must survive the peer's death: {} {}",
        rerouted.status,
        rerouted.body
    );
    let id = rerouted.json().get("job").and_then(Json::as_u64).expect("job id");
    assert_eq!(id % 2, 0, "with B dead, A must mint the record itself");
    let doc = wait_for_job(addr_a, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));

    // The flip is counted.
    let metrics = request(addr_a, "GET", "/metrics", None).json();
    let flips = metrics
        .get("counters")
        .and_then(|c| c.get("server.peers.health_flips"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(flips >= 1, "the death of B must be recorded as a health flip");

    shutdown(addr_a, handle_a);
}

#[test]
fn a_warm_fleet_answers_concurrent_repeats_from_cache_locally_and_proxied() {
    const SPECS: [&str; 4] = [
        r#"{"experiment": "table3-1", "trace_len": 1000}"#,
        r#"{"experiment": "accuracy", "trace_len": 1000}"#,
        r#"{"experiment": "table3-1", "trace_len": 2000}"#,
        r#"{"experiment": "breakdown", "trace_len": 1000}"#,
    ];
    const CLIENTS: usize = 4;
    const REPEATS_PER_CLIENT: usize = 100;
    const SEQUENTIAL_PROXIED: usize = 50;
    let ((addr_a, handle_a), (addr_b, handle_b)) = fleet();
    let members = [addr_a, addr_b];

    // Warm: each spec runs once to completion on its owner, whose index
    // the job id's parity names.
    let mut owners = Vec::new();
    let warmed: Vec<String> = SPECS
        .iter()
        .map(|spec| {
            let id = submit(addr_a, spec);
            owners.push((id % 2) as usize);
            let doc = wait_for_job(addr_a, id);
            assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"), "{spec}");
            doc.get("result").expect("warmed result").to_json()
        })
        .collect();

    // Load: every client walks the specs round-robin across both members,
    // so each spec is asked of its owner (answered locally) and of the
    // other member (answered over the proxy hop). `request` panics on any
    // failed connection.
    let (local, proxied) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let warmed = &warmed;
                scope.spawn(move || {
                    let (mut local, mut proxied) = (0, 0);
                    for k in 0..REPEATS_PER_CLIENT {
                        let slot = client * REPEATS_PER_CLIENT + k;
                        let which = (slot / members.len()) % SPECS.len();
                        let reply = request(
                            members[slot % members.len()],
                            "POST",
                            "/run",
                            Some(SPECS[which]),
                        );
                        assert_eq!(reply.status, 200, "{}: {}", SPECS[which], reply.body);
                        let doc = reply.json();
                        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)), "{}", reply.body);
                        let result = doc.get("result").expect("inlined result").to_json();
                        assert_eq!(result, warmed[which], "{}: not the warmed bytes", SPECS[which]);
                        match reply.header("X-Fetchvp-Proxied") {
                            Some(_) => proxied += 1,
                            None => local += 1,
                        }
                    }
                    (local, proxied)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .fold((0, 0), |(local, proxied), (l, p)| (local + l, proxied + p))
    });
    assert_eq!(local + proxied, CLIENTS * REPEATS_PER_CLIENT);
    assert!(local > 0 && proxied > 0, "{local} local and {proxied} proxied cache hits");

    // Sequential: one warmed spec asked of the member that does not own
    // it, one request at a time. Each is a single hop to a cache hit, so
    // the pass is bounded by round-trips, not by any polling interval.
    let non_owner = members[1 - owners[0]];
    let started = Instant::now();
    for _ in 0..SEQUENTIAL_PROXIED {
        let reply = request(non_owner, "POST", "/run", Some(SPECS[0]));
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.header("X-Fetchvp-Proxied"), Some("1"), "{}", reply.body);
        let doc = reply.json();
        assert_eq!(doc.get("cached"), Some(&Json::Bool(true)), "{}", reply.body);
        let result = doc.get("result").expect("inlined result").to_json();
        assert_eq!(result, warmed[0], "{}: not the warmed bytes", SPECS[0]);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "{SEQUENTIAL_PROXIED} sequential proxied cache hits took {elapsed:?}"
    );

    shutdown(addr_a, handle_a);
    shutdown(addr_b, handle_b);
}
