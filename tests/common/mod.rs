//! Shared helpers for the daemon tests: real servers on ephemeral loopback
//! ports, driven over raw `TcpStream`s exactly like an external client.

// Each test binary compiles this module separately and uses a different
// subset of the helpers.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fetchvp_metrics::Json;
use fetchvp_server::{Server, ServerConfig};

/// A parsed HTTP response: status code, headers, body.
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    pub fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body: {e}\n{}", self.body))
    }
}

/// One HTTP/1.1 exchange over a fresh connection (the server's model:
/// one request per connection, `Connection: close`).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(60))).unwrap();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write request head");
    stream.write_all(body.as_bytes()).expect("write request body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_reply(&raw)
}

/// Parses a whole HTTP response off the wire.
pub fn parse_reply(raw: &[u8]) -> Reply {
    let text = String::from_utf8(raw.to_vec()).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("response has a blank line");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers = lines
        .filter_map(|line| line.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Reply { status, headers, body: body.to_string() }
}

/// `POST /run` that must be admitted (`202`); returns the job id.
pub fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let reply = request(addr, "POST", "/run", Some(spec));
    assert_eq!(reply.status, 202, "submit rejected: {}", reply.body);
    reply.json().get("job").and_then(Json::as_u64).expect("job id")
}

/// Polls `GET /jobs/<id>` until the job reaches a terminal status.
///
/// Every document read must agree with itself: `status` equals
/// `progress.phase`, a `done` document carries its `result` at 100%, and
/// a `failed` one carries its `error`.
pub fn wait_for_job(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let reply = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(reply.status, 200, "job {id} lookup failed: {}", reply.body);
        let doc = reply.json();
        let status = doc.get("status").and_then(Json::as_str).expect("status field").to_string();
        let phase = doc.get_path("progress.phase").and_then(Json::as_str);
        assert_eq!(phase, Some(status.as_str()), "job {id}: status vs phase:\n{}", reply.body);
        let percent = doc.get_path("progress.percent").and_then(Json::as_u64);
        let complete = match status.as_str() {
            "done" => Some(doc.get("result").is_some() && percent == Some(100)),
            "failed" => Some(doc.get("error").is_some()),
            _ => None,
        };
        if let Some(complete) = complete {
            assert!(complete, "job {id} is {status} without its outcome:\n{}", reply.body);
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{status}`");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A daemon running on its own thread.
pub type Running = (SocketAddr, JoinHandle<std::io::Result<()>>);

/// Binds a server on an ephemeral loopback port and runs it on a thread.
pub fn start(config: ServerConfig) -> Running {
    let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".to_string(), ..config })
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Asks the daemon to drain and exit, and waits for a clean exit.
pub fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let reply = request(addr, "POST", "/shutdown", None);
    assert_eq!(reply.status, 200, "shutdown refused: {}", reply.body);
    handle.join().expect("server thread").expect("server run() returned an error");
}

/// Starts a two-member `--peers` fleet, each member `config` apart from
/// its address and peer list; member 0 is `fleet.0`, member 1 is
/// `fleet.1` (job-id parity matches those indices). Returns once both
/// members serve and list each other as up.
pub fn start_fleet(config: ServerConfig) -> (Running, Running) {
    // Reserve two distinct ephemeral ports by binding and immediately
    // dropping listeners. The tiny bind race this leaves is acceptable in
    // a test (nothing else on the host grabs loopback ports in the
    // microseconds before the daemons re-bind them).
    let addr_a = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let addr_b = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let peers = vec![addr_a.to_string(), addr_b.to_string()];
    let mut servers = Vec::new();
    for addr in [addr_a, addr_b] {
        let member =
            ServerConfig { addr: addr.to_string(), peers: peers.clone(), ..config.clone() };
        let server = Server::bind(member).expect("bind fleet member");
        servers.push(std::thread::spawn(move || server.run()));
    }
    let mut handles = servers.into_iter();
    let fleet = ((addr_a, handles.next().unwrap()), (addr_b, handles.next().unwrap()));
    // `Server::bind` already bound both listeners, so connects queue in
    // the kernel backlog until each member's connection threads start —
    // one blocking health check per member proves both are serving. Then
    // wait for the health checkers to converge on "up": a checker that
    // probed its peer before that peer started serving has it briefly down,
    // and a down peer would skew shard routing (jobs run locally).
    for addr in [addr_a, addr_b] {
        let reply = request(addr, "GET", "/healthz", None);
        assert_eq!(reply.status, 200, "member {addr} never became healthy: {}", reply.body);
    }
    for (addr, peer) in [(addr_a, addr_b), (addr_b, addr_a)] {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let health = request(addr, "GET", "/healthz", None).json();
            let status = health
                .get("peers")
                .and_then(|p| p.get(&peer.to_string()))
                .and_then(Json::as_str)
                .expect("healthz must list the peer")
                .to_string();
            if status == "up" {
                break;
            }
            assert!(Instant::now() < deadline, "{addr} has {peer} stuck `{status}`");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    fleet
}
