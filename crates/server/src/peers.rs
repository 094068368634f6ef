//! Fleet membership: consistent-hash sharding, single-hop proxying and
//! per-peer health checks behind `fetchvp serve --peers`.
//!
//! Every member is started with the **same** `--peers host:port,...`
//! list (which includes the member itself — the daemon recognizes its own
//! entry by comparing it against the bound address). Jobs are routed by
//! a consistent-hash ring over the spec's canonical FNV-1a hash
//! ([`fetchvp_experiments::JobSpec::canonical_hash`]): each member owns
//! [`VNODES`] pseudo-random points on the ring, and a spec belongs to the
//! first live member at or after its hash. Because every process hashes
//! with the same function over the same member list, they all agree on
//! ownership without any coordination traffic.
//!
//! A request landing on the wrong member is proxied **once** to the owner
//! (the forwarded copy carries [`FORWARDED_HEADER`], which the receiver
//! treats as "handle locally, never re-proxy" — so a stale ring view can
//! cost one extra hop but never a loop). If the proxy fails, the peer is
//! marked dead and the job runs locally: a dying peer degrades the cache
//! hit rate, not availability.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fetchvp_tracestore::fnv1a;

use crate::http::{Request, Response};

/// Virtual nodes per member on the consistent-hash ring. 64 points keep
/// the expected load imbalance across a handful of members within a few
/// percent while the ring stays tiny (a sorted `Vec` scanned by binary
/// search).
pub const VNODES: usize = 64;

/// Header marking a request as already proxied once. Receivers handle
/// such requests locally unconditionally — the single-hop guarantee.
pub const FORWARDED_HEADER: &str = "x-fetchvp-forwarded";

/// How [`send`] makes one outgoing request.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Connect timeout.
    pub connect: Duration,
    /// Read and write timeout once connected.
    pub io: Duration,
    /// Whether this is a proxy hop, marked with [`FORWARDED_HEADER`].
    pub forwarded: bool,
}

/// A proxy hop or stream relay. Nearby peers connect in well under
/// 500 ms, and slower ones are better served by running the job locally;
/// 2 s of I/O stays under the client's 5 s read timeout, so a stalled
/// peer fails over while the client is still listening.
const HOP: Call =
    Call { connect: Duration::from_millis(500), io: Duration::from_secs(2), forwarded: true };

/// A health probe: deliberately tight, so a dead peer is detected within
/// one probe interval.
const PROBE: Call =
    Call { connect: Duration::from_millis(250), io: Duration::from_millis(500), forwarded: false };

/// How often the health checker probes each peer.
pub const HEALTH_INTERVAL: Duration = Duration::from_millis(500);

/// The daemon's view of its fleet: the member list, the hash ring and
/// each peer's liveness flag. A standalone daemon uses
/// [`Fleet::standalone`], which routes everything to itself and spawns
/// no health checker.
#[derive(Debug)]
pub struct Fleet {
    /// Member addresses exactly as given on the command line; index is
    /// the member's identity everywhere (ring entries, job-id encoding,
    /// liveness flags).
    members: Vec<String>,
    /// This process's index in `members`.
    self_index: usize,
    /// `(hash, member_index)` sorted by hash — the consistent-hash ring.
    ring: Vec<(u64, usize)>,
    /// Per-member liveness, maintained by the health checker. Members
    /// start optimistically alive; the first failed probe or proxy
    /// attempt flips them.
    alive: Vec<AtomicBool>,
}

impl Fleet {
    /// A single-member fleet: everything routes locally and job ids are
    /// the plain 1, 2, 3, … sequence.
    pub fn standalone() -> Fleet {
        Fleet { members: Vec::new(), self_index: 0, ring: Vec::new(), alive: Vec::new() }
    }

    /// Builds the fleet from the full `--peers` member list, identifying
    /// this process by matching each entry against `self_addr` (the
    /// daemon's actually-bound address).
    ///
    /// # Errors
    ///
    /// Errors when an entry does not resolve, or when no entry matches
    /// the bound address — a fleet member that is not on its own member
    /// list would shard jobs to everyone but itself.
    pub fn from_members(members: &[String], self_addr: SocketAddr) -> Result<Fleet, String> {
        if members.len() < 2 {
            return Err("--peers needs at least two comma-separated host:port members \
                        (including this process's own address)"
                .to_string());
        }
        let mut self_index = None;
        for (i, member) in members.iter().enumerate() {
            let resolved = member
                .to_socket_addrs()
                .map_err(|e| format!("--peers member `{member}` does not resolve: {e}"))?
                .next()
                .ok_or_else(|| format!("--peers member `{member}` resolves to no address"))?;
            if resolved == self_addr {
                if self_index.is_some() {
                    return Err(format!("--peers lists `{member}` (this process) twice"));
                }
                self_index = Some(i);
            }
        }
        let Some(self_index) = self_index else {
            return Err(format!(
                "--peers must include this process's own bound address {self_addr} \
                 (members: {})",
                members.join(", ")
            ));
        };
        let mut ring = Vec::with_capacity(members.len() * VNODES);
        for (i, member) in members.iter().enumerate() {
            for v in 0..VNODES {
                ring.push((fnv1a(format!("{member}#{v}").as_bytes()), i));
            }
        }
        ring.sort_unstable();
        let alive = members.iter().map(|_| AtomicBool::new(true)).collect();
        Ok(Fleet { members: members.to_vec(), self_index, ring, alive })
    }

    /// The job-id stride: wire ids satisfy `id % stride == owner index`,
    /// so any member can decode which process holds a job record without
    /// a lookup table. Standalone daemons have stride 1 — the plain
    /// 1, 2, 3, … sequence.
    pub fn stride(&self) -> u64 {
        self.members.len().max(1) as u64
    }

    /// This process's member index (the job-id offset).
    pub fn self_index(&self) -> usize {
        self.self_index
    }

    /// Whether this daemon is part of a multi-member fleet.
    pub fn is_fleet(&self) -> bool {
        self.members.len() > 1
    }

    /// The member addresses (empty when standalone).
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The member index owning `hash`: the first member at or clockwise
    /// after it on the ring, skipping members currently marked dead (so
    /// a dead peer's share rehashes onto its successors — graceful
    /// degradation, not an error).
    pub fn owner_of(&self, hash: u64) -> usize {
        if !self.is_fleet() {
            return self.self_index;
        }
        let start = self.ring.partition_point(|&(h, _)| h < hash);
        for k in 0..self.ring.len() {
            let (_, member) = self.ring[(k + start) % self.ring.len()];
            if member == self.self_index || self.is_alive(member) {
                return member;
            }
        }
        self.self_index
    }

    /// Whether `member` is currently believed alive. Self is always
    /// alive.
    pub fn is_alive(&self, member: usize) -> bool {
        member == self.self_index
            || self.alive.get(member).is_some_and(|a| a.load(Ordering::SeqCst))
    }

    /// Records a liveness observation; returns `true` when this flipped
    /// the member's state (worth a log line and a counter).
    pub fn set_alive(&self, member: usize, alive: bool) -> bool {
        match self.alive.get(member) {
            Some(flag) => flag.swap(alive, Ordering::SeqCst) != alive,
            None => false,
        }
    }

    /// Forwards `request` to `member` and relays its response, marking
    /// the hop with [`FORWARDED_HEADER`] so the receiver handles it
    /// locally. `None` means the peer could not be reached or spoke
    /// garbage — the caller should mark it dead and fall back.
    pub fn proxy(&self, member: usize, request: &Request) -> Option<Response> {
        exchange(self.members.get(member)?, request, HOP).ok()
    }

    /// Opens a **streaming** hop to `member`: sends `request` (marked
    /// with [`FORWARDED_HEADER`]) and hands back the raw socket, so the
    /// connection's thread can relay the peer's chunked response bytes
    /// verbatim as they arrive — the 1-hop proxy path of
    /// `GET /jobs/<id>/events`. `None` when the peer cannot be reached;
    /// the caller answers 502.
    pub fn open_stream(&self, member: usize, request: &Request) -> Option<TcpStream> {
        send(self.members.get(member)?, request, HOP).ok()
    }

    /// One health probe: `GET /healthz` with tight timeouts. `true` when
    /// the peer answered 200.
    pub fn probe(&self, member: usize) -> bool {
        self.members.get(member).is_some_and(|addr| {
            exchange(addr, &Request::get("/healthz"), PROBE).is_ok_and(|r| r.status == 200)
        })
    }

    /// `members[i]` rendered as a metric-name segment: Prometheus metric
    /// names cannot contain `.`/`:`, so `127.0.0.1:7001` becomes
    /// `127_0_0_1_7001`.
    pub fn metric_label(&self, member: usize) -> String {
        self.members
            .get(member)
            .map(|addr| {
                addr.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
            })
            .unwrap_or_default()
    }
}

/// Connects to `addr` within `call.connect`, sets both socket timeouts to
/// `call.io` and sends `request`'s method, path and body (not its
/// headers) with `Connection: close` — the one way the daemon and its
/// tools make a request. Returns the socket to read the answer from.
pub fn send(addr: &str, request: &Request, call: Call) -> io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| io::Error::other("no address"))?;
    let mut stream = TcpStream::connect_timeout(&resolved, call.connect)?;
    stream.set_read_timeout(Some(call.io))?;
    stream.set_write_timeout(Some(call.io))?;
    let forwarded =
        if call.forwarded { format!("{FORWARDED_HEADER}: 1\r\n") } else { String::new() };
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: {addr}\r\n{forwarded}Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        request.method,
        request.path,
        request.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&request.body)?;
    Ok(stream)
}

/// [`send`], then reads the whole answer and parses it.
pub fn exchange(addr: &str, request: &Request, call: Call) -> io::Result<Response> {
    let mut raw = Vec::new();
    send(addr, request, call)?.read_to_end(&mut raw)?;
    parse_upstream_response(&raw).ok_or_else(|| io::Error::other("malformed HTTP response"))
}

/// Parses a peer's raw HTTP/1.1 response into a relayable [`Response`].
/// Only the pieces the daemon itself emits are understood: status code,
/// `Content-Type`, `Retry-After` and a `Connection: close`-delimited
/// body.
pub(crate) fn parse_upstream_response(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.strip_prefix("HTTP/1.1 ")?.split(' ').next()?.parse().ok()?;
    let mut content_type = "application/json".to_string();
    let mut retry_after = None;
    let mut content_length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-type" => content_type = value.to_string(),
            "retry-after" => retry_after = value.parse().ok(),
            "content-length" => content_length = value.parse().ok(),
            _ => {}
        }
    }
    let body = &raw[head_end + 4..];
    let body = match content_length {
        Some(n) if n <= body.len() => &body[..n],
        Some(_) => return None, // truncated mid-body
        None => body,
    };
    Some(Response {
        status,
        body: String::from_utf8(body.to_vec()).ok()?,
        content_type,
        retry_after,
        proxied: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize, self_index: usize) -> Fleet {
        // Bypass from_members' live-socket matching: build the ring the
        // same way with synthetic addresses.
        let members: Vec<String> = (0..n).map(|i| format!("10.0.0.{i}:7000")).collect();
        let mut ring = Vec::new();
        for (i, member) in members.iter().enumerate() {
            for v in 0..VNODES {
                ring.push((fnv1a(format!("{member}#{v}").as_bytes()), i));
            }
        }
        ring.sort_unstable();
        let alive = members.iter().map(|_| AtomicBool::new(true)).collect();
        Fleet { members, self_index, ring, alive }
    }

    #[test]
    fn ring_agreement_is_independent_of_who_asks() {
        let a = fleet(3, 0);
        let b = fleet(3, 2);
        for hash in [0u64, 1, 0xdead_beef, u64::MAX, fnv1a(b"spec")] {
            assert_eq!(a.owner_of(hash), b.owner_of(hash), "hash {hash:#x}");
        }
    }

    #[test]
    fn ring_spreads_load_roughly_evenly() {
        let fleet = fleet(3, 0);
        let mut counts = [0u64; 3];
        for i in 0..3000u64 {
            counts[fleet.owner_of(fnv1a(&i.to_le_bytes()))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (500..=1700).contains(&c),
                "member {i} owns {c}/3000 — vnode spread is badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn dead_members_rehash_to_survivors_and_recover() {
        let fleet = fleet(3, 0);
        let hashes: Vec<u64> = (0..300u64).map(|i| fnv1a(&i.to_le_bytes())).collect();
        let before: Vec<usize> = hashes.iter().map(|&h| fleet.owner_of(h)).collect();
        assert!(fleet.set_alive(1, false), "first flip reports a change");
        assert!(!fleet.set_alive(1, false), "repeat observation is not a flip");
        for (&h, &was) in hashes.iter().zip(&before) {
            let now = fleet.owner_of(h);
            assert_ne!(now, 1, "dead member must own nothing");
            if was != 1 {
                assert_eq!(now, was, "live members keep their keys (minimal disruption)");
            }
        }
        fleet.set_alive(1, true);
        let after: Vec<usize> = hashes.iter().map(|&h| fleet.owner_of(h)).collect();
        assert_eq!(after, before, "recovery restores the original assignment");
    }

    #[test]
    fn standalone_owns_everything_with_stride_one() {
        let fleet = Fleet::standalone();
        assert!(!fleet.is_fleet());
        assert_eq!(fleet.stride(), 1);
        assert_eq!(fleet.owner_of(fnv1a(b"anything")), 0);
        assert!(fleet.is_alive(0));
    }

    #[test]
    fn from_members_rejects_a_list_without_self() {
        let members = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        let err = Fleet::from_members(&members, "127.0.0.1:3".parse().unwrap()).unwrap_err();
        assert!(err.contains("own bound address"), "{err}");
        let err = Fleet::from_members(&members[..1], "127.0.0.1:1".parse().unwrap()).unwrap_err();
        assert!(err.contains("at least two"), "{err}");
    }

    #[test]
    fn from_members_identifies_self_by_bound_address() {
        let members = vec!["127.0.0.1:7101".to_string(), "127.0.0.1:7102".to_string()];
        let fleet = Fleet::from_members(&members, "127.0.0.1:7102".parse().unwrap()).unwrap();
        assert_eq!(fleet.self_index(), 1);
        assert_eq!(fleet.stride(), 2);
        assert_eq!(fleet.metric_label(0), "127_0_0_1_7101");
    }

    #[test]
    fn upstream_responses_round_trip_through_the_parser() {
        let original = Response::retry_after(503, crate::http::error_body("queue full"), 7);
        let parsed = parse_upstream_response(&original.to_bytes()).unwrap();
        assert_eq!(parsed, original);
        assert!(parse_upstream_response(b"HTTP/1.1 200 OK\r\n").is_none(), "no head terminator");
        assert!(
            parse_upstream_response(b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nshort")
                .is_none(),
            "truncated body must not relay"
        );
    }
}
