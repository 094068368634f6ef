//! A minimal HTTP/1.1 request reader and response writer.
//!
//! The daemon speaks just enough HTTP for `curl`, browsers and raw
//! `TcpStream` test clients: one request per connection (`Connection:
//! close` is always sent back), `Content-Length` bodies only (a request
//! framed by `Transfer-Encoding` is refused before its body is read), and
//! hard caps on header-block and body sizes so an adversarial peer cannot
//! balloon memory. Deadlines belong to the stream handed in: the daemon's
//! connection reader enforces the request's read deadline.

use std::io::{self, Read, Write};

/// Maximum bytes of request line + headers accepted before `431`-style
/// rejection (we answer `413` — close enough for a five-endpoint API).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request target, e.g. `/jobs/3` (query strings are not split
    /// off; no endpoint takes one).
    pub path: String,
    /// Request headers as `(name, value)` with names lowercased; values
    /// are trimmed. Duplicate headers keep every occurrence.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// A `GET` of `path` with no headers and no body.
    pub fn get(path: &str) -> Request {
        Request { method: "GET".to_string(), path: path.to_string(), headers: vec![], body: vec![] }
    }

    /// The first value of a header, looked up case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Socket-level failure (timeout, reset); the connection is dropped
    /// without a response.
    Io(io::Error),
    /// The head or body exceeded its size cap → `413`.
    TooLarge(&'static str),
    /// The bytes were not parseable HTTP → `400`.
    Malformed(&'static str),
    /// The body is framed by `Transfer-Encoding` with no `Content-Length`
    /// → `411`.
    LengthRequired,
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

/// Attempts to parse one complete request from an accumulating buffer —
/// the incremental step [`read_request`] runs after every read.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete
/// head + body (read more and call again), `Ok(Some(request))` once it
/// does, and an error as soon as the bytes are hopeless: an oversized
/// head or body is rejected *before* the peer finishes sending it, so a
/// slow adversary cannot balloon memory while staying under the radar,
/// and so is any `Transfer-Encoding` (only `Content-Length` framing is
/// read here). A header line must be `name: value` with a token name
/// (RFC 9112 §5): a line without a colon, whitespace before the colon
/// and an obs-fold continuation line are `400`s, since a proxy that
/// drops or re-joins such a line would frame the body differently.
/// Bytes past `Content-Length` (pipelined follow-ups, keep-alive
/// chatter) are ignored: this daemon answers one request per connection.
pub fn try_parse(buf: &[u8], max_body: usize) -> Result<Option<Request>, RequestError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge("request head"));
        }
        return Ok(None);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RequestError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || !path.starts_with('/') || !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("bad request line"));
    }

    let mut content_length: Option<usize> = None;
    let mut transfer_encoding = false;
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed("header line without a colon"));
        };
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(RequestError::Malformed("header name is not a token"));
        }
        let (name, value) = (name.to_ascii_lowercase(), value.trim().to_string());
        transfer_encoding |= name == "transfer-encoding";
        if name == "content-length" {
            let parsed =
                value.parse().map_err(|_| RequestError::Malformed("bad Content-Length"))?;
            // RFC 9110 §8.6: repeated Content-Length headers are a request
            // smuggling vector unless every occurrence agrees.
            if content_length.is_some_and(|seen| seen != parsed) {
                return Err(RequestError::Malformed("conflicting Content-Length"));
            }
            content_length = Some(parsed);
        }
        headers.push((name, value));
    }
    if transfer_encoding {
        // RFC 9112 §6.3: with Content-Length too, the two framings
        // disagree about where the body ends — the request-smuggling
        // shape, like conflicting Content-Lengths.
        return Err(match content_length {
            None => RequestError::LengthRequired,
            Some(_) => RequestError::Malformed("Transfer-Encoding with Content-Length"),
        });
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::TooLarge("request body"));
    }

    let after_head = &buf[head_end + 4..];
    if after_head.len() < content_length {
        return Ok(None);
    }
    let body = after_head[..content_length].to_vec();
    Ok(Some(Request { method: method.to_string(), path: path.to_string(), headers, body }))
}

/// Reads one request from a blocking stream, feeding [`try_parse`] after
/// every read and capping the body at `max_body` bytes. The stream's own
/// timeouts bound the wait; the daemon reads through one that enforces
/// the request's deadline.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, RequestError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(request) = try_parse(&buf, max_body)? {
            return Ok(request);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(RequestError::Malformed(if find_head_end(&buf).is_some() {
                "connection closed mid-body"
            } else {
                "connection closed mid-request"
            }));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Whether `byte` may appear in a header name (RFC 9110 §5.6.2 `tchar`).
fn is_token_byte(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&byte)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An outgoing response: a status code, a body with its content type and
/// an optional `Retry-After` hint (the backpressure signal on `503`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Seconds for a `Retry-After` header, when set.
    pub retry_after: Option<u64>,
    /// Whether this response was relayed from another fleet member; sent
    /// as `X-Fetchvp-Proxied: 1` so clients can tell a 1-hop answer from
    /// a local one.
    pub proxied: bool,
}

impl Response {
    /// A response with the given status and JSON body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            content_type: "application/json".to_string(),
            retry_after: None,
            proxied: false,
        }
    }

    /// A response with an explicit content type (e.g. Prometheus text
    /// exposition on `/metrics`).
    pub fn text(status: u16, body: String, content_type: &str) -> Response {
        Response { content_type: content_type.to_string(), ..Response::json(status, body) }
    }

    /// A `Retry-After` variant of [`Response::json`].
    pub fn retry_after(status: u16, body: String, seconds: u64) -> Response {
        Response { retry_after: Some(seconds), ..Response::json(status, body) }
    }

    /// The standard reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        reason_phrase(self.status)
    }

    /// The full wire form of the response — what [`Response::write_to`]
    /// sends in one buffered write.
    ///
    /// Every response carries `Connection: close` — success *and* error
    /// paths alike — because the daemon answers exactly one request per
    /// connection and must tell keep-alive clients (curl defaults to
    /// `Connection: keep-alive`) not to wait for a second response on the
    /// same socket.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        if self.proxied {
            head.push_str("X-Fetchvp-Proxied: 1\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }

    /// Serializes the response (with `Connection: close`) onto the stream.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

/// The standard reason phrase for a status code.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The head of a streaming response: `Transfer-Encoding: chunked`, no
/// `Content-Length` (the length is unknown while the job runs), still
/// `Connection: close`. Follow with [`chunk`]-framed payloads and finish
/// with [`chunk_end`].
pub fn stream_head(status: u16, content_type: &str) -> Vec<u8> {
    let reason = reason_phrase(status);
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .into_bytes()
}

/// One HTTP/1.1 chunk frame: hex length, CRLF, payload, CRLF. Empty
/// payloads return no bytes (a zero-length chunk would terminate the
/// stream).
pub fn chunk(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut bytes = format!("{:x}\r\n", payload.len()).into_bytes();
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(b"\r\n");
    bytes
}

/// The terminating zero-length chunk of a chunked response.
pub fn chunk_end() -> &'static [u8] {
    b"0\r\n\r\n"
}

/// A `{"error": …}` body for error responses.
pub fn error_body(message: &str) -> String {
    fetchvp_metrics::Json::object([(
        "error".to_string(),
        fetchvp_metrics::Json::Str(message.to_string()),
    )])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Feeds raw bytes through a real socket pair and parses them.
    fn parse_bytes(bytes: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(bytes).unwrap();
        drop(client); // close so under-length bodies error instead of hanging
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(&mut server_side, 1024)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_bytes(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/healthz"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn headers_are_collected_case_insensitively() {
        let req = parse_bytes(b"GET /metrics HTTP/1.1\r\nAccept: text/plain\r\nX-Thing: A\r\n\r\n")
            .unwrap();
        assert_eq!(req.header("accept"), Some("text/plain"));
        assert_eq!(req.header("ACCEPT"), Some("text/plain"));
        assert_eq!(req.header("x-thing"), Some("A"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert!(matches!(parse_bytes(b"nonsense\r\n\r\n"), Err(RequestError::Malformed(_))));
        assert!(matches!(
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(RequestError::TooLarge(_))
        ));
        assert!(matches!(
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: pony\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        let huge = vec![b'x'; MAX_HEAD_BYTES + 16];
        assert!(matches!(parse_bytes(&huge), Err(RequestError::TooLarge(_))));
    }

    #[test]
    fn trailing_bytes_after_the_body_are_not_an_error() {
        // Regression: the reader used to reject any bytes beyond
        // Content-Length that arrived in the same segment as the head —
        // e.g. a pipelined follow-up request — as "body longer than
        // Content-Length".
        let req = parse_bytes(
            b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"GET /healthz HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn body_read_stops_exactly_at_content_length() {
        // Same regression across the read loop: head in one segment, body
        // plus trailing bytes in later ones. A fresh stream write lands in
        // separate reads often enough that the old full-chunk reads
        // overshot and errored.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"POST /run HTTP/1.1\r\nContent-Length: 6\r\n\r\n").unwrap();
        client.flush().unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        client.write_all(b"abcdefTRAILING-JUNK").unwrap();
        drop(client);
        let req = read_request(&mut server_side, 1024).unwrap();
        assert_eq!(req.body, b"abcdef");
    }

    #[test]
    fn duplicate_content_length_must_agree() {
        // Agreeing duplicates are tolerated (RFC 9110 §8.6)…
        let req =
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
        assert_eq!(req.body, b"ok");
        // …conflicting ones are rejected rather than last-one-wins.
        let err =
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 90\r\n\r\nok");
        assert!(matches!(err, Err(RequestError::Malformed("conflicting Content-Length"))));
    }

    #[test]
    fn transfer_encoding_bodies_are_refused_before_they_are_read() {
        // Regression: a chunked body without Content-Length was read as
        // an empty one (the daemon answered "JSON parse error at byte 0").
        let chunked =
            b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
        assert!(matches!(parse_bytes(chunked), Err(RequestError::LengthRequired)));
        // The head alone decides, before any body byte arrives, whatever
        // the coding.
        let head_only = b"POST /run HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n";
        assert!(matches!(try_parse(head_only, 1024), Err(RequestError::LengthRequired)));
        // With Content-Length too, the chunk framing used to be parsed as
        // the body; the framings disagree, so it is malformed.
        let both = b"POST /run HTTP/1.1\r\nContent-Length: 12\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
        assert!(matches!(
            parse_bytes(both),
            Err(RequestError::Malformed("Transfer-Encoding with Content-Length"))
        ));
        assert_eq!(reason_phrase(411), "Length Required");
    }

    #[test]
    fn malformed_header_lines_cannot_set_the_body_length() {
        // Regression: whitespace before the colon, an obs-fold line and a
        // line without a colon each parsed and returned a 2-byte body; a
        // proxy that drops such a line sees no body (RFC 9112 §5.1, §5.2).
        for head in ["Content-Length : 2", "X: y\r\n Content-Length: 2", "Content-Length 2"] {
            let parsed = parse_bytes(format!("POST /run HTTP/1.1\r\n{head}\r\n\r\nok").as_bytes());
            assert!(matches!(parsed, Err(RequestError::Malformed(_))), "{head:?}: {parsed:?}");
        }
        // Optional whitespace around a value is still fine.
        let req =
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length:2\r\nX: b \r\n\r\nok").unwrap();
        assert_eq!((req.body.as_slice(), req.header("x")), (&b"ok"[..], Some("b")));
    }

    #[test]
    fn truncated_body_is_malformed_not_a_hang() {
        assert!(matches!(
            parse_bytes(b"POST /run HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn try_parse_is_incremental() {
        let full = b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"";
        // Every strict prefix is "not yet", never an error.
        for cut in 0..full.len() {
            assert!(
                matches!(try_parse(&full[..cut], 1024), Ok(None)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let req = try_parse(full, 1024).unwrap().expect("complete request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
        // Trailing pipelined bytes after the body do not confuse it.
        let mut with_trailer = full.to_vec();
        with_trailer.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(try_parse(&with_trailer, 1024).unwrap().unwrap().body, b"{\"a\"");
    }

    #[test]
    fn try_parse_rejects_oversize_before_completion() {
        // A head that exceeds the cap without ever completing must error
        // immediately, not wait for the attacker to finish.
        let huge = vec![b'x'; MAX_HEAD_BYTES + 1];
        assert!(matches!(try_parse(&huge, 1024), Err(RequestError::TooLarge("request head"))));
        // An oversized declared body is rejected at head-parse time, before
        // any body bytes arrive.
        let greedy = b"POST /run HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert!(matches!(try_parse(greedy, 1024), Err(RequestError::TooLarge("request body"))));
    }

    #[test]
    fn every_response_closes_the_connection() {
        // Regression guard for the keep-alive audit: error paths (400, 413,
        // 503) must answer `Connection: close` exactly like success paths,
        // or a keep-alive client hangs waiting to reuse the socket.
        for response in [
            Response::json(200, "{}".to_string()),
            Response::json(400, error_body("bad request")),
            Response::json(413, error_body("too large")),
            Response::retry_after(503, error_body("queue full"), 2),
            Response::text(200, "ok".to_string(), "text/plain"),
        ] {
            let text = String::from_utf8(response.to_bytes()).unwrap();
            assert!(
                text.contains("Connection: close\r\n"),
                "{} response must close the connection:\n{text}",
                response.status
            );
        }
    }

    #[test]
    fn response_wire_format() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        Response::retry_after(503, error_body("queue full"), 1).write_to(&mut server_side).unwrap();
        drop(server_side);
        let mut text = String::new();
        let mut client = client;
        client.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\n  \"error\": \"queue full\"\n}"), "{text}");
    }

    #[test]
    fn stream_frames_are_valid_chunked_encoding() {
        let head = String::from_utf8(stream_head(200, "application/x-ndjson")).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("Transfer-Encoding: chunked\r\n"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert!(!head.contains("Content-Length"), "streams have no length:\n{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");

        assert_eq!(chunk(b"hello\n"), b"6\r\nhello\n\r\n");
        // 26 bytes frames as hex 1a.
        assert_eq!(chunk(&[b'x'; 26])[..4], *b"1a\r\n");
        assert!(chunk(b"").is_empty(), "empty payloads must not terminate the stream");
        assert_eq!(chunk_end(), b"0\r\n\r\n");
    }

    #[test]
    fn proxied_responses_carry_the_relay_header() {
        let mut response = Response::json(200, "{}".to_string());
        let plain = String::from_utf8(response.to_bytes()).unwrap();
        assert!(!plain.contains("X-Fetchvp-Proxied"), "{plain}");
        response.proxied = true;
        let relayed = String::from_utf8(response.to_bytes()).unwrap();
        assert!(relayed.contains("X-Fetchvp-Proxied: 1\r\n"), "{relayed}");
        assert!(relayed.contains("Connection: close\r\n"), "{relayed}");
    }

    #[test]
    fn text_responses_carry_their_content_type() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        Response::text(200, "fetchvp_up 1\n".to_string(), "text/plain; version=0.0.4")
            .write_to(&mut server_side)
            .unwrap();
        drop(server_side);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"), "{text}");
        assert!(text.ends_with("fetchvp_up 1\n"), "{text}");
    }
}
