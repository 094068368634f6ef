//! A minimal HTTP/1.1 client for the daemon's JSON API.
//!
//! The daemon answers every request with `Connection: close`, so each
//! exchange opens its own connection; a thread never holds more than one.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long any one exchange may take before it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A response: status code and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes, exactly as sent.
    pub body: Vec<u8>,
}

impl Response {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Connection, timeout and framing errors.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if !body.is_empty() {
        head.push_str("Content-Type: application/json\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    (&stream).write_all(&out)?;

    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed in headers".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    // Wait for the server's close, so the server side holds the TIME_WAIT
    // and thousands of exchanges a second never exhaust client ports.
    reader.read_to_end(&mut Vec::new())?;
    Ok(Response { status, body })
}

/// `POST path` with a JSON body.
///
/// # Errors
///
/// As [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Response> {
    request(addr, "POST", path, body.as_bytes())
}

/// `GET path`.
///
/// # Errors
///
/// As [`request`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, b"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn reads_a_content_length_framed_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let n = s.read(&mut buf).unwrap();
            let req = String::from_utf8_lossy(&buf[..n]).into_owned();
            s.write_all(
                b"HTTP/1.1 202 Accepted\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
            )
            .unwrap();
            req
        });
        let r = post(addr, "/run", "{}").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (202, b"hello".as_slice()));
        assert!(r.ok());
        let req = server.join().unwrap();
        assert!(req.starts_with("POST /run HTTP/1.1\r\n") && req.ends_with("\r\n\r\n{}"), "{req}");
    }
}
