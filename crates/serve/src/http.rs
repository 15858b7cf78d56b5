//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`] — just
//! enough protocol for the campaign service and its tests: one request per
//! connection (`Connection: close`), `Content-Length` bodies on the way in,
//! and either a `Content-Length` response or a `Transfer-Encoding: chunked`
//! stream on the way out. No keep-alive, no pipelining, no TLS — the
//! service binds loopback by default and the build environment has no
//! registry access, so a hand-rolled reader beats a vendored framework.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending — the
/// latency floor of noticing a stop request.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long an accepted connection may stay silent mid-request before
/// its handler gives up on it. Requests are a few KB sent in one burst;
/// a client that stalls this long is stuck or hostile, and without the
/// bound it would pin its handler thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest accepted request head (request line plus every header line).
/// The service's own clients send under 200 bytes; the bound keeps a
/// client that never sends a newline from growing the line buffer
/// without limit.
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// Largest accepted request body (a scenario JSON is a few KB; a megabyte
/// of headroom keeps hand-written sweeps comfortable while bounding what a
/// stray client can make the service buffer).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// One parsed HTTP request: method, path (query split off), body.
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target, percent-decoding not applied
    /// (the service's routes use none).
    pub path: String,
    /// Raw query string after `?`, without the `?`; empty when absent.
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `key` (`k=v` pairs joined by `&`).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// The poll-accept-dispatch loop both HTTP servers of this crate run on
/// their accept thread: until `stop()` holds, call `tick()` (a periodic
/// hook — the daemon polls for signals there), accept what is pending on
/// the non-blocking `listener`, and serve each connection on a thread of
/// its own — a 10 s read timeout set, one request read (a malformed one is
/// answered `400`), then `route` — so one silent or slow client never
/// delays another's request. Joins every connection thread before
/// returning.
pub fn accept_loop(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    mut tick: impl FnMut(),
    route: impl Fn(&mut TcpStream, &Request) -> Result<(), String> + Clone + Send + 'static,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop() {
        tick();
        let Ok((mut stream, _)) = listener.accept() else {
            // Nothing pending (`WouldBlock`) or a transient accept error.
            std::thread::sleep(ACCEPT_POLL);
            continue;
        };
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            continue; // the peer is already gone
        }
        let route = route.clone();
        let spawned = std::thread::Builder::new()
            .name("http-conn".to_string())
            .spawn(move || {
                // Response errors mean the peer hung up; there is nobody
                // left to tell.
                let _ = match read_request(&mut stream) {
                    Ok(request) => route(&mut stream, &request),
                    Err(e) => respond_error(&mut stream, 400, &e),
                };
            });
        connections.retain(|c| !c.is_finished());
        // On a spawn failure the connection drops, which the client sees
        // as a closed socket.
        connections.extend(spawned);
    }
    for connection in connections {
        let _ = connection.join();
    }
}

/// Reads one head line into `line`, charging it to the `budget` of head
/// bytes left.
fn read_head_line(
    reader: &mut impl BufRead,
    line: &mut String,
    budget: &mut usize,
) -> Result<(), String> {
    // One byte over the budget is enough to tell "too long" from "fits".
    let limit = *budget as u64 + 1;
    let read = reader
        .take(limit)
        .read_line(line)
        .map_err(|e| e.to_string())?;
    if read > *budget {
        return Err(format!(
            "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        ));
    }
    *budget -= read;
    Ok(())
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// Malformed request line or headers, a head larger than
/// [`MAX_HEAD_BYTES`], a body larger than [`MAX_BODY_BYTES`], or the
/// underlying I/O error (including the read timeout the accept loop set).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut head_budget = MAX_HEAD_BYTES;
    let mut line = String::new();
    read_head_line(&mut reader, &mut line, &mut head_budget)
        .map_err(|e| format!("request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let target = parts.next().ok_or("request line has no target")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        read_head_line(&mut reader, &mut header, &mut head_budget)
            .map_err(|e| format!("header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|e| format!("content-length: {e}"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// The reason phrase for the handful of status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Content-Length` response and flushes it.
///
/// # Errors
///
/// The underlying I/O error (the peer usually just went away).
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> Result<(), String> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("response: {e}"))
}

/// [`respond`] with a JSON body.
///
/// # Errors
///
/// See [`respond`].
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> Result<(), String> {
    respond(stream, status, "application/json", body.as_bytes())
}

/// [`respond`] with the service's error shape, `{"error": message}`.
///
/// # Errors
///
/// See [`respond`].
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> Result<(), String> {
    let body = serde_json::to_string(&serde::Value::Map(vec![(
        "error".to_string(),
        serde::Value::Str(message.to_string()),
    )]))
    .expect("error body serializes");
    respond_json(stream, status, &body)
}

/// A `Transfer-Encoding: chunked` response in progress: one chunk per
/// payload handed to [`write_chunk`](Self::write_chunk), closed by the
/// zero-length terminator only when [`finish`](Self::finish) is called —
/// dropping the writer mid-stream leaves the chunk stream visibly
/// truncated, which is exactly how the service signals an aborted
/// event stream to its subscribers.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the status line + chunked headers and returns the writer.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn begin(stream: &'a mut TcpStream, content_type: &str) -> Result<Self, String> {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("chunked head: {e}"))?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk and flushes it (subscribers tail the stream live).
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn write_chunk(&mut self, payload: &[u8]) -> Result<(), String> {
        if payload.is_empty() {
            return Ok(());
        }
        let head = format!("{:x}\r\n", payload.len());
        self.stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(payload))
            .and_then(|()| self.stream.write_all(b"\r\n"))
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("chunk: {e}"))
    }

    /// Writes the zero-length terminating chunk — the stream completed.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn finish(self) -> Result<(), String> {
        self.stream
            .write_all(b"0\r\n\r\n")
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("chunk terminator: {e}"))
    }
}
