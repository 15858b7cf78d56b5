//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`] — just
//! enough protocol for the campaign service and its tests: one request per
//! connection (`Connection: close`), `Content-Length` bodies on the way in,
//! and either a `Content-Length` response or a `Transfer-Encoding: chunked`
//! stream on the way out. No keep-alive, no pipelining, no TLS — the
//! service binds loopback by default and the build environment has no
//! registry access, so a hand-rolled reader beats a vendored framework.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an accepted connection may stay silent mid-request before
/// its handler gives up on it. Requests are a few KB sent in one burst;
/// a client that stalls this long is stuck or hostile, and without the
/// bound it would pin its handler thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long one write of a response may wait for the peer to make room.
/// A client that asks for an outcome or an event stream and then never
/// reads would otherwise pin its handler thread once the socket buffers
/// fill; with the bound it is dropped at the first write that sends
/// nothing for this long — a few timeouts in, because a write that sent
/// something before timing out reports that part and the next one waits
/// afresh.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How many connections are served at once. Every one holds a thread (an
/// event-stream subscriber for as long as its job runs), so the count is
/// bounded; a connection past it is answered `503` from the accept thread
/// and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a refused connection is given to deliver the request it was
/// already sending, so that closing it does not reset the `503` away.
const REFUSE_LINGER: Duration = Duration::from_millis(100);

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

/// The accept-dispatch loop both HTTP servers of this crate run on their
/// accept thread: block in `accept()` on the (blocking) `listener` and
/// serve each connection on a thread of its own — read and write timeouts
/// set, one request read (a malformed one is answered `400`), then `route`
/// — so one silent or slow client never delays another's request, and at
/// most [`MAX_CONNECTIONS`] of them are held at once. The loop ends at the
/// first accept after `stop()` holds: whoever flips `stop` then calls
/// [`wake`] so that accept happens now. Joins every connection thread
/// before returning.
pub fn accept_loop(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    route: impl Fn(&mut TcpStream, &Request) -> Result<(), String> + Clone + Send + 'static,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop() {
        let Ok((mut stream, _)) = listener.accept() else {
            // The peer reset first, or the process is out of descriptors:
            // either way, do not spin on it.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if stop() {
            break; // the wake-up connection, or a client that lost the race
        }
        let timeouts = stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)));
        if timeouts.is_err() {
            continue; // the peer is already gone
        }
        connections.retain(|c| !c.is_finished());
        if connections.len() >= MAX_CONNECTIONS {
            refuse(stream);
            continue;
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
        // On a spawn failure the connection drops, which the client sees
        // as a closed socket.
        connections.extend(spawned);
    }
    for connection in connections {
        let _ = connection.join();
    }
}

/// Makes the [`accept_loop`] listening on `addr` return from `accept()`
/// and look at its `stop()` — by connecting to it. Call after flipping
/// whatever `stop()` reads. A listener bound to the wildcard address is
/// reached over loopback.
pub fn wake(addr: SocketAddr) {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    // A failed connect means nobody is accepting any more.
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// Answers a connection past [`MAX_CONNECTIONS`] with `503` without giving
/// it a thread. The accept thread itself waits, at most [`REFUSE_LINGER`],
/// for the request the client is already sending: closing with it unread
/// would reset the connection and could take the response with it.
fn refuse(mut stream: TcpStream) {
    let message = format!("busy: {MAX_CONNECTIONS} connections are being served");
    if respond_error(&mut stream, 503, &message).is_ok()
        && stream.shutdown(Shutdown::Write).is_ok()
        && stream.set_read_timeout(Some(REFUSE_LINGER)).is_ok()
    {
        let _ = stream.read(&mut [0u8; 1024]);
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

/// Writes a complete `Content-Length` response, as one write, and flushes
/// it.
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
    // Head and body leave in one write: two small writes on a socket with
    // Nagle's algorithm on make the second wait for the peer's delayed ACK.
    let mut message = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream
        .write_all(&message)
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
        let mut chunk = format!("{:x}\r\n", payload.len()).into_bytes();
        chunk.extend_from_slice(payload);
        chunk.extend_from_slice(b"\r\n");
        self.stream
            .write_all(&chunk)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    #[test]
    fn a_reader_that_never_drains_is_dropped_at_the_write_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let stop = Arc::new(AtomicBool::new(false));
        let (wrote, written) = mpsc::channel();
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                accept_loop(
                    &listener,
                    || stop.load(Ordering::SeqCst),
                    move |stream, _| {
                        // Far more than the socket buffers of both ends hold.
                        let result = respond(stream, 200, "text/plain", &vec![b'.'; 32 << 20]);
                        let _ = wrote.send(result.clone());
                        result
                    },
                );
            })
        };
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .write_all(b"GET /big HTTP/1.1\r\n\r\n")
            .expect("request sent");
        let asked = Instant::now();
        // The client holds the connection open and reads nothing.
        let result = written
            .recv_timeout(8 * WRITE_TIMEOUT)
            .expect("the handler gave up on its own");
        assert!(result.is_err(), "32 MB fitted into the socket buffers");
        assert!(
            asked.elapsed() >= WRITE_TIMEOUT,
            "the write failed after {:?}, before any timeout",
            asked.elapsed()
        );
        stop.store(true, Ordering::SeqCst);
        wake(addr);
        accept.join().expect("accept loop ends");
        drop(client);
    }
}
