//! A minimal blocking HTTP/1.1 client for the campaign service — used by
//! the `scenario submit` subcommand, the integration tests and the
//! benchmark harness, so none of them need an external HTTP dependency.
//! It speaks exactly the dialect [`crate::http`] emits: one request per
//! connection, `Content-Length` responses, and chunked event streams.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A decoded HTTP response.
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (lossy — the service only emits UTF-8).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(), String> {
    let body = body.unwrap_or_default();
    // One write per request, like `http::respond`: a head and a body sent
    // separately would wait on each other's ACK.
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: service\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream
        .write_all(&message)
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send {method} {path}: {e}"))
}

/// Reads the status line + headers; returns (status, content_length,
/// chunked).
fn read_head(reader: &mut BufReader<TcpStream>) -> Result<(u16, Option<usize>, bool), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("status line: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut content_length = None;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        reader
            .read_line(&mut header)
            .map_err(|e| format!("header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    Ok((status, content_length, chunked))
}

fn request(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> Result<Response, String> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let (status, content_length, chunked) = read_head(&mut reader)?;
    let mut body = Vec::new();
    if chunked {
        // Drain the chunk stream into a flat body (used when a caller
        // GETs a completed job's events non-streamingly).
        while let Some(chunk) = read_chunk(&mut reader)? {
            body.extend_from_slice(&chunk);
        }
    } else {
        match content_length {
            Some(n) => {
                body.resize(n, 0);
                reader
                    .read_exact(&mut body)
                    .map_err(|e| format!("body: {e}"))?;
            }
            None => {
                reader
                    .read_to_end(&mut body)
                    .map_err(|e| format!("body: {e}"))?;
            }
        }
    }
    Ok(Response { status, body })
}

/// One `GET`.
///
/// # Errors
///
/// Connection or protocol failures (non-2xx statuses are returned, not
/// errors).
pub fn get(addr: &str, path: &str) -> Result<Response, String> {
    request(addr, "GET", path, None)
}

/// One `POST` with a JSON body.
///
/// # Errors
///
/// See [`get`].
pub fn post(addr: &str, path: &str, body: &str) -> Result<Response, String> {
    request(addr, "POST", path, Some(body.as_bytes()))
}

/// Reads one chunk of a chunked body; `None` on the zero-length
/// terminator.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> Result<Option<Vec<u8>>, String> {
    let mut size_line = String::new();
    let n = reader
        .read_line(&mut size_line)
        .map_err(|e| format!("chunk size: {e}"))?;
    if n == 0 {
        return Err("connection closed mid-chunk-stream".to_string());
    }
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|e| format!("chunk size {size_line:?}: {e}"))?;
    if size == 0 {
        let mut crlf = String::new();
        let _ = reader.read_line(&mut crlf);
        return Ok(None);
    }
    let mut chunk = vec![0u8; size];
    reader
        .read_exact(&mut chunk)
        .map_err(|e| format!("chunk body: {e}"))?;
    let mut crlf = [0u8; 2];
    reader
        .read_exact(&mut crlf)
        .map_err(|e| format!("chunk crlf: {e}"))?;
    Ok(Some(chunk))
}

/// Subscribes to `GET {path}` as a chunked line stream, invoking
/// `on_line` per JSONL line (without the newline). Returns `true` when
/// the stream ended with the clean chunked terminator, `false` when the
/// service cut it (job parked/failed or service stopped).
///
/// # Errors
///
/// Connection/protocol failures, or a non-200 status.
pub fn stream_lines(addr: &str, path: &str, mut on_line: impl FnMut(&str)) -> Result<bool, String> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, "GET", path, None)?;
    let mut reader = BufReader::new(stream);
    let (status, _, chunked) = read_head(&mut reader)?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}"));
    }
    if !chunked {
        return Err(format!("GET {path}: expected a chunked stream"));
    }
    let mut pending = String::new();
    let clean = loop {
        match read_chunk(&mut reader) {
            Ok(Some(chunk)) => {
                pending.push_str(&String::from_utf8_lossy(&chunk));
                while let Some(pos) = pending.find('\n') {
                    let line: String = pending.drain(..=pos).collect();
                    on_line(line.trim_end_matches('\n'));
                }
            }
            Ok(None) => break true,
            // An abrupt close is the documented "aborted stream" signal.
            Err(_) => break false,
        }
    };
    if !pending.is_empty() {
        on_line(&pending);
    }
    Ok(clean)
}

/// Polls `GET /healthz` until it answers 200 or `timeout` elapses.
///
/// # Errors
///
/// Timeout (with the last failure).
pub fn wait_healthy(addr: &str, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let last = match get(addr, "/healthz") {
            Ok(response) if response.status == 200 => return Ok(()),
            Ok(response) => format!("status {}", response.status),
            Err(e) => e,
        };
        if Instant::now() >= deadline {
            return Err(format!("service at {addr} not healthy: {last}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls `GET /jobs/{id}` until its state leaves `queued`/`running` or
/// `timeout` elapses; returns the final status JSON.
///
/// # Errors
///
/// Timeout or request failures.
pub fn wait_job(addr: &str, id: &str, timeout: Duration) -> Result<String, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let response = get(addr, &format!("/jobs/{id}"))?;
        if response.status != 200 {
            return Err(format!("GET /jobs/{id}: status {}", response.status));
        }
        let text = response.text();
        let status: serde::Value =
            serde_json::from_str(&text).map_err(|e| format!("job status: {e}"))?;
        let state = status
            .as_map()
            .map(|entries| serde::map_get(entries, "state"))
            .and_then(serde::Value::as_str)
            .ok_or_else(|| format!("job status has no state: {text}"))?;
        if matches!(state, "done" | "failed" | "parked") {
            return Ok(text);
        }
        if Instant::now() >= deadline {
            return Err(format!("job {id} still not settled: {text}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
