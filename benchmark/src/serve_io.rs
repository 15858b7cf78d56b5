//! The load generator's side of the campaign service: an in-process daemon
//! on loopback with default settings and a spool of its own, and the
//! requests the one closed-loop client sends it.

use crate::host::TmpDir;
use bcbpt_serve::client::{self, Response};
use bcbpt_serve::{ServeConfig, Server};
use serde::Value;
use std::path::Path;
use std::time::Duration;

/// A running daemon with its spool directory. Stopping — explicitly or by
/// drop, on every exit path — drains it (`request_drain` + `wait`, so every
/// thread it started has ended) and removes the spool.
pub struct Daemon {
    // Dropped in declaration order: the server is drained before its spool
    // directory is removed.
    server: Option<Server>,
    addr: String,
    spool: TmpDir,
}

impl Daemon {
    /// Fresh spool under `out_dir` + `Server::start` with
    /// `ServeConfig::new` defaults + `wait_healthy`.
    pub fn start(out_dir: &Path) -> Result<Daemon, String> {
        Daemon::start_on(TmpDir::create(out_dir, "spool")?)
    }

    /// [`start`](Self::start) on a spool directory the caller prepared
    /// (one whose store already holds outcomes).
    pub fn start_on(spool: TmpDir) -> Result<Daemon, String> {
        let server = Server::start(ServeConfig::new(spool.path()))?;
        let addr = server.local_addr().to_string();
        let daemon = Daemon {
            server: Some(server),
            addr,
            spool,
        };
        client::wait_healthy(&daemon.addr, Duration::from_secs(10))?;
        Ok(daemon)
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn spool_path(&self) -> &Path {
        self.spool.path()
    }

    fn drain(&mut self) -> Result<(), String> {
        match self.server.take() {
            Some(server) => {
                server.request_drain();
                server.wait()
            }
            None => Ok(()),
        }
    }

    /// Drains the daemon and reports a thread that panicked.
    pub fn stop(mut self) -> Result<(), String> {
        self.drain()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}

/// The daemon's answer to `POST /scenarios`.
pub struct Ticket {
    pub status: u16,
    pub job: String,
    pub cached: bool,
}

/// Submits one scenario body (`?shards=N` when given).
pub fn submit(addr: &str, body: &str, shards: Option<usize>) -> Result<Ticket, String> {
    let path = match shards {
        Some(n) => format!("/scenarios?shards={n}"),
        None => "/scenarios".to_string(),
    };
    let response = client::post(addr, &path, body)?;
    let text = response.text();
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("submit response {text:?}: {e}"))?;
    let entries = value
        .as_map()
        .ok_or_else(|| format!("submit response is not an object: {text}"))?;
    let job = serde::map_get(entries, "job")
        .as_str()
        .ok_or_else(|| format!("submit refused ({}): {text}", response.status))?
        .to_string();
    Ok(Ticket {
        status: response.status,
        job,
        cached: matches!(serde::map_get(entries, "cached"), Value::Bool(true)),
    })
}

pub fn fetch_outcome(addr: &str, job: &str) -> Result<Response, String> {
    client::get(addr, &format!("/jobs/{job}/outcome"))
}

/// `runs_executed` from `GET /stats`.
pub fn runs_executed(addr: &str) -> Result<u64, String> {
    let text = client::get(addr, "/stats")?.text();
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("/stats {text:?}: {e}"))?;
    match value.as_map().map(|m| serde::map_get(m, "runs_executed")) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(format!("/stats has no runs_executed: {text}")),
    }
}

/// The value of one sample line (`<name> <value>`) in a Prometheus text
/// exposition; histogram sums are published as `<family>_sum`.
pub fn prometheus_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_value_reads_exact_names_only() {
        let text =
            "# HELP x_seconds help\nx_seconds_sum 0.25\nx_seconds_count 4\nx_seconds_sum_extra 9\n";
        assert_eq!(prometheus_value(text, "x_seconds_sum"), Some(0.25));
        assert_eq!(prometheus_value(text, "x_seconds_count"), Some(4.0));
        assert_eq!(prometheus_value(text, "x_seconds"), None);
    }

    #[test]
    fn daemon_serves_and_leaves_nothing_behind() {
        let out = std::env::temp_dir().join(format!("bcbpt-daemon-test-{}", std::process::id()));
        let spool;
        {
            let daemon = Daemon::start(&out).unwrap();
            spool = daemon.spool_path().to_path_buf();
            assert!(spool.is_dir());
            assert_eq!(runs_executed(daemon.addr()).unwrap(), 0);
            let refused = submit(daemon.addr(), "{\"builtin\":\"nope\"}", None);
            assert!(refused.is_err(), "an unknown builtin is refused");
            // Dropped without stop(): the guard still drains and cleans up.
        }
        assert!(!spool.exists());
        let _ = std::fs::remove_dir_all(&out);
    }
}
