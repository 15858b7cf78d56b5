//! The cross-process face of the coordinator round: a small HTTP server
//! wrapping a [`LocalCoordinator`] and a matching [`StopCoordinator`]
//! client, so a `scenario shard run --coordinate <addr>` fleet spread
//! over many processes (or hosts) executes the identical protocol the
//! in-process service path does.
//!
//! | route | effect |
//! |---|---|
//! | `GET /coord/config` | the coordinator's sealed [`CoordinatorConfig`] |
//! | `POST /coord/submit` | submit a sealed [`PrefixEnvelope`]; answers the cell's [`StopDecision`] or `null` |
//! | `GET /coord/decision?cell=K` | the cell's [`StopDecision`] or `null` |
//! | `POST /coord/abandon` | mark a cell failed so blocked peers fail fast |
//! | `GET /healthz` | liveness |
//!
//! Rejected envelopes (bad seal, wrong scenario or fleet, divergent
//! resubmission) and abandoned cells answer `409` with the coordinator's
//! error text; the client surfaces that text verbatim, so a shard's
//! failure message reads the same whether the coordinator was local or
//! remote.

use crate::http;
use bcbpt_core::{
    CoordinatorConfig, LocalCoordinator, PrefixEnvelope, Sealed, StopCoordinator, StopDecision,
};
use serde::{Deserialize, Serialize};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The `POST /coord/abandon` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AbandonRequest {
    cell_index: usize,
    reason: String,
}

/// A running coordinator endpoint: [`http::accept_loop`] on its own
/// thread, one short-lived connection per request (the dialect of
/// [`crate::http`]).
pub struct CoordServer {
    addr: std::net::SocketAddr,
    stopping: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    coordinator: Arc<LocalCoordinator>,
}

impl CoordServer {
    /// Binds `addr` (`host:port`; port 0 picks a free one) and starts
    /// serving the coordinator.
    ///
    /// # Errors
    ///
    /// Bind/spawn failures.
    pub fn start(addr: &str, coordinator: Arc<LocalCoordinator>) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let stopping = Arc::new(AtomicBool::new(false));
        let accept = {
            let stopping = Arc::clone(&stopping);
            let coordinator = Arc::clone(&coordinator);
            std::thread::Builder::new()
                .name("coord-accept".to_string())
                .spawn(move || {
                    http::accept_loop(
                        &listener,
                        || stopping.load(Ordering::SeqCst),
                        move |stream, request| route(&coordinator, stream, request),
                    );
                })
                .map_err(|e| format!("spawn coordinator accept loop: {e}"))?
        };
        Ok(CoordServer {
            addr: local,
            stopping,
            accept: Some(accept),
            coordinator,
        })
    }

    /// The bound address (resolves a requested port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The wrapped coordinator (for progress/summary queries).
    pub fn coordinator(&self) -> &Arc<LocalCoordinator> {
        &self.coordinator
    }

    /// Stops the accept loop and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            http::wake(self.addr);
            let _ = accept.join();
        }
    }
}

impl Drop for CoordServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serializes an `Option<StopDecision>` as the wire payload both decision
/// routes answer: the sealed decision JSON, or `null` while undecided.
fn decision_body(decision: Option<&StopDecision>) -> String {
    decision.map_or_else(|| "null".to_string(), StopDecision::to_json)
}

fn route(
    coordinator: &Arc<LocalCoordinator>,
    stream: &mut TcpStream,
    request: &http::Request,
) -> Result<(), String> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => http::respond_json(stream, 200, "{\"ok\": true}"),
        ("GET", "/coord/config") => {
            let config = coordinator
                .config()
                .expect("local coordinator config is infallible");
            http::respond_json(stream, 200, &config.to_json())
        }
        ("POST", "/coord/submit") => {
            let text = String::from_utf8_lossy(&request.body);
            let envelope = match PrefixEnvelope::from_json(&text) {
                Ok(envelope) => envelope,
                Err(e) => return http::respond_error(stream, 400, &e),
            };
            match coordinator.submit(envelope) {
                Ok(decision) => http::respond_json(stream, 200, &decision_body(decision.as_ref())),
                Err(e) => http::respond_error(stream, 409, &e),
            }
        }
        ("GET", "/coord/decision") => {
            let cell = match request.query_param("cell").map(str::parse::<usize>) {
                Some(Ok(cell)) => cell,
                _ => return http::respond_error(stream, 400, "decision needs ?cell=<index>"),
            };
            match coordinator.decision(cell) {
                Ok(decision) => http::respond_json(stream, 200, &decision_body(decision.as_ref())),
                Err(e) => http::respond_error(stream, 409, &e),
            }
        }
        ("POST", "/coord/abandon") => {
            let text = String::from_utf8_lossy(&request.body);
            let abandon: AbandonRequest = match serde_json::from_str(&text) {
                Ok(abandon) => abandon,
                Err(e) => {
                    return http::respond_error(stream, 400, &format!("invalid abandon body: {e}"))
                }
            };
            match coordinator.abandon(abandon.cell_index, &abandon.reason) {
                Ok(()) => http::respond_json(stream, 200, "{\"ok\": true}"),
                Err(e) => http::respond_error(stream, 409, &e),
            }
        }
        ("GET", _) => http::respond_error(stream, 404, "no such resource"),
        _ => http::respond_error(stream, 405, "method not allowed"),
    }
}

/// [`StopCoordinator`] over HTTP: what `scenario shard run
/// --coordinate <addr>` installs. Every call opens one connection (the
/// service dialect); [`wait`](StopCoordinator::wait) uses the trait's
/// polling default, so the end-of-cell barrier costs one tiny request
/// per 25 ms — negligible next to a single measuring run.
pub struct CoordClient {
    addr: String,
}

impl CoordClient {
    /// A client for the coordinator at `addr` (`host:port`).
    pub fn new(addr: &str) -> Self {
        CoordClient {
            addr: addr.to_string(),
        }
    }

    /// Maps a coordinator response to the trait's `Result` shape: 2xx
    /// passes the body through, anything else surfaces the coordinator's
    /// `{"error": ...}` text (or the raw body when it is not that shape).
    fn checked(response: crate::client::Response, what: &str) -> Result<String, String> {
        let body = response.text();
        if (200..300).contains(&response.status) {
            return Ok(body);
        }
        let message = serde_json::from_str::<serde::Value>(&body)
            .ok()
            .as_ref()
            .and_then(serde::Value::as_map)
            .map(|entries| serde::map_get(entries, "error"))
            .and_then(serde::Value::as_str)
            .map_or_else(|| body.trim_end().to_string(), str::to_string);
        Err(format!("{what}: status {} — {message}", response.status))
    }

    /// Parses a decision-route payload: sealed decision JSON or `null`.
    fn parse_decision(body: &str) -> Result<Option<StopDecision>, String> {
        if body.trim() == "null" {
            return Ok(None);
        }
        let decision = StopDecision::from_json(body)?;
        decision.verify_seal()?;
        Ok(Some(decision))
    }
}

impl StopCoordinator for CoordClient {
    fn config(&self) -> Result<CoordinatorConfig, String> {
        let response = crate::client::get(&self.addr, "/coord/config")?;
        let body = Self::checked(response, "GET /coord/config")?;
        let config = CoordinatorConfig::from_json(&body)?;
        config.verify_seal()?;
        Ok(config)
    }

    fn submit(&self, envelope: PrefixEnvelope) -> Result<Option<StopDecision>, String> {
        let response = crate::client::post(&self.addr, "/coord/submit", &envelope.to_json())?;
        let body = Self::checked(response, "POST /coord/submit")?;
        Self::parse_decision(&body)
    }

    fn decision(&self, cell_index: usize) -> Result<Option<StopDecision>, String> {
        let path = format!("/coord/decision?cell={cell_index}");
        let response = crate::client::get(&self.addr, &path)?;
        let body = Self::checked(response, "GET /coord/decision")?;
        Self::parse_decision(&body)
    }

    fn abandon(&self, cell_index: usize, reason: &str) -> Result<(), String> {
        let abandon = AbandonRequest {
            cell_index,
            reason: reason.to_string(),
        };
        let body = serde_json::to_string(&abandon).expect("abandon body serializes");
        let response = crate::client::post(&self.addr, "/coord/abandon", &body)?;
        Self::checked(response, "POST /coord/abandon").map(|_| ())
    }
}
