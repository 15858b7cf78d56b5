//! # bcbpt-serve — the campaign service
//!
//! A long-running daemon that executes [`bcbpt_core`] scenarios on
//! demand: submit a [`Scenario`](bcbpt_core::Scenario) over HTTP, watch
//! its [`RunEvent`](bcbpt_core::RunEvent) stream live, fetch the
//! [`ScenarioOutcome`](bcbpt_core::ScenarioOutcome) — byte-identical to
//! what `scenario run` prints — and resubmit for free: outcomes are
//! stored under the scenario's canonical content digest, so an
//! already-computed experiment is answered from disk without executing a
//! single run.
//!
//! The HTTP layer is hand-rolled over [`std::net::TcpListener`] (the
//! build environment has no registry access), one request per
//! connection:
//!
//! | route | effect |
//! |---|---|
//! | `POST /scenarios` | submit a scenario (or `{"builtin": name, "quick": true}`); `?shards=N` fans it out |
//! | `GET /jobs/:id` | job status (state, digest, shards, error) |
//! | `GET /jobs/:id/events` | chunked JSONL stream of the job's run events (many subscribers) |
//! | `GET /jobs/:id/outcome` | the raw stored outcome bytes |
//! | `GET /healthz` | liveness |
//! | `GET /stats` | queue/job counters, cache hits, runs executed |
//! | `GET /metrics` | Prometheus text exposition (sim/runner/shard/serve metrics) |
//! | `POST /shutdown` | graceful drain (running shards park at a durable checkpoint) |
//!
//! See [`server`] for the execution model (bounded queue, shard-
//! scheduling worker pool, warm-snapshot cache, drain/park/resume) and
//! [`spool`] for the on-disk layout.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod coord;
pub mod events;
pub mod http;
pub mod obs;
pub mod server;
pub mod signals;
pub mod spool;

pub use coord::{CoordClient, CoordServer};
pub use server::{ServeConfig, Server};
pub use spool::{digest_hex, JournalFile, Spool};
