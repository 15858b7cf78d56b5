//! # bcbpt-bench — benchmark and figure-regeneration harness
//!
//! This crate carries no library code of its own; it hosts:
//!
//! * **The `scenario` driver** (`src/bin/scenario.rs`): the one experiment
//!   binary. Every paper figure and extension experiment is a declarative
//!   JSON file under `scenarios/` at the workspace root — `scenario run
//!   scenarios/fig3.json` regenerates Fig. 3, `scenario quick <name>`
//!   runs a CI-scale built-in, `scenario list`/`export` enumerate them.
//! * **Support binaries**: `validate` (§V.A simulator validation against
//!   the reference delay shape), `degree` (§V.C delay-variance-vs-degree
//!   claim). Performance is measured by the stand-alone `benchmark/`
//!   package at the workspace root, not from here.
//! * **Criterion benches** (`benches/`): engine/event-queue throughput,
//!   network flooding, cluster-formation cost per protocol, and timed
//!   wrappers around the figure regenerations.
//!
//! See `EXPERIMENTS.md` at the workspace root for the paper-vs-measured
//! record produced with these targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
