//! Integration: instrumentation is a wall-clock side channel only.
//!
//! The hard rule of the observability layer (`bcbpt-obs`) is that it
//! never participates in the simulation: no RNG draws, no fold-order
//! influence, nothing in the serialized outcome. These tests enforce it
//! the only way that matters — run the same campaign with metrics
//! recording and span tracing fully armed, and demand the outcome bytes
//! match the uninstrumented run exactly, at every thread count.
//!
//! Span recording and the metrics registry are process-global state, so
//! every test here serializes on one mutex.

mod common;

use bcbpt::experiments::{mining_campaign_in, run_shard, ShardSpec};
use bcbpt::{ProtocolRegistry, Scenario, Workload};
use bcbpt_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Serializes the tests: they arm the global trace recorder or read
/// deltas of global counters.
static TRACE_GATE: Mutex<()> = Mutex::new(());

fn run_outcome(scenario: &Scenario, threads: usize) -> String {
    scenario
        .session()
        .with_threads(threads)
        .block()
        .expect("campaign runs")
        .to_json()
}

/// The core guarantee: arming every observability facility changes
/// nothing about the outcome bytes, for a clean figure campaign and an
/// adversarial one, at 1, 3 and 8 worker threads.
#[test]
fn instrumented_outcome_is_byte_identical() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    for name in ["fig3", "pingspoof"] {
        let scenario = Scenario::builtin(name).expect("builtin").quick_scaled();
        // Uninstrumented baselines first (metrics counters are always-on
        // by design; "uninstrumented" means no trace sink installed and
        // no snapshot consumer — the disabled path the driver ships).
        let baselines: Vec<String> = [1, 3, 8]
            .iter()
            .map(|&t| run_outcome(&scenario, t))
            .collect();
        assert_eq!(
            baselines[0], baselines[1],
            "{name}: outcome differs across thread counts (1 vs 3)"
        );
        assert_eq!(
            baselines[0], baselines[2],
            "{name}: outcome differs across thread counts (1 vs 8)"
        );
        for (i, &threads) in [1usize, 3, 8].iter().enumerate() {
            bcbpt_core::obs::register_metrics();
            bcbpt_obs::install_trace();
            let instrumented = run_outcome(&scenario, threads);
            let spans = bcbpt_obs::take_trace();
            assert_eq!(
                instrumented, baselines[i],
                "{name}: instrumented run at {threads} thread(s) \
                 diverged from the uninstrumented outcome"
            );
            assert!(
                !spans.is_empty(),
                "{name}: tracing was armed but recorded no spans"
            );
        }
    }
}

/// The spans a campaign emits cover every phase of the runner: warmup,
/// the measuring window, per-run execution and the in-order fold.
#[test]
fn campaign_trace_covers_every_phase() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = Scenario::builtin("fig3").expect("builtin").quick_scaled();
    bcbpt_obs::install_trace();
    let _ = run_outcome(&scenario, 3);
    let spans = bcbpt_obs::take_trace();
    for phase in ["warmup", "measure", "run", "fold"] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "no {phase:?} span in {} recorded spans",
            spans.len()
        );
    }
    // And the Chrome-trace rendering of them is valid JSON with one
    // entry per span.
    let json = bcbpt_obs::chrome_trace_json(&spans);
    let value: serde::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let events = serde::map_get(value.as_map().expect("object"), "traceEvents")
        .as_seq()
        .expect("traceEvents is an array");
    assert_eq!(events.len(), spans.len());
}

/// A campaign actually moves the sim/runner metrics: events drain, runs
/// get timed, the fold parks at least zero runs. Snapshots round-trip
/// through JSON unchanged.
#[test]
fn campaign_metrics_flow_into_the_global_registry() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = Scenario::builtin("fig3").expect("builtin").quick_scaled();
    bcbpt_core::obs::register_metrics();
    let before = bcbpt_obs::global()
        .snapshot()
        .counter("bcbpt_sim_events_drained_total")
        .expect("registered");
    let _ = run_outcome(&scenario, 2);
    let snapshot = bcbpt_obs::global().snapshot();
    let drained = snapshot
        .counter("bcbpt_sim_events_drained_total")
        .expect("registered");
    assert!(
        drained > before,
        "a campaign drained no simulator events ({before} -> {drained})"
    );
    let runs = snapshot
        .histogram("bcbpt_runner_run_seconds")
        .expect("registered");
    assert!(runs.count > 0, "no per-run wall-clock samples recorded");
    assert_eq!(
        runs.count,
        runs.buckets.iter().sum::<u64>(),
        "per-bucket counts (including +Inf) must sum to the observation count"
    );

    let json = serde_json::to_string(&snapshot.to_value()).expect("snapshot serializes");
    let value: serde::Value = serde_json::from_str(&json).expect("snapshot JSON parses");
    let back = MetricsSnapshot::from_value(&value).expect("snapshot deserializes");
    assert_eq!(
        serde_json::to_string(&back.to_value()).expect("round-trip serializes"),
        json,
        "snapshot JSON round-trip drifted"
    );
}

/// Mining cells executed through the scenario executor feed the net byte
/// counters exactly once per cell: the same bytes the direct
/// `mining_campaign_in` reference adds for the same cells.
#[test]
fn mining_cells_feed_the_net_byte_counters_once_per_cell() {
    let _gate = TRACE_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = common::checked_in("relay");
    let Workload::Mining {
        block_interval_ms,
        duration_ms,
    } = scenario.workload
    else {
        panic!("relay.json is a mining scenario");
    };
    assert!(
        scenario.runs > 0,
        "replicated mining, the range-sharded mode"
    );
    bcbpt_core::obs::register_metrics();
    let net_bytes = || {
        let snapshot = bcbpt_obs::global().snapshot();
        let read = |name| snapshot.counter(name).expect("registered");
        (
            read("bcbpt_net_bytes_total"),
            read("bcbpt_net_redundant_bytes_total"),
        )
    };
    let before = net_bytes();
    run_shard(&scenario, ShardSpec::new(0, 1).unwrap()).expect("shard run");
    let after_shard = net_bytes();
    let registry = ProtocolRegistry::builtins();
    for cell in scenario.cells() {
        let cfg = scenario.cell_config(&cell);
        mining_campaign_in(
            &registry,
            &cfg,
            block_interval_ms,
            duration_ms,
            scenario.runs,
        )
        .expect("direct mining campaign");
    }
    let after_direct = net_bytes();
    let via_shard = (after_shard.0 - before.0, after_shard.1 - before.1);
    let direct = (
        after_direct.0 - after_shard.0,
        after_direct.1 - after_shard.1,
    );
    assert!(via_shard.0 > 0 && via_shard.1 > 0, "{via_shard:?}");
    assert_eq!(via_shard, direct);
}
