//! The determinism contract for "shard every workload": every workload
//! family — streaming campaigns, paired adversarial campaigns, mining
//! fork campaigns, and the replicated single-shot tables — executes as
//! 1, 2 or 5 independent shards at 1, 3 or 8 worker threads and merges
//! back byte-identical to the unsharded batch run; and a coordinated
//! adaptive stop truncates the sharded campaign to exactly the
//! `FixedRuns` prefix `0..S` of the full run stream, with the same `S`
//! at every thread count.

mod common;

use bcbpt::experiments::{
    merge_shards, run_shard_in, run_shard_with, CellShard, LocalCoordinator, PartialOutcome,
    ShardRunOptions, ShardSpec, StopCoordinator,
};
use bcbpt::{ProtocolRegistry, RunEvent, Scenario, StopRule};
use common::checked_in;
use proptest::prelude::*;
use std::sync::Arc;

/// Executes every shard of `scenario` at an explicit thread count,
/// round-tripping each part through its JSON wire format exactly like
/// `scenario shard run --out` + `shard merge` would.
fn shard_all(scenario: &Scenario, count: usize, threads: usize) -> Vec<PartialOutcome> {
    let registry = ProtocolRegistry::builtins();
    (0..count)
        .map(|i| {
            let part = run_shard_in(
                scenario,
                ShardSpec::new(i, count).unwrap(),
                &registry,
                threads,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "{} shard {i}/{count} at {threads} threads: {e}",
                    scenario.name
                )
            });
            PartialOutcome::from_json(&part.to_json())
                .unwrap_or_else(|e| panic!("{} shard {i}/{count} round trip: {e}", scenario.name))
        })
        .collect()
}

/// One representative checked-in scenario per workload family that used
/// to be "indivisible" (executed whole on shard 0): paired adversarial
/// campaigns (two strategies — they exercise different attacker state),
/// range-sharded mining, and the replicated single-shot tables.
const FAMILIES: &[&str] = &["pingspoof", "withhold", "forks", "partition", "eclipse"];

#[test]
fn every_workload_family_merges_byte_identically_at_any_shard_and_thread_count() {
    for name in FAMILIES {
        let scenario = checked_in(name);
        let batch = scenario
            .run_batch()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Every (count, threads) pairing merges to the same batch
        // reference, so equality across the pairs proves both shard- and
        // thread-invariance without paying for the full cross product.
        for (count, threads) in [(1usize, 3usize), (2, 8), (5, 1)] {
            let parts = shard_all(&scenario, count, threads);
            let merged = merge_shards(parts)
                .unwrap_or_else(|e| panic!("{name} at {count} shard(s), {threads} thread(s): {e}"));
            assert_eq!(
                merged, batch,
                "{name}: {count} shard(s) at {threads} thread(s) merged differently from batch"
            );
            assert_eq!(
                merged.to_json(),
                batch.to_json(),
                "{name}: {count} shard(s) at {threads} thread(s) serialized differently"
            );
        }
    }
}

/// A tiny streaming campaign with a deliberately loose adaptive rule:
/// two quiet run means satisfy a ±90% confidence interval, so a
/// coordinated fleet stops well inside the budget and the strict-prefix
/// property is actually exercised.
fn adaptive_scenario() -> Scenario {
    let mut scenario = checked_in("fig3");
    scenario.runs = 6;
    scenario.stop = Some(StopRule::CiHalfWidth {
        level: 0.95,
        rel_width: 0.9,
        min_runs: 2,
    });
    scenario
}

/// Runs a coordinated `shards`-way fleet of `scenario` concurrently (the
/// shards block on each other's prefix envelopes, so they must overlap in
/// time) and returns the merged outcome plus the coordinator's per-cell
/// stop indices.
fn coordinated_fleet(
    scenario: &Scenario,
    shards: usize,
    cadence: usize,
    threads: usize,
) -> (bcbpt::ScenarioOutcome, Vec<Option<usize>>) {
    let registry = ProtocolRegistry::builtins();
    let coordinator =
        Arc::new(LocalCoordinator::new(scenario, shards, cadence).expect("coordinator constructs"));
    let parts: Vec<PartialOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                let coordinator = Arc::clone(&coordinator);
                let registry = &registry;
                scope.spawn(move || {
                    run_shard_with(
                        scenario,
                        ShardSpec::new(i, shards).unwrap(),
                        registry,
                        ShardRunOptions {
                            threads: Some(threads),
                            coordinator: Some(&*coordinator as &dyn StopCoordinator),
                            ..ShardRunOptions::default()
                        },
                    )
                    .unwrap_or_else(|e| panic!("coordinated shard {i}/{shards}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let part = h.join().expect("shard thread");
                PartialOutcome::from_json(&part.to_json()).expect("part round trip")
            })
            .collect()
    });
    let stops: Vec<Option<usize>> = coordinator
        .decisions()
        .into_iter()
        .map(|d| d.expect("every cell decided").stop_at)
        .collect();
    let merged = merge_shards(parts).expect("coordinated merge");
    (merged, stops)
}

#[test]
fn a_coordinated_stop_is_a_deterministic_strict_prefix_of_the_budget() {
    let scenario = adaptive_scenario();
    let mut reference_stops: Option<Vec<Option<usize>>> = None;
    let mut reference_json: Option<String> = None;
    for threads in [1usize, 3, 8] {
        let (merged, stops) = coordinated_fleet(&scenario, 2, 1, threads);
        // The loose rule must actually fire inside the budget on every
        // cell, or this test is not exercising truncation at all.
        for (cell, stop) in stops.iter().enumerate() {
            let s = stop.unwrap_or_else(|| {
                panic!("cell {cell}: the loose ±90% rule did not fire inside the budget")
            });
            assert!(
                0 < s && s < scenario.runs,
                "cell {cell}: stop {s} not a strict prefix"
            );
        }
        // Thread-count invariance: same stop indices, same bytes.
        match (&reference_stops, &reference_json) {
            (None, _) => {
                reference_stops = Some(stops.clone());
                reference_json = Some(merged.to_json());
            }
            (Some(expected_stops), Some(expected_json)) => {
                assert_eq!(
                    &stops, expected_stops,
                    "{threads} threads changed the stop indices"
                );
                assert_eq!(
                    &merged.to_json(),
                    expected_json,
                    "{threads} threads changed the merged bytes"
                );
            }
            _ => unreachable!(),
        }
        // The strict-prefix contract: each cell of the merged coordinated
        // outcome is byte-identical to the same cell of a plain batch run
        // with `runs = S_cell` and no stop rule — the coordinator only
        // truncated the run stream, it never changed a folded byte. Cells
        // stop at different indices (their run streams differ), so each
        // gets its own `FixedRuns` reference batch.
        for (cell, stop) in stops.iter().enumerate() {
            let mut prefix = scenario.clone();
            prefix.runs = stop.expect("checked above");
            prefix.stop = None;
            let reference = prefix.run_batch().expect("prefix reference");
            assert_eq!(
                serde_json::to_string(&merged.cells[cell]).unwrap(),
                serde_json::to_string(&reference.cells[cell]).unwrap(),
                "cell {cell}: coordinated outcome is not the FixedRuns prefix at S={stop:?}"
            );
        }
    }
}

#[test]
fn the_coordinated_stop_index_is_recorded_in_every_part() {
    let scenario = adaptive_scenario();
    let registry = ProtocolRegistry::builtins();
    let coordinator =
        Arc::new(LocalCoordinator::new(&scenario, 2, 1).expect("coordinator constructs"));
    let scenario_ref = &scenario;
    let observed: Vec<(PartialOutcome, Vec<RunEvent>)> = std::thread::scope(|scope| {
        (0..2)
            .map(|i| {
                let coordinator = Arc::clone(&coordinator);
                let registry = &registry;
                scope.spawn(move || {
                    let mut events = Vec::new();
                    let mut observe = |event: &RunEvent| events.push(event.clone());
                    let part = run_shard_with(
                        scenario_ref,
                        ShardSpec::new(i, 2).unwrap(),
                        registry,
                        ShardRunOptions {
                            threads: Some(2),
                            observe: Some(&mut observe),
                            coordinator: Some(&*coordinator as &dyn StopCoordinator),
                            ..ShardRunOptions::default()
                        },
                    )
                    .expect("coordinated shard");
                    (part, events)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("shard thread"))
            .collect()
    });
    // A stopped cell's closing event reports the prefix its slice kept,
    // never `stopped_early` next to the full budget.
    for (i, (part, events)) in observed.iter().enumerate() {
        let closings = events.iter().filter_map(|event| match event {
            RunEvent::CellCompleted {
                cell,
                runs_used,
                stopped_early,
                ..
            } => Some((*cell, *runs_used, *stopped_early)),
            _ => None,
        });
        for (cell, runs_used, stopped_early) in closings {
            let CellShard::Campaign { slice } = &part.cells[cell].part else {
                panic!("streaming cell carries a campaign part");
            };
            assert!(stopped_early, "shard {i} cell {cell}: the rule fired");
            let stop = slice.stop_at.expect("a stopped slice records the index");
            let kept = stop.clamp(part.plan.run_start, part.plan.run_end) - part.plan.run_start;
            assert_eq!(runs_used, kept, "shard {i} cell {cell}");
            assert!(runs_used < scenario.runs, "shard {i} cell {cell}");
        }
    }
    let parts: Vec<PartialOutcome> = observed.into_iter().map(|(part, _)| part).collect();
    let stops: Vec<Option<usize>> = coordinator
        .decisions()
        .into_iter()
        .map(|d| d.expect("decided").stop_at)
        .collect();
    assert!(stops.iter().all(Option::is_some), "rule fired: {stops:?}");
    for (i, part) in parts.iter().enumerate() {
        assert_eq!(
            part.cell_stop_indices(),
            stops,
            "shard {i} recorded different stop indices than the coordinator broadcast"
        );
    }
    // `runs_saved` is the fleet-wide budget the early stops returned.
    let saved: usize = stops.iter().flatten().map(|s| scenario.runs - s).sum();
    assert_eq!(coordinator.runs_saved(), saved);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The paired-accumulator merge law: an adversarial campaign split at
    /// *arbitrary* shard boundaries (any fleet size up to one shard per
    /// run, at any thread count) reassembles the clean and attacked
    /// accumulator pairs into exactly the batch `AdversaryReport`.
    #[test]
    fn paired_slices_reassemble_identically_at_arbitrary_boundaries(
        shards in 1usize..=6,
        threads in 1usize..=3,
    ) {
        let mut scenario = checked_in("pingspoof");
        scenario.net.num_nodes = 40;
        let batch = scenario.run_batch().expect("batch reference");
        let parts = shard_all(&scenario, shards, threads);
        let merged = merge_shards(parts).expect("paired merge");
        prop_assert_eq!(
            merged.to_json(),
            batch.to_json(),
            "{} shard(s) at {} thread(s) broke the paired merge law",
            shards,
            threads
        );
    }
}
