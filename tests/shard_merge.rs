//! Integration coverage for cross-host campaign sharding: for every
//! checked-in scenario, executing the run range as 2 or 5 independent
//! shards and merging the serialized parts reproduces the unsharded
//! outcome byte-for-byte — and a scenario that declares an adaptive stop
//! rule runs as the single shard 0/1 but is rejected with a clear error
//! as one shard of several unless pointed at a coordinator, instead of
//! silently diverging (the coordinated path is pinned by
//! `tests/shard_everything.rs`).

mod common;

use bcbpt::experiments::{merge_shards, run_shard, PartialOutcome, ShardSpec};
use bcbpt::{Scenario, StopRule};
use common::checked_in;

/// Executes every shard of `scenario` and round-trips each part through
/// its JSON wire format — the merge must consume exactly what
/// `scenario shard run --out` writes.
fn shard_all(scenario: &Scenario, count: usize) -> Vec<PartialOutcome> {
    (0..count)
        .map(|i| {
            let part = run_shard(scenario, ShardSpec::new(i, count).unwrap())
                .unwrap_or_else(|e| panic!("{} shard {i}/{count}: {e}", scenario.name));
            PartialOutcome::from_json(&part.to_json())
                .unwrap_or_else(|e| panic!("{} shard {i}/{count} round trip: {e}", scenario.name))
        })
        .collect()
}

#[test]
fn sharded_execution_matches_the_batch_reference_on_every_checked_in_scenario() {
    for name in Scenario::builtin_names() {
        let mut scenario = checked_in(name);
        if scenario.stop.as_ref().is_some_and(StopRule::is_adaptive) {
            // Covered by adaptive_stop_scenarios_are_rejected; the
            // equivalence claim below is for the full-budget semantics,
            // which ignore the stop rule — so strip it.
            scenario.stop = None;
        }
        let batch = scenario
            .run_batch()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for count in [2usize, 5] {
            let parts = shard_all(&scenario, count);
            let merged =
                merge_shards(parts).unwrap_or_else(|e| panic!("{name} at {count} shard(s): {e}"));
            assert_eq!(
                merged, batch,
                "{name}: {count} shard(s) merged differently from the batch reference"
            );
            assert_eq!(
                merged.to_json(),
                batch.to_json(),
                "{name}: {count}-shard merge serialized differently"
            );
        }
    }
}

#[test]
fn merged_statistics_accessors_match_the_batch_recompute_bitwise() {
    // The merged outcome's cached accessors go through the same lazy path
    // as a deserialized batch outcome; the pooled summary and ECDF must be
    // bit-identical — i.e. the shard boundaries never reorder samples.
    let scenario = checked_in("fig3");
    let batch = scenario.run_batch().unwrap();
    let merged = merge_shards(shard_all(&scenario, 2)).unwrap();
    for (cell_merged, cell_batch) in merged.cells.iter().zip(&batch.cells) {
        assert_eq!(cell_merged.delta_summary(), cell_batch.delta_summary());
        assert_eq!(cell_merged.delta_ecdf(), cell_batch.delta_ecdf());
    }
    assert_eq!(merged.delta_summary(), batch.delta_summary());
}

#[test]
fn adaptive_stop_scenarios_are_rejected_with_a_clear_error() {
    // scenarios/sweep.json declares a CiHalfWidth budget — the checked-in
    // witness that one shard of several refuses an adaptive stop rule.
    let scenario = checked_in("sweep");
    assert!(
        scenario.stop.as_ref().is_some_and(StopRule::is_adaptive),
        "sweep.json must keep declaring an adaptive stop rule for this test"
    );
    let err = run_shard(&scenario, ShardSpec::new(0, 2).unwrap()).unwrap_err();
    for needle in ["adaptive", "stop", "shard"] {
        assert!(
            err.contains(needle),
            "error should mention {needle:?}: {err}"
        );
    }
    // Shard 0/1 sees every run, evaluates the rule itself, and its part
    // merges to exactly what the unsharded run returns.
    let whole = run_shard(&scenario, ShardSpec::new(0, 1).unwrap()).unwrap();
    let part = PartialOutcome::from_json(&whole.to_json()).unwrap();
    assert_eq!(
        merge_shards(vec![part]).unwrap().to_json(),
        scenario.run().unwrap().to_json()
    );
}

#[test]
fn adversarial_scenarios_range_shard_instead_of_deferring() {
    // Paired adversarial campaigns used to be indivisible (shard 0 ran
    // them whole, later shards deferred). They now range-shard like every
    // other family: each shard runs its slice of the clean and attacked
    // campaigns, reports real work, and the merge still reproduces the
    // batch outcome exactly.
    let scenario = checked_in("pingspoof");
    let batch = scenario.run_batch().unwrap();
    let parts = shard_all(&scenario, 2);
    for (i, part) in parts.iter().enumerate() {
        assert!(
            part.runs_used() > 0,
            "shard {i} deferred instead of running its paired slice"
        );
    }
    let merged = merge_shards(parts).unwrap();
    assert_eq!(merged, batch);
}
