//! Integration coverage for the session API: the `--quick` outcome of
//! every checked-in scenario and the fig3 event streams are pinned to the
//! bytes recorded before `run`, `run_batch` and sessions became shard 0/1
//! of the one executor; adaptive stopping is thread-count invariant; and a
//! `CiHalfWidth` budget on the fig3 quick scenario saves a large share of
//! the measuring runs without moving the reported mean outside the
//! full-budget confidence interval.

mod common;

use bcbpt::{RunEvent, Scenario, StopRule};
use common::{checked_in, checked_in_quick, fnv1a64};
use std::sync::{Arc, Mutex};

/// FNV-1a of `scenario run <name> --quick --json` (without the trailing
/// newline), recorded at commit 85ebb93 — the last one with three cell
/// drivers — and `cmp`-checked against that commit's binary.
const QUICK_OUTCOME_PINS: &[(&str, u64)] = &[
    ("fig3", 0x25d2_3fb1_6636_301d),
    ("fig4", 0x8859_dcc3_9bed_2351),
    ("sweep", 0x20c6_1d77_d978_c793),
    ("forks", 0x008a_fe42_2089_89bb),
    ("eclipse", 0xcf58_2e60_5f87_9e25),
    ("partition", 0x10aa_e024_4314_ab6d),
    ("overhead", 0xe8ef_77c9_293c_2a1f),
    ("churn", 0x811e_83c8_efda_0318),
    ("pingspoof", 0x2ea4_ed12_1e68_bf95),
    ("withhold", 0x6ca3_b37b_6d2a_8a0f),
    ("relay", 0x4b48_bfff_6624_fa58),
];

/// FNV-1a of `scenario run fig3 --quick --jsonl <path>` at the same
/// commit: the whole budget, and under what `--stop-ci 0.1` installs (it
/// fires inside the quick budget, so the local stop index is pinned too).
const FIG3_STREAM_PINS: &[(StopRule, u64)] = &[
    (StopRule::FixedRuns, 0x25bf_0dcd_0adc_c375),
    (
        StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.1,
            min_runs: 2,
        },
        0x1bca_665b_6a98_1b9a,
    ),
];

#[test]
fn checked_in_outcomes_and_fig3_streams_are_pinned() {
    assert_eq!(
        QUICK_OUTCOME_PINS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>(),
        Scenario::builtin_names(),
        "one pin per checked-in scenario"
    );
    for (name, pinned) in QUICK_OUTCOME_PINS {
        let outcome = checked_in_quick(name)
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let digest = fnv1a64(outcome.to_json().as_bytes());
        assert_eq!(
            digest, *pinned,
            "{name}: outcome digest {digest:#018x} differs from the pinned {pinned:#018x}"
        );
    }
    let fig3 = checked_in_quick("fig3");
    for (rule, pinned) in FIG3_STREAM_PINS {
        let jsonl = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&jsonl);
        fig3.session()
            .with_stop_rule(*rule)
            .observe_fn(move |event: &RunEvent| {
                let mut text = sink.lock().unwrap();
                text.push_str(&serde_json::to_string(event).unwrap());
                text.push('\n');
            })
            .block()
            .unwrap();
        let digest = fnv1a64(jsonl.lock().unwrap().as_bytes());
        assert_eq!(
            digest,
            *pinned,
            "fig3 under {}: stream digest {digest:#018x} differs from the pinned {pinned:#018x}",
            rule.label()
        );
    }
}

#[test]
fn ci_half_width_early_stop_is_identical_at_1_3_and_8_threads() {
    let mut scenario = checked_in("fig3");
    scenario.runs = 20;
    let rule = StopRule::CiHalfWidth {
        level: 0.95,
        rel_width: 0.2,
        min_runs: 3,
    };
    let reference = scenario
        .session()
        .with_stop_rule(rule)
        .with_threads(1)
        .block()
        .unwrap();
    let stopped_early = reference
        .cells
        .iter()
        .any(|cell| cell.campaign().unwrap().runs.len() < 20);
    assert!(
        stopped_early,
        "the rule must fire before the 20-run ceiling"
    );
    for threads in [3usize, 8] {
        let pooled = scenario
            .session()
            .with_stop_rule(rule)
            .with_threads(threads)
            .block()
            .unwrap();
        assert_eq!(
            pooled, reference,
            "CiHalfWidth early stop diverged at {threads} threads"
        );
    }
}

#[test]
fn adaptive_fig3_quick_saves_runs_and_keeps_the_mean_inside_the_full_ci() {
    // The acceptance experiment: the fig3 quick scenario with a full
    // budget vs a CiHalfWidth { rel_width: 0.1 } session. The adaptive
    // run must consume >= 30 % fewer measuring runs while each cell's
    // reported mean stays inside the full-budget confidence interval.
    //
    // The interval is the run-level one (`CampaignResult::run_mean_ci`):
    // runs are the paper's independent replicates, and it is the exact
    // statistic the stop rule targets. The pooled per-sample bootstrap
    // (`delta_mean_ci`) treats correlated within-run samples as i.i.d.
    // and is too narrow to be a fair accuracy gate for *any* subsample.
    let mut scenario = Scenario::builtin("fig3").unwrap().quick_scaled();
    scenario.net.num_nodes = 80;
    scenario.warmup_ms = 1_000.0;
    scenario.window_ms = 5_000.0;
    scenario.runs = 100;
    let full = scenario.run_batch().unwrap();
    let adaptive = scenario
        .session()
        .with_stop_rule(StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.1,
            min_runs: 8,
        })
        .block()
        .unwrap();

    let runs_of = |outcome: &bcbpt::ScenarioOutcome| -> usize {
        outcome
            .cells
            .iter()
            .map(|cell| cell.campaign().unwrap().runs.len())
            .sum()
    };
    let full_runs = runs_of(&full);
    let adaptive_runs = runs_of(&adaptive);
    for cell in &adaptive.cells {
        eprintln!(
            "cell {}: {} of {} runs",
            cell.label,
            cell.campaign().unwrap().runs.len(),
            scenario.runs
        );
    }
    assert!(
        adaptive_runs as f64 <= 0.7 * full_runs as f64,
        "adaptive stopping must save >= 30% of the measuring runs, \
         used {adaptive_runs} of {full_runs}"
    );

    for (early, late) in adaptive.cells.iter().zip(&full.cells) {
        let ci = late
            .campaign()
            .unwrap()
            .run_mean_ci(0.95)
            .expect("full-budget campaign has measuring runs");
        let mean = early.delta_summary().unwrap().mean();
        assert!(
            ci.contains(mean),
            "{}: early-stopped mean {mean} outside the full-budget CI [{}, {}]",
            early.label,
            ci.lo,
            ci.hi
        );
        // The early-stopped campaign is a strict prefix of the full one.
        let early_runs = &early.campaign().unwrap().runs;
        assert_eq!(
            &late.campaign().unwrap().runs[..early_runs.len()],
            &early_runs[..],
            "{}: stopping truncates, never changes, the run stream",
            early.label
        );
    }
}

#[test]
fn session_event_stream_reaches_observers_for_a_checked_in_scenario() {
    let scenario = checked_in("fig3");
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let outcome = scenario
        .session()
        .observe_fn(move |event: &RunEvent| sink.lock().unwrap().push(event.clone()))
        .block()
        .unwrap();
    let events = events.lock().unwrap();
    assert_eq!(
        events.iter().filter(|e| e.kind() == "cell_started").count(),
        outcome.cells.len()
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind() == "run_completed")
            .count(),
        scenario.runs * outcome.cells.len(),
        "FixedRuns folds every planned run"
    );
    assert_eq!(
        events.last().map(RunEvent::kind),
        Some("scenario_completed")
    );
}
