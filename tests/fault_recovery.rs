//! Integration coverage for the fault-tolerance story: panicking runs
//! retire as structured [`RunFailure`] data without killing the campaign,
//! a checkpointed shard killed mid-cell resumes byte-identically at any
//! thread count, the salvage merge quarantines corrupt parts and emits an
//! actionable repair plan, and property tests flip/truncate single bytes
//! of the on-disk formats to prove corruption is never silently merged.

mod common;

use bcbpt::experiments::{
    checkpoint_replay_events, fault, merge_shards, run_shard_in, run_shard_with, salvage_merge,
    Checkpoint, FaultPlan, PartialOutcome, PrefixEnvelope, Sealed, ShardRunOptions, ShardSpec,
    StopDecision, COORD_FORMAT_VERSION,
};
use bcbpt::{
    ExperimentConfig, Protocol, ProtocolRegistry, RunEvent, Scenario, ScenarioOutcome, StopRule,
    StreamingSummary, Workload,
};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// The fault injector is process-global, and every test here either arms
/// it or runs campaigns that would notice someone else's armed plan —
/// serialize the whole file.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Loads `scenarios/fig3.json` shrunk to integration-test scale: two
/// campaign cells, four runs, a small network.
fn tiny_scenario() -> Scenario {
    let mut scenario = common::checked_in("fig3");
    scenario.runs = 4;
    assert!(matches!(scenario.workload, Workload::TxFlood));
    scenario
}

/// Runs every shard of `scenario` at `count` shards, round-tripping each
/// part through its wire format.
fn shard_all(scenario: &Scenario, count: usize) -> Vec<PartialOutcome> {
    let registry = ProtocolRegistry::builtins();
    (0..count)
        .map(|i| {
            let part = run_shard_in(scenario, ShardSpec::new(i, count).unwrap(), &registry, 2)
                .unwrap_or_else(|e| panic!("shard {i}/{count}: {e}"));
            PartialOutcome::from_json(&part.to_json()).expect("part round trip")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tentpole 1: panic isolation
// ---------------------------------------------------------------------------

#[test]
fn a_panicking_run_retires_as_structured_data_at_any_thread_count() {
    let _lock = lock();
    let mut config = ExperimentConfig::quick(Protocol::Bitcoin);
    config.net.num_nodes = 50;
    config.runs = 6;
    config.warmup_ms = 800.0;
    config.window_ms = 8_000.0;

    let clean = config.run_with_threads(2).expect("clean campaign");
    assert!(clean.failures.is_empty());

    let mut serialized = Vec::new();
    for threads in [1usize, 3, 8] {
        let guard = fault::arm(FaultPlan::PanicAtRun { run_index: 2 });
        let failed = config
            .run_with_threads(threads)
            .expect("campaign completes despite the panicking run");
        drop(guard);

        assert_eq!(failed.failures.len(), 1, "exactly one run failed");
        assert_eq!(failed.failures[0].run_index, 2);
        assert!(
            failed.failures[0].payload.contains("injected fault"),
            "panic payload captured verbatim: {}",
            failed.failures[0].payload
        );
        // Every other run is byte-identical to the clean campaign's.
        let surviving: Vec<_> = clean.runs.iter().filter(|r| r.run_index != 2).collect();
        assert_eq!(failed.runs.iter().collect::<Vec<_>>(), surviving);
        serialized.push(format!("{failed:?}"));
    }
    assert!(
        serialized.windows(2).all(|w| w[0] == w[1]),
        "the failed campaign must be byte-identical at 1, 3 and 8 threads"
    );

    // The injector disarmed with the guard: the next campaign is clean.
    let after = config.run_with_threads(2).expect("clean again");
    assert_eq!(after, clean, "no fault state leaks past the guard");
}

// ---------------------------------------------------------------------------
// Tentpole 2: checkpoint / resume
// ---------------------------------------------------------------------------

/// Runs shard 0/2 of `scenario` with a collecting checkpoint sink,
/// returning the uninterrupted part and every checkpoint it sealed.
fn checkpointed_shard(scenario: &Scenario) -> (PartialOutcome, Vec<Checkpoint>) {
    let registry = ProtocolRegistry::builtins();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let mut sink = |c: &Checkpoint| -> Result<(), String> {
        checkpoints.push(c.clone());
        Ok(())
    };
    let part = run_shard_with(
        scenario,
        ShardSpec::new(0, 2).unwrap(),
        &registry,
        ShardRunOptions {
            threads: Some(2),
            checkpoint_every: 1,
            sink: Some(&mut sink),
            ..ShardRunOptions::default()
        },
    )
    .expect("checkpointed shard run");
    (part, checkpoints)
}

#[test]
fn a_resumed_shard_is_byte_identical_to_an_uninterrupted_one() {
    let _lock = lock();
    let scenario = tiny_scenario();
    let registry = ProtocolRegistry::builtins();
    let baseline = run_shard_in(&scenario, ShardSpec::new(0, 2).unwrap(), &registry, 2)
        .expect("uninterrupted shard");
    let (part, checkpoints) = checkpointed_shard(&scenario);
    assert_eq!(
        part.to_json(),
        baseline.to_json(),
        "checkpointing must not perturb the part"
    );
    assert!(
        checkpoints.iter().any(|c| c.current.is_some()),
        "mid-cell checkpoints were sealed"
    );
    assert!(
        checkpoints.iter().any(|c| c.current.is_none()),
        "cell-boundary checkpoints were sealed"
    );

    // Resume from every checkpoint — mid-cell and cell-boundary alike —
    // at several thread counts: the part must always come out
    // byte-identical to the uninterrupted run.
    for (i, checkpoint) in checkpoints.iter().enumerate() {
        checkpoint
            .verify_seal()
            .expect("sealed checkpoint verifies");
        for threads in [1usize, 3, 8] {
            let resumed = run_shard_with(
                &scenario,
                ShardSpec::new(0, 2).unwrap(),
                &registry,
                ShardRunOptions {
                    threads: Some(threads),
                    resume: Some(checkpoint.clone()),
                    ..ShardRunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("resume from checkpoint {i} at {threads} threads: {e}"));
            assert_eq!(
                resumed.to_json(),
                baseline.to_json(),
                "resume from checkpoint {i} at {threads} threads diverged"
            );
        }
    }
}

#[test]
fn a_resumed_adaptive_whole_shard_matches_an_uninterrupted_one() {
    // Shard 0/1 under a local stop rule: killed at any checkpoint and
    // resumed, it stops at the same run index, writes the same part and —
    // replayed prefix plus continuation — emits the same event stream as
    // the uninterrupted run. `VarianceStable` is the hard case: it is
    // stateful across evaluation points, so resume must re-prime it with
    // exactly the prefix checkpoints the killed run showed it.
    let _lock = lock();
    let registry = ProtocolRegistry::builtins();
    let whole = ShardSpec::new(0, 1).unwrap();
    for rule in [
        StopRule::CiHalfWidth {
            level: 0.95,
            rel_width: 0.5,
            min_runs: 3,
        },
        StopRule::VarianceStable {
            rel_tol: 0.2,
            min_runs: 4,
        },
    ] {
        let mut scenario = tiny_scenario();
        scenario.runs = 12;
        scenario.stop = Some(rule);
        let mut reference_events: Vec<RunEvent> = Vec::new();
        let mut observe = |event: &RunEvent| reference_events.push(event.clone());
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let mut sink = |c: &Checkpoint| -> Result<(), String> {
            checkpoints.push(c.clone());
            Ok(())
        };
        let baseline = run_shard_with(
            &scenario,
            whole,
            &registry,
            ShardRunOptions {
                threads: Some(2),
                sink: Some(&mut sink),
                observe: Some(&mut observe),
                ..ShardRunOptions::default()
            },
        )
        .expect("uninterrupted adaptive shard");
        let stops = baseline.cell_stop_indices();
        assert!(
            stops.iter().any(|s| s.is_some_and(|s| s > 2)),
            "{}: the rule must fire mid-budget, after a few folds: {stops:?}",
            rule.label()
        );
        assert_eq!(
            merge_shards(vec![baseline.clone()]).unwrap(),
            scenario.run().unwrap(),
            "{}: the 0/1 part merges to the direct run",
            rule.label()
        );
        for (i, checkpoint) in checkpoints.iter().enumerate() {
            for threads in [1usize, 3] {
                let mut events = checkpoint_replay_events(&scenario, checkpoint).unwrap();
                let mut observe = |event: &RunEvent| events.push(event.clone());
                let resumed = run_shard_with(
                    &scenario,
                    whole,
                    &registry,
                    ShardRunOptions {
                        threads: Some(threads),
                        resume: Some(checkpoint.clone()),
                        observe: Some(&mut observe),
                        ..ShardRunOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("resume from checkpoint {i}: {e}"));
                assert_eq!(
                    resumed.to_json(),
                    baseline.to_json(),
                    "{}: resume from checkpoint {i} at {threads} threads diverged",
                    rule.label()
                );
                assert_eq!(
                    events,
                    reference_events,
                    "{}: resumed stream from checkpoint {i} diverged",
                    rule.label()
                );
            }
        }
    }
}

#[test]
fn resume_rejects_checkpoints_that_do_not_match() {
    let _lock = lock();
    let scenario = tiny_scenario();
    let registry = ProtocolRegistry::builtins();
    let (_, checkpoints) = checkpointed_shard(&scenario);
    let checkpoint = checkpoints.first().expect("at least one checkpoint");

    // Tampered without resealing: the digest catches it.
    let mut torn = checkpoint.clone();
    torn.scenario_runs += 1;
    let err = run_shard_with(
        &scenario,
        ShardSpec::new(0, 2).unwrap(),
        &registry,
        ShardRunOptions {
            resume: Some(torn),
            ..ShardRunOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("digest"), "digest mismatch reported: {err}");

    // Tampered *and* resealed: the semantic cross-checks catch it.
    let mut forged = checkpoint.clone();
    forged.scenario_runs += 1;
    forged.seal();
    let err = run_shard_with(
        &scenario,
        ShardSpec::new(0, 2).unwrap(),
        &registry,
        ShardRunOptions {
            resume: Some(forged),
            ..ShardRunOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("runs"), "run-budget mismatch reported: {err}");

    // Wrong shard coordinate: refused, not silently re-planned.
    let err = run_shard_with(
        &scenario,
        ShardSpec::new(1, 2).unwrap(),
        &registry,
        ShardRunOptions {
            resume: Some(checkpoint.clone()),
            ..ShardRunOptions::default()
        },
    )
    .unwrap_err();
    assert!(!err.is_empty(), "mismatched coordinate rejected");
}

// ---------------------------------------------------------------------------
// Tentpole 3: salvageable merges
// ---------------------------------------------------------------------------

#[test]
fn salvage_quarantines_a_corrupt_part_and_its_repair_plan_completes_the_merge() {
    let _lock = lock();
    let scenario = tiny_scenario();
    let parts = shard_all(&scenario, 3);
    let reference = merge_shards(parts.clone()).expect("clean merge");

    // Corrupt the middle part: its sealed digest no longer matches.
    let mut corrupt = parts[1].clone();
    corrupt.scenario_runs = corrupt.scenario_runs.wrapping_add(7);
    let sources = vec![
        ("part-0.json".to_string(), Ok(parts[0].clone())),
        ("part-1.json".to_string(), Ok(corrupt)),
        ("part-2.json".to_string(), Ok(parts[2].clone())),
    ];
    let report = salvage_merge(sources, "tiny.json").expect("salvage runs");
    assert!(report.outcome.is_none(), "incomplete set yields no outcome");
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].source, "part-1.json");
    let repair = report.repair.expect("repair plan emitted");
    assert_eq!(repair.missing_shards, vec![1]);
    assert_eq!(repair.shard_count, 3);
    assert!(
        repair.commands[0].contains("--shard 1/3"),
        "repair command names the exact re-run: {}",
        repair.commands[0]
    );

    // A part that fails to even parse is quarantined the same way.
    let sources = vec![
        ("part-0.json".to_string(), Ok(parts[0].clone())),
        (
            "part-1.json".to_string(),
            Err("unexpected end of input".to_string()),
        ),
        ("part-2.json".to_string(), Ok(parts[2].clone())),
    ];
    let report = salvage_merge(sources, "tiny.json").expect("salvage runs");
    assert!(report.outcome.is_none());
    assert_eq!(report.repair.expect("repair plan").missing_shards, vec![1]);

    // Following the plan — re-running shard 1 — completes the merge, and
    // the result equals the batch reference exactly.
    let registry = ProtocolRegistry::builtins();
    let rerun = run_shard_in(&scenario, ShardSpec::new(1, 3).unwrap(), &registry, 2)
        .expect("repair re-run");
    let sources = vec![
        ("part-0.json".to_string(), Ok(parts[0].clone())),
        ("part-1.json".to_string(), Ok(rerun)),
        ("part-2.json".to_string(), Ok(parts[2].clone())),
    ];
    let report = salvage_merge(sources, "tiny.json").expect("salvage runs");
    assert!(report.quarantined.is_empty());
    let outcome = report.outcome.expect("complete set merges");
    assert_eq!(outcome.to_json(), reference.to_json());
}

#[test]
fn salvage_refuses_an_empty_or_fully_quarantined_set() {
    let _lock = lock();
    assert!(salvage_merge(Vec::new(), "tiny.json").is_err());
    let sources = vec![(
        "part-0.json".to_string(),
        Err::<PartialOutcome, _>("no such file".to_string()),
    )];
    let err = salvage_merge(sources, "tiny.json").unwrap_err();
    assert!(
        err.contains("no such file"),
        "quarantine reasons surface in the error: {err}"
    );
}

// ---------------------------------------------------------------------------
// Satellite: byte-flip / truncation properties on the wire formats
// ---------------------------------------------------------------------------

struct WireFixture {
    part0_json: String,
    part1_json: String,
    checkpoint_json: String,
    reference: ScenarioOutcome,
}

/// The campaign outputs the properties mutate — built once, behind the
/// fault lock of the calling test.
fn fixture() -> &'static WireFixture {
    static FIXTURE: OnceLock<WireFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = tiny_scenario();
        let parts = shard_all(&scenario, 2);
        let reference = merge_shards(parts.clone()).expect("clean merge");
        let (_, checkpoints) = checkpointed_shard(&scenario);
        let checkpoint = checkpoints
            .iter()
            .find(|c| c.current.is_some())
            .expect("mid-cell checkpoint");
        WireFixture {
            part0_json: parts[0].to_json(),
            part1_json: parts[1].to_json(),
            checkpoint_json: checkpoint.to_json(),
            reference,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single bit of a serialized part either fails the
    /// parse, fails the merge (digest or cross-check), or — when the flip
    /// lands in insignificant whitespace — merges to exactly the clean
    /// outcome. Corrupt data is never silently folded in.
    #[test]
    fn a_flipped_part_byte_never_silently_merges(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let _lock = lock();
        let fx = fixture();
        let mut bytes = fx.part0_json.clone().into_bytes();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        let Ok(text) = String::from_utf8(bytes) else { return; };
        let Ok(part) = PartialOutcome::from_json(&text) else { return; };
        let other = PartialOutcome::from_json(&fx.part1_json).expect("clean part");
        match merge_shards(vec![part, other]) {
            Err(_) => {}
            Ok(merged) => prop_assert_eq!(
                merged.to_json(),
                fx.reference.to_json(),
                "a merge that accepts the mutated part must equal the clean merge"
            ),
        }
    }

    /// Any proper prefix of a serialized part fails to parse — a torn
    /// write can never merge.
    #[test]
    fn a_truncated_part_never_parses(cut in 0usize..1_000_000) {
        let _lock = lock();
        let fx = fixture();
        let len = cut % fx.part0_json.len();
        prop_assert!(
            PartialOutcome::from_json(&fx.part0_json[..len]).is_err(),
            "truncation at byte {} parsed",
            len
        );
    }

    /// Flipping any single bit of a serialized checkpoint either fails
    /// the parse, fails `verify_seal()`, or is semantically the identical
    /// checkpoint (whitespace flip) — resume never continues from state
    /// that differs from what was sealed.
    #[test]
    fn a_flipped_checkpoint_byte_never_resumes_divergent_state(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let _lock = lock();
        let fx = fixture();
        let mut bytes = fx.checkpoint_json.clone().into_bytes();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        let Ok(text) = String::from_utf8(bytes) else { return; };
        let Ok(checkpoint) = Checkpoint::from_json(&text) else { return; };
        if checkpoint.verify_seal().is_ok() {
            let original = Checkpoint::from_json(&fx.checkpoint_json).expect("clean checkpoint");
            prop_assert_eq!(
                checkpoint,
                original,
                "a verifying mutation must be the identical checkpoint"
            );
        }
    }

    /// Any proper prefix of a serialized checkpoint fails to parse — the
    /// torn-write fast path.
    #[test]
    fn a_truncated_checkpoint_never_parses(cut in 0usize..1_000_000) {
        let _lock = lock();
        let fx = fixture();
        let len = cut % fx.checkpoint_json.len();
        prop_assert!(
            Checkpoint::from_json(&fx.checkpoint_json[..len]).is_err(),
            "truncation at byte {} parsed",
            len
        );
    }
}

// ---------------------------------------------------------------------------
// Satellite: the paired-slice and coordinator wire formats under the same
// byte-flip / truncation regime
// ---------------------------------------------------------------------------

/// Loads `scenarios/pingspoof.json` shrunk to integration-test scale: a
/// paired adversarial campaign whose parts carry clean *and* attacked
/// campaign slices.
fn tiny_paired_scenario() -> Scenario {
    let mut scenario = common::checked_in("pingspoof");
    scenario.net.num_nodes = 40;
    if let Workload::Adversarial { attackers, .. } = &mut scenario.workload {
        *attackers = (*attackers).clamp(1, 3);
    }
    assert!(matches!(scenario.workload, Workload::Adversarial { .. }));
    scenario
}

struct PairedFixture {
    part0_json: String,
    part1_json: String,
    reference: ScenarioOutcome,
}

/// Two paired-slice parts and their clean merge — built once, behind the
/// fault lock of the calling test.
fn paired_fixture() -> &'static PairedFixture {
    static FIXTURE: OnceLock<PairedFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = tiny_paired_scenario();
        let parts = shard_all(&scenario, 2);
        let reference = merge_shards(parts.clone()).expect("clean paired merge");
        PairedFixture {
            part0_json: parts[0].to_json(),
            part1_json: parts[1].to_json(),
            reference,
        }
    })
}

struct CoordFixture {
    envelope: PrefixEnvelope,
    envelope_json: String,
    decision: StopDecision,
    decision_json: String,
}

/// A sealed prefix envelope and stop decision for the tiny scenario, the
/// exact payloads `POST /coord/submit` and the decision routes exchange.
fn coord_fixture() -> &'static CoordFixture {
    static FIXTURE: OnceLock<CoordFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let digest = tiny_scenario().digest();
        let mut deltas = StreamingSummary::new();
        for i in 0..40 {
            deltas.record(10.0 + f64::from(i) * 0.25);
        }
        let mut run_means = StreamingSummary::new();
        for mean in [10.1, 10.4, 9.9] {
            run_means.record(mean);
        }
        let mut envelope = PrefixEnvelope {
            version: COORD_FORMAT_VERSION,
            scenario_digest: digest,
            cell_index: 0,
            shard_index: 0,
            shard_count: 2,
            upto: 3,
            deltas,
            run_means,
            measured_runs: 3,
            digest: 0,
        };
        envelope.seal();
        let mut decision = StopDecision {
            version: COORD_FORMAT_VERSION,
            scenario_digest: digest,
            cell_index: 0,
            stop_at: Some(2),
            rule: "ci(95%, ±5%, min 2)".to_string(),
            digest: 0,
        };
        decision.seal();
        let envelope_json = envelope.to_json();
        let decision_json = decision.to_json();
        CoordFixture {
            envelope,
            envelope_json,
            decision,
            decision_json,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flipping any single bit of a paired-slice part either fails the
    /// parse, fails the merge, or merges to exactly the clean paired
    /// outcome — a corrupt clean/attacked slice is never silently folded
    /// into an `AdversaryReport`.
    #[test]
    fn a_flipped_paired_part_byte_never_silently_merges(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let _lock = lock();
        let fx = paired_fixture();
        let mut bytes = fx.part0_json.clone().into_bytes();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        let Ok(text) = String::from_utf8(bytes) else { return; };
        let Ok(part) = PartialOutcome::from_json(&text) else { return; };
        let other = PartialOutcome::from_json(&fx.part1_json).expect("clean part");
        match merge_shards(vec![part, other]) {
            Err(_) => {}
            Ok(merged) => prop_assert_eq!(
                merged.to_json(),
                fx.reference.to_json(),
                "a merge that accepts the mutated paired part must equal the clean merge"
            ),
        }
    }

    /// Any proper prefix of a paired-slice part fails to parse.
    #[test]
    fn a_truncated_paired_part_never_parses(cut in 0usize..1_000_000) {
        let _lock = lock();
        let fx = paired_fixture();
        let len = cut % fx.part0_json.len();
        prop_assert!(
            PartialOutcome::from_json(&fx.part0_json[..len]).is_err(),
            "truncation at byte {} parsed",
            len
        );
    }

    /// Flipping any single bit of a prefix envelope either fails the
    /// parse, fails `verify_seal()`, or is the bit-identical envelope — a
    /// coordinator never folds accumulator state that differs from what
    /// the shard sealed.
    #[test]
    fn a_flipped_prefix_envelope_byte_never_verifies_divergent(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let fx = coord_fixture();
        let mut bytes = fx.envelope_json.clone().into_bytes();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        let Ok(text) = String::from_utf8(bytes) else { return; };
        let Ok(envelope) = PrefixEnvelope::from_json(&text) else { return; };
        if envelope.verify_seal().is_ok() {
            prop_assert_eq!(
                &envelope,
                &fx.envelope,
                "a verifying mutation must be the identical envelope"
            );
        }
    }

    /// Any proper prefix of a prefix envelope fails to parse — a torn
    /// submit body is rejected before it reaches the fold.
    #[test]
    fn a_truncated_prefix_envelope_never_parses(cut in 0usize..1_000_000) {
        let fx = coord_fixture();
        let len = cut % fx.envelope_json.len();
        prop_assert!(
            PrefixEnvelope::from_json(&fx.envelope_json[..len]).is_err(),
            "truncation at byte {} parsed",
            len
        );
    }

    /// Flipping any single bit of a stop decision either fails the parse,
    /// fails `verify_seal()`, or is the bit-identical decision — a shard
    /// never truncates its run range on a corrupted broadcast.
    #[test]
    fn a_flipped_stop_decision_byte_never_verifies_divergent(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let fx = coord_fixture();
        let mut bytes = fx.decision_json.clone().into_bytes();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        let Ok(text) = String::from_utf8(bytes) else { return; };
        let Ok(decision) = StopDecision::from_json(&text) else { return; };
        if decision.verify_seal().is_ok() {
            prop_assert_eq!(
                &decision,
                &fx.decision,
                "a verifying mutation must be the identical decision"
            );
        }
    }
}
