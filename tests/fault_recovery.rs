//! Integration coverage for the fault-tolerance story: panicking runs
//! retire as structured [`RunFailure`] data without killing the campaign,
//! a checkpointed shard killed mid-cell resumes byte-identically at any
//! thread count — from any record of its journal, from a journal torn at
//! any byte, and again after a second kill — the salvage merge quarantines
//! corrupt parts and emits an actionable repair plan, and property tests
//! flip/truncate single bytes of the on-disk formats to prove corruption
//! is never silently merged or resumed.

mod common;

use bcbpt::experiments::{
    checkpoint_replay_events, fault, merge_shards, run_shard_in, run_shard_with, salvage_merge,
    CellShard, Checkpoint, CheckpointBody, FaultPlan, Journal, LocalCoordinator, PartialOutcome,
    PrefixEnvelope, Sealed, ShardRunOptions, ShardSpec, StopCoordinator, StopDecision,
    COORD_FORMAT_VERSION,
};
use bcbpt::{
    ExperimentConfig, Protocol, ProtocolRegistry, RunEvent, Scenario, ScenarioOutcome, StopRule,
    StreamingSummary, Workload,
};
use bcbpt_serve::JournalFile;
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
/// returning the uninterrupted part and every journal record it sealed.
fn checkpointed_shard(scenario: &Scenario) -> (PartialOutcome, Vec<Checkpoint>) {
    checkpointed(scenario, ShardSpec::new(0, 2).unwrap(), 1)
}

/// [`checkpointed_shard`] for any shard and `checkpoint_every`.
fn checkpointed(
    scenario: &Scenario,
    spec: ShardSpec,
    checkpoint_every: usize,
) -> (PartialOutcome, Vec<Checkpoint>) {
    let registry = ProtocolRegistry::builtins();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let mut sink = |c: &Checkpoint| -> Result<(), String> {
        checkpoints.push(c.clone());
        Ok(())
    };
    let part = run_shard_with(
        scenario,
        spec,
        &registry,
        ShardRunOptions {
            threads: Some(2),
            checkpoint_every,
            sink: Some(&mut sink),
            ..ShardRunOptions::default()
        },
    )
    .expect("checkpointed shard run");
    (part, checkpoints)
}

/// The journal file `records` make: one line each.
fn journal_bytes(records: &[Checkpoint]) -> Vec<u8> {
    let lines = records.iter().map(|r| format!("{}\n", r.to_json()));
    lines.collect::<String>().into_bytes()
}

/// What a shard killed right after persisting `records` resumes from.
fn journal_of(records: &[Checkpoint]) -> Journal {
    Journal::read(&journal_bytes(records)).expect("a journal prefix reads")
}

/// Resumes `spec` of `scenario` from `journal` and returns the part.
fn resumed(scenario: &Scenario, spec: ShardSpec, journal: Journal, threads: usize) -> String {
    run_shard_with(
        scenario,
        spec,
        &ProtocolRegistry::builtins(),
        ShardRunOptions {
            threads: Some(threads),
            resume: Some(journal),
            ..ShardRunOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("resume at {threads} threads: {e}"))
    .to_json()
}

#[test]
fn a_resumed_shard_is_byte_identical_to_an_uninterrupted_one() {
    let _lock = lock();
    let scenario = tiny_scenario();
    let registry = ProtocolRegistry::builtins();
    let spec = ShardSpec::new(0, 2).unwrap();
    let baseline = run_shard_in(&scenario, spec, &registry, 2).expect("uninterrupted shard");
    let (part, checkpoints) = checkpointed_shard(&scenario);
    assert_eq!(
        part.to_json(),
        baseline.to_json(),
        "checkpointing must not perturb the part"
    );
    for (what, found) in [
        (
            "mid-cell",
            checkpoints
                .iter()
                .any(|c| matches!(c.body, CheckpointBody::Folds { .. })),
        ),
        (
            "cell-boundary",
            checkpoints
                .iter()
                .any(|c| matches!(c.body, CheckpointBody::CellDone { .. })),
        ),
    ] {
        assert!(found, "{what} records were sealed");
    }

    // Killed after any record — header, mid-cell and cell-boundary alike —
    // and resumed at several thread counts: the part must always come out
    // byte-identical to the uninterrupted run.
    for (i, checkpoint) in checkpoints.iter().enumerate() {
        checkpoint
            .verify_seal()
            .expect("sealed checkpoint verifies");
        for threads in [1usize, 3, 8] {
            assert_eq!(
                resumed(&scenario, spec, journal_of(&checkpoints[..=i]), threads),
                baseline.to_json(),
                "resume from record {i} at {threads} threads diverged"
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
        for i in 0..checkpoints.len() {
            for threads in [1usize, 3] {
                let journal = journal_of(&checkpoints[..=i]);
                let mut events = checkpoint_replay_events(&scenario, &journal).unwrap();
                let mut observe = |event: &RunEvent| events.push(event.clone());
                let resumed = run_shard_with(
                    &scenario,
                    whole,
                    &registry,
                    ShardRunOptions {
                        threads: Some(threads),
                        resume: Some(journal),
                        observe: Some(&mut observe),
                        ..ShardRunOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("resume from record {i}: {e}"));
                assert_eq!(
                    resumed.to_json(),
                    baseline.to_json(),
                    "{}: resume from record {i} at {threads} threads diverged",
                    rule.label()
                );
                assert_eq!(
                    events,
                    reference_events,
                    "{}: resumed stream from record {i} diverged",
                    rule.label()
                );
            }
        }
    }
}

/// Runs a coordinated two-shard fleet of `scenario` (cadence 2), shard 0
/// resuming from `resume` if given. The coordinator is fresh but for the
/// decisions of the cells `resume` has finished — a decided cell stays
/// decided when a shard dies. Returns both parts and the records shard
/// 0's sink saw.
fn coordinated_fleet(
    scenario: &Scenario,
    resume: Option<Journal>,
) -> ([String; 2], Vec<Checkpoint>) {
    let registry = ProtocolRegistry::builtins();
    let coordinator = LocalCoordinator::new(scenario, 2, 2).expect("coordinator");
    for (cell, done) in resume.iter().flat_map(|j| j.cells_done.iter().enumerate()) {
        let CellShard::Campaign { slice } = &done.part else {
            panic!("a streaming cell");
        };
        coordinator.preset(cell, slice.stop_at).expect("preset");
    }
    let mut records: Vec<Checkpoint> = Vec::new();
    let mut sink = |c: &Checkpoint| -> Result<(), String> {
        records.push(c.clone());
        Ok(())
    };
    let shard = |index: usize, resume, sink| {
        let options = ShardRunOptions {
            threads: Some(1),
            resume,
            sink,
            coordinator: Some(&coordinator as &dyn StopCoordinator),
            ..ShardRunOptions::default()
        };
        run_shard_with(
            scenario,
            ShardSpec::new(index, 2).unwrap(),
            &registry,
            options,
        )
        .unwrap_or_else(|e| panic!("coordinated shard {index}: {e}"))
        .to_json()
    };
    // The shards wait on each other's envelopes: side by side.
    let parts = std::thread::scope(|scope| {
        let second = scope.spawn(|| shard(1, None, None));
        let first = shard(0, resume, Some(&mut sink));
        [first, second.join().expect("shard 1 thread")]
    });
    (parts, records)
}

#[test]
fn a_resumed_coordinated_shard_truncates_to_the_same_stop() {
    // A coordinated shard freezes its window traffic at every cadence
    // boundary it crosses, so that a stop decision can cut there; the
    // journal carries each frozen value once, in the record of the fold
    // that crossed it. Kill shard 0 after any record and restart the
    // fleet: it resubmits the envelopes of the cell it was in, both shards
    // reach the same decision, and both parts match.
    let _lock = lock();
    let mut scenario = tiny_scenario();
    scenario.runs = 16;
    scenario.stop = Some(StopRule::CiHalfWidth {
        level: 0.95,
        rel_width: 0.6,
        min_runs: 4,
    });
    let (baseline, records) = coordinated_fleet(&scenario, None);
    let first = PartialOutcome::from_json(&baseline[0]).expect("part 0");
    let stops = first.cell_stop_indices();
    assert!(
        stops.iter().any(|s| s.is_some_and(|s| s < 16)),
        "the fleet must stop a cell early: {stops:?}"
    );
    assert!(
        records.iter().any(|r| matches!(
            &r.body,
            CheckpointBody::Folds { boundary_traffic, .. } if !boundary_traffic.is_empty()
        )),
        "boundary traffic was journaled"
    );
    for k in 0..records.len() {
        let (parts, _) = coordinated_fleet(&scenario, Some(journal_of(&records[..=k])));
        assert_eq!(parts, baseline, "shard 0 resumed from record {k}");
    }
}

#[test]
fn resume_rejects_checkpoints_that_do_not_match() {
    let _lock = lock();
    let scenario = tiny_scenario();
    let registry = ProtocolRegistry::builtins();
    let (_, checkpoints) = checkpointed_shard(&scenario);
    let resume = |spec: ShardSpec, journal: Journal| {
        run_shard_with(
            &scenario,
            spec,
            &registry,
            ShardRunOptions {
                resume: Some(journal),
                ..ShardRunOptions::default()
            },
        )
        .unwrap_err()
    };

    // A header tampered without resealing: the digest catches it, and a
    // journal without a header is no journal.
    let mut torn = checkpoints.clone();
    let CheckpointBody::Header { scenario_runs, .. } = &mut torn[0].body else {
        panic!("the first record is the header");
    };
    *scenario_runs += 1;
    let err = Journal::read(&journal_bytes(&torn)).unwrap_err();
    assert!(err.contains("digest"), "digest mismatch reported: {err}");

    // Tampered *and* resealed — or simply another campaign's journal: the
    // semantic cross-checks catch it.
    let mut forged = journal_of(&checkpoints[..3]);
    forged.scenario_runs += 1;
    let err = resume(ShardSpec::new(0, 2).unwrap(), forged);
    assert!(err.contains("runs"), "run-budget mismatch reported: {err}");

    // Wrong shard coordinate: refused, not silently re-planned.
    let err = resume(ShardSpec::new(1, 2).unwrap(), journal_of(&checkpoints[..3]));
    assert!(
        err.contains("resume each shard from its own checkpoint"),
        "mismatched coordinate rejected: {err}"
    );
}

/// A one-cell campaign small enough to kill and resume many times over.
fn micro_scenario(seed: u64, runs: usize) -> Scenario {
    let mut config = ExperimentConfig::quick(Protocol::Bitcoin);
    config.net.num_nodes = 30;
    config.warmup_ms = 400.0;
    config.window_ms = 4_000.0;
    config.runs = runs;
    config.seed = seed;
    Scenario::from_experiment("micro", &config, Workload::TxFlood)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill a checkpointing shard inside the append of any record: at
    /// *every* byte offset of that record the journal reads back as the
    /// records before it, and resuming from there produces the
    /// uninterrupted part, byte for byte — for any seed and any
    /// `checkpoint_every`.
    #[test]
    fn a_journal_torn_anywhere_in_its_last_record_resumes_identically(
        seed in 0u64..1_000_000,
        checkpoint_every in 1usize..8,
        victim in 0usize..1_000,
    ) {
        let _lock = lock();
        let scenario = micro_scenario(seed, 9);
        let whole = ShardSpec::new(0, 1).unwrap();
        let (part, records) = checkpointed(&scenario, whole, checkpoint_every);
        // header, warmed, ⌈9 / every⌉ fold records, done
        prop_assert_eq!(records.len(), 3 + 9usize.div_ceil(checkpoint_every));
        let torn_at = 1 + victim % (records.len() - 1);
        let before = journal_bytes(&records[..torn_at]);
        let whole_prefix = Journal::read(&before).expect("the records before the torn one");
        let mut file = before.clone();
        file.extend_from_slice(records[torn_at].to_json().as_bytes());
        for cut in before.len()..=file.len() {
            let read = Journal::read(&file[..cut]).expect("a torn tail is not an error");
            prop_assert!(read == whole_prefix, "record {} cut at byte {}", torn_at, cut);
        }
        prop_assert_eq!(resumed(&scenario, whole, whole_prefix, 2), part.to_json());
    }
}

#[test]
fn a_flipped_byte_in_a_middle_record_drops_the_rest_and_still_resumes_identically() {
    let _lock = lock();
    let scenario = tiny_scenario();
    let spec = ShardSpec::new(0, 2).unwrap();
    let (part, records) = checkpointed_shard(&scenario);
    let clean = journal_bytes(&records);
    let ends: Vec<usize> = (0..clean.len()).filter(|&i| clean[i] == b'\n').collect();
    for k in 1..records.len() - 1 {
        // One bit in the middle of record k, whatever it lands on.
        let mut bytes = clean.clone();
        bytes[(ends[k - 1] + ends[k]) / 2] ^= 0x04;
        let journal = Journal::read(&bytes).expect("the header is intact");
        assert_eq!(
            journal,
            journal_of(&records[..k]),
            "a flip in record {k} keeps records 0..{k} and nothing after"
        );
        assert_eq!(
            resumed(&scenario, spec, journal, 2),
            part.to_json(),
            "flip in record {k}"
        );
    }
}

#[test]
fn a_shard_killed_again_after_resuming_continues_one_chain() {
    // Kill, resume, kill again, resume again — through a real file, the
    // way the driver and the daemon do it: read the journal, cut the file
    // to its valid prefix, append behind it.
    let _lock = lock();
    let scenario = micro_scenario(7, 8);
    let whole = ShardSpec::new(0, 1).unwrap();
    let registry = ProtocolRegistry::builtins();
    let (part, records) = checkpointed(&scenario, whole, 1);
    let path = std::env::temp_dir().join(format!("bcbpt-journal-{}.json", std::process::id()));

    // First life: three records and half of the fourth reach the disk.
    let mut on_disk = journal_bytes(&records[..3]);
    let fourth = records[3].to_json();
    on_disk.extend_from_slice(&fourth.as_bytes()[..fourth.len() / 2]);
    std::fs::write(&path, &on_disk).expect("journal written");

    // Second life: resumes, then dies (the sink refuses) two records on.
    let journal = Journal::read(&std::fs::read(&path).unwrap()).expect("first journal");
    assert_eq!(journal.valid_len, journal_bytes(&records[..3]).len());
    let mut file = JournalFile::open(&path, journal.valid_len as u64).expect("journal reopened");
    let mut appended = 0;
    let mut sink = |record: &Checkpoint| -> Result<(), String> {
        if appended == 2 {
            return Err("killed again".to_string());
        }
        appended += 1;
        file.append(&record.to_json()).map_err(|e| e.to_string())
    };
    let err = run_shard_with(
        &scenario,
        whole,
        &registry,
        ShardRunOptions {
            threads: Some(2),
            resume: Some(journal),
            sink: Some(&mut sink),
            ..ShardRunOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("killed again"), "{err}");
    drop(file);

    // The torn half-record is gone and the two new records chain on: the
    // file is, byte for byte, the first five records of the clean journal.
    assert_eq!(std::fs::read(&path).unwrap(), journal_bytes(&records[..5]));

    // Third life: resumes from there and finishes the journal.
    let journal = Journal::read(&std::fs::read(&path).unwrap()).expect("second journal");
    let mut file = JournalFile::open(&path, journal.valid_len as u64).expect("journal reopened");
    let mut sink = |record: &Checkpoint| -> Result<(), String> {
        file.append(&record.to_json()).map_err(|e| e.to_string())
    };
    let finished = run_shard_with(
        &scenario,
        whole,
        &registry,
        ShardRunOptions {
            threads: Some(2),
            resume: Some(journal),
            sink: Some(&mut sink),
            ..ShardRunOptions::default()
        },
    )
    .expect("the twice-killed shard finishes");
    assert_eq!(finished.to_json(), part.to_json());
    assert_eq!(std::fs::read(&path).unwrap(), journal_bytes(&records));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_retried_append_never_leaves_the_failed_attempt_in_the_journal() {
    let _lock = lock();
    let (_, records) = checkpointed(&micro_scenario(3, 2), ShardSpec::new(0, 1).unwrap(), 1);
    let path = std::env::temp_dir().join(format!("bcbpt-retry-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut file = JournalFile::open(&path, 0).expect("journal created");
    for record in &records {
        // What an append that failed half-way leaves behind: part of the
        // record, and an error. The bounded retry then appends again.
        let line = record.to_json();
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("raw handle");
        std::io::Write::write_all(&mut raw, &line.as_bytes()[..line.len() / 3])
            .expect("torn write");
        file.append(&line).expect("retried append");
    }
    assert_eq!(std::fs::read(&path).unwrap(), journal_bytes(&records));
    let _ = std::fs::remove_file(&path);
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
    /// Shard 0/2's whole checkpoint journal.
    journal: Vec<u8>,
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
        WireFixture {
            part0_json: parts[0].to_json(),
            part1_json: parts[1].to_json(),
            journal: journal_bytes(&checkpoints),
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

    /// Flipping any single bit of a checkpoint journal either leaves no
    /// valid header (refused) or reads back as exactly the records before
    /// the flipped one — resume never continues from state that differs
    /// from what was sealed, and never from anything sealed after damage.
    #[test]
    fn a_flipped_checkpoint_byte_never_resumes_divergent_state(
        offset in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let _lock = lock();
        let fx = fixture();
        let mut bytes = fx.journal.clone();
        let at = offset % bytes.len();
        bytes[at] ^= 1 << bit;
        let Ok(journal) = Journal::read(&bytes) else { return; };
        prop_assert!(
            journal.valid_len <= at,
            "the record holding byte {} was kept ({} valid bytes)",
            at,
            journal.valid_len
        );
        let clean = Journal::read(&fx.journal[..journal.valid_len]).expect("clean prefix");
        prop_assert!(journal == clean, "a kept prefix must be the sealed prefix");
    }

    /// Any proper prefix of a checkpoint journal reads as its whole
    /// records and nothing else: the torn record at the end never parses
    /// into the state, and a journal torn inside its header is refused.
    #[test]
    fn a_truncated_checkpoint_never_parses(cut in 0usize..1_000_000) {
        let _lock = lock();
        let fx = fixture();
        let len = cut % fx.journal.len();
        let whole_records = fx.journal[..len]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        match Journal::read(&fx.journal[..len]) {
            Err(_) => prop_assert_eq!(whole_records, 0, "truncation at byte {} refused", len),
            Ok(journal) => {
                prop_assert_eq!(journal.valid_len, whole_records, "truncation at byte {}", len);
                let clean = Journal::read(&fx.journal[..whole_records]).expect("clean prefix");
                prop_assert!(journal == clean, "truncation at byte {}", len);
            }
        }
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
