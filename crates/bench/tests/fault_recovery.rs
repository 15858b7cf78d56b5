//! End-to-end crash-recovery coverage of the `scenario` binary: a shard
//! process hard-killed by the fault injector resumes from its checkpoint
//! and merges byte-identically to an uninterrupted campaign, a corrupted
//! part file is quarantined by `shard merge --salvage` and repaired by
//! following the emitted plan, a checkpoint torn inside its header — or
//! written by the whole-prefix format 4 — is rejected on resume, and the
//! `events` validator enforces gap-free ascending run indices.

use bcbpt_core::Scenario;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Exit code of an injected hard crash (`bcbpt_core::fault::FAULT_EXIT_CODE`).
const FAULT_EXIT_CODE: i32 = 86;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_scenario")
}

/// A fresh scratch directory per test, under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcbpt-fault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes the integration-scale scenario the tests run: `fig3.json`
/// shrunk to two cells, four runs, a 50-node network.
fn tiny_scenario_file(dir: &Path) -> PathBuf {
    let source = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/fig3.json");
    let text = fs::read_to_string(&source).expect("fig3.json");
    let mut scenario = Scenario::from_json(&text)
        .expect("fig3 parses")
        .quick_scaled();
    scenario.net.num_nodes = 50;
    scenario.runs = 4;
    scenario.warmup_ms = 800.0;
    scenario.window_ms = 8_000.0;
    if let Some(sweep) = &mut scenario.sweep {
        sweep.protocols.truncate(2);
        sweep.thresholds_ms.truncate(1);
        sweep.num_nodes.truncate(1);
    }
    let path = dir.join("tiny.json");
    fs::write(&path, scenario.to_json()).expect("write scenario");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("scenario binary runs")
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({:?}):\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The unsharded `scenario run --json` output the recovery paths must
/// reproduce byte-for-byte.
fn reference_json(scenario: &Path) -> Vec<u8> {
    let out = run(&[
        "run",
        scenario.to_str().unwrap(),
        "--json",
        "--threads",
        "2",
    ]);
    assert_success(&out, "reference run");
    out.stdout
}

#[test]
fn a_hard_killed_shard_resumes_from_its_checkpoint_byte_identically() {
    let dir = scratch("kill-resume");
    let scenario = tiny_scenario_file(&dir);
    let reference = reference_json(&scenario);

    for threads in ["1", "3", "8"] {
        let part0 = dir.join(format!("part-0-t{threads}.json"));
        let part1 = dir.join(format!("part-1-t{threads}.json"));
        let ckpt = dir.join(format!("ckpt-t{threads}.json"));

        // Shard 0 dies a simulated SIGKILL after its third fold — the
        // part never appears, the checkpoint survives.
        let out = run(&[
            "shard",
            "run",
            scenario.to_str().unwrap(),
            "--shard",
            "0/2",
            "--out",
            part0.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--threads",
            threads,
            "--inject-fault",
            r#"{"DieAfterRuns":{"n":3}}"#,
        ]);
        assert_eq!(
            out.status.code(),
            Some(FAULT_EXIT_CODE),
            "injected crash exits with the fault code: {}",
            stderr_of(&out)
        );
        assert!(!part0.exists(), "the killed shard wrote no part");
        assert!(ckpt.exists(), "the checkpoint survived the crash");

        // Resume finishes the shard and cleans up the checkpoint.
        let out = run(&[
            "shard",
            "run",
            scenario.to_str().unwrap(),
            "--shard",
            "0/2",
            "--out",
            part0.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
            "--threads",
            threads,
        ]);
        assert_success(&out, "resumed shard 0");
        assert!(part0.exists(), "the resumed shard wrote its part");
        assert!(!ckpt.exists(), "the completed shard removed its checkpoint");

        let out = run(&[
            "shard",
            "run",
            scenario.to_str().unwrap(),
            "--shard",
            "1/2",
            "--out",
            part1.to_str().unwrap(),
            "--threads",
            threads,
        ]);
        assert_success(&out, "shard 1");

        let out = run(&[
            "shard",
            "merge",
            part0.to_str().unwrap(),
            part1.to_str().unwrap(),
            "--json",
        ]);
        assert_success(&out, "merge");
        assert_eq!(
            out.stdout, reference,
            "killed+resumed merge diverged from the unsharded run at {threads} thread(s)"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_part_is_quarantined_and_the_repair_plan_completes_the_merge() {
    let dir = scratch("salvage");
    let scenario = tiny_scenario_file(&dir);
    let reference = reference_json(&scenario);
    let part0 = dir.join("part-0.json");
    let part1 = dir.join("part-1.json");

    // Byte 5 of the pretty JSON is inside the "version" key — flipping it
    // guarantees the corruption is semantic, not whitespace.
    let out = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "0/2",
        "--out",
        part0.to_str().unwrap(),
        "--threads",
        "2",
        "--inject-fault",
        r#"{"CorruptOutput":{"byte_offset":5}}"#,
    ]);
    assert_success(&out, "shard 0 with corrupted output");
    let out = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "1/2",
        "--out",
        part1.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert_success(&out, "shard 1");

    // The strict merge refuses the set outright.
    let out = run(&[
        "shard",
        "merge",
        part0.to_str().unwrap(),
        part1.to_str().unwrap(),
        "--json",
    ]);
    assert!(!out.status.success(), "strict merge must reject corruption");

    // The salvage merge quarantines the bad part and prints a repair
    // plan naming the exact re-run.
    let out = run(&[
        "shard",
        "merge",
        part0.to_str().unwrap(),
        part1.to_str().unwrap(),
        "--salvage",
    ]);
    assert!(
        !out.status.success(),
        "salvage with a missing shard exits nonzero"
    );
    let plan = String::from_utf8_lossy(&out.stdout);
    assert!(
        plan.contains("--shard 0/2"),
        "repair plan names the re-run: {plan}"
    );
    assert!(
        plan.contains("missing_shards"),
        "repair plan is machine-readable JSON: {plan}"
    );
    assert!(
        stderr_of(&out).contains("quarantined"),
        "quarantine reported on stderr: {}",
        stderr_of(&out)
    );

    // Following the plan completes the merge, equal to the unsharded run.
    let out = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "0/2",
        "--out",
        part0.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert_success(&out, "repair re-run of shard 0");
    let out = run(&[
        "shard",
        "merge",
        part0.to_str().unwrap(),
        part1.to_str().unwrap(),
        "--salvage",
        "--json",
    ]);
    assert_success(&out, "salvage merge after repair");
    assert_eq!(out.stdout, reference, "repaired merge equals the batch run");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_checkpoint_is_rejected_on_resume_and_a_fresh_start_recovers() {
    let dir = scratch("torn");
    let scenario = tiny_scenario_file(&dir);
    let part0 = dir.join("part-0.json");
    let ckpt = dir.join("ckpt.json");

    // TornCheckpoint tears the first checkpoint write mid-byte and
    // hard-exits — simulating a crash inside a non-atomic writer.
    let out = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "0/2",
        "--out",
        part0.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--threads",
        "2",
        "--inject-fault",
        r#""TornCheckpoint""#,
    ]);
    assert_eq!(out.status.code(), Some(FAULT_EXIT_CODE));
    assert!(ckpt.exists(), "the torn checkpoint file exists");

    // Resume refuses the torn file instead of continuing from garbage.
    let out = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "0/2",
        "--out",
        part0.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--resume",
        "--threads",
        "2",
    ]);
    assert!(
        !out.status.success(),
        "resume must reject a torn checkpoint"
    );
    assert_ne!(
        out.status.code(),
        Some(FAULT_EXIT_CODE),
        "rejection is an ordinary error, not an injected crash"
    );
    assert!(
        stderr_of(&out).contains("checkpoint"),
        "the error names the checkpoint: {}",
        stderr_of(&out)
    );

    // Deleting the torn file and resuming starts fresh and completes.
    fs::remove_file(&ckpt).expect("remove torn checkpoint");
    let out = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "0/2",
        "--out",
        part0.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--resume",
        "--threads",
        "2",
    ]);
    assert_success(&out, "fresh start after deleting the torn checkpoint");
    assert!(
        stderr_of(&out).contains("starting fresh"),
        "the fresh start is announced: {}",
        stderr_of(&out)
    );
    assert!(part0.exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_whole_prefix_checkpoint_of_format_4_is_refused_on_resume_by_its_version() {
    // What `--checkpoint` wrote before it became a journal (the PR 17
    // binary, killed two folds into fig3 --quick shard 0/2): `--resume`
    // names the format instead of trying to read it, and leaves the file.
    let dir = scratch("v4");
    let ckpt = dir.join("ckpt.json");
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/checkpoint-v4.json");
    fs::copy(&fixture, &ckpt).expect("fixture copied");
    let part0 = dir.join("part-0.json");
    let resume = |extra: &[&str]| {
        let mut args = vec!["shard", "run", "fig3", "--quick", "--shard", "0/2", "--out"];
        args.extend([
            part0.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]);
        args.extend(extra);
        run(&args)
    };
    let out = resume(&["--resume"]);
    assert!(!out.status.success(), "resume must refuse a v4 checkpoint");
    assert!(
        stderr_of(&out).contains("checkpoint has wire-format version 4 but this binary speaks 5"),
        "the refusal names the format: {}",
        stderr_of(&out)
    );
    assert!(!part0.exists());
    assert_eq!(
        fs::read(&ckpt).unwrap(),
        fs::read(&fixture).unwrap(),
        "a refused file is left as it was"
    );
    // Without --resume the shard starts a fresh journal over it.
    assert_success(&resume(&[]), "fresh run over the old checkpoint");
    assert!(part0.exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_events_validator_enforces_gap_free_ascending_run_indices() {
    let dir = scratch("events");
    let scenario = tiny_scenario_file(&dir);
    let events = dir.join("events.jsonl");

    let out = run(&[
        "run",
        scenario.to_str().unwrap(),
        "--jsonl",
        events.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert_success(&out, "run with --jsonl");
    assert!(events.exists(), "the stream was renamed into place");
    assert!(
        !dir.join("events.jsonl.tmp").exists(),
        "no temp file left behind"
    );

    let out = run(&["events", events.to_str().unwrap()]);
    assert_success(&out, "validator on a clean stream");

    // Duplicating a run-level line breaks the gap-free ascending
    // invariant: the validator must point at the offending line.
    let text = fs::read_to_string(&events).expect("events stream");
    let (dup_index, dup_line) = text
        .lines()
        .enumerate()
        .find(|(_, l)| l.contains("RunCompleted"))
        .expect("a RunCompleted event");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(dup_index, dup_line);
    let tampered = dir.join("tampered.jsonl");
    fs::write(&tampered, lines.join("\n")).expect("write tampered stream");

    let out = run(&["events", tampered.to_str().unwrap()]);
    assert!(!out.status.success(), "duplicate run index must fail");
    let err = stderr_of(&out);
    assert!(
        err.contains("gap-free") && err.contains(&format!(":{}", dup_index + 2)),
        "the error names the invariant and the line: {err}"
    );

    // Dropping a run-level line leaves a gap — also rejected.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(dup_index);
    fs::write(&tampered, lines.join("\n")).expect("write gapped stream");
    let out = run(&["events", tampered.to_str().unwrap()]);
    assert!(!out.status.success(), "a run-index gap must fail");
    assert!(
        stderr_of(&out).contains("gap-free"),
        "the error names the invariant: {}",
        stderr_of(&out)
    );
    let _ = fs::remove_dir_all(&dir);
}
