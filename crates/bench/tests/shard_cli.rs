//! End-to-end coverage of the `scenario shard` command surface: the
//! machine-grepable `shard-run` summary line has the same shape for every
//! workload family (the old "deferred" message for indivisible cells is
//! gone — nothing is indivisible any more), a sharded replicated-family
//! run merges byte-identically to the unsharded `--json` output, and a
//! coordinated fleet of real processes stops early, agrees on the stop
//! indices, and merges cleanly.

use bcbpt_core::Scenario;
use std::collections::BTreeMap;
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_scenario")
}

/// A fresh scratch directory per test, under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcbpt-shardcli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Loads a checked-in scenario shrunk to integration-test scale and
/// writes it into `dir`.
fn tiny_scenario_file(dir: &Path, name: &str) -> PathBuf {
    let source =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../scenarios/{name}.json"));
    let text = fs::read_to_string(&source).unwrap_or_else(|e| panic!("{name}.json: {e}"));
    let mut scenario = Scenario::from_json(&text)
        .unwrap_or_else(|e| panic!("{name} parses: {e}"))
        .quick_scaled();
    scenario.net.num_nodes = scenario.net.num_nodes.min(40);
    scenario.runs = scenario.runs.min(4);
    scenario.warmup_ms = scenario.warmup_ms.min(800.0);
    scenario.window_ms = scenario.window_ms.min(8_000.0);
    if let Some(sweep) = &mut scenario.sweep {
        sweep.protocols.truncate(2);
        sweep.thresholds_ms.truncate(1);
        sweep.num_nodes.truncate(1);
    }
    let path = dir.join(format!("{name}.json"));
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

/// Finds the `shard-run …` summary line and parses its `key=value`
/// fields — the machine-grepable contract scripts rely on.
fn parse_summary(stderr: &str) -> BTreeMap<String, String> {
    let line = stderr
        .lines()
        .find(|line| line.starts_with("shard-run "))
        .unwrap_or_else(|| panic!("no `shard-run` summary line in stderr:\n{stderr}"));
    line.split_whitespace()
        .skip(1)
        .map(|token| {
            let (key, value) = token
                .split_once('=')
                .unwrap_or_else(|| panic!("summary token {token:?} is not key=value: {line}"));
            (key.to_string(), value.to_string())
        })
        .collect()
}

/// Runs both shards of a 2-shard fleet, asserting each prints the
/// summary, and returns the part paths plus the parsed summaries.
fn run_two_shards(scenario: &Path, dir: &Path) -> (Vec<PathBuf>, Vec<BTreeMap<String, String>>) {
    let mut parts = Vec::new();
    let mut summaries = Vec::new();
    for i in 0..2 {
        let part = dir.join(format!("part-{i}.json"));
        let out = run(&[
            "shard",
            "run",
            scenario.to_str().unwrap(),
            "--shard",
            &format!("{i}/2"),
            "--out",
            part.to_str().unwrap(),
            "--threads",
            "2",
        ]);
        assert_success(&out, &format!("shard {i}/2"));
        summaries.push(parse_summary(&stderr_of(&out)));
        parts.push(part);
    }
    (parts, summaries)
}

#[test]
fn every_family_prints_the_same_machine_grepable_summary_shape() {
    let dir = scratch("summary");
    // One scenario per summary-relevant family: replicated single-shot
    // (partition — the family the old code answered with a prose
    // "deferred" message), paired adversarial, and streaming.
    for name in ["partition", "pingspoof", "fig3"] {
        let scenario = tiny_scenario_file(&dir, name);
        let (parts, summaries) = run_two_shards(&scenario, &dir);
        for (i, summary) in summaries.iter().enumerate() {
            for key in ["scenario", "shard", "cells", "runs", "used", "stop", "out"] {
                assert!(
                    summary.contains_key(key),
                    "{name} shard {i}: summary missing {key}: {summary:?}"
                );
            }
            assert_eq!(summary["scenario"], name, "{name} shard {i}");
            assert_eq!(summary["shard"], format!("{i}/2"), "{name} shard {i}");
            assert_eq!(
                summary["stop"], "none",
                "{name} shard {i}: an uncoordinated run never stops early"
            );
            summary["used"]
                .parse::<usize>()
                .unwrap_or_else(|e| panic!("{name} shard {i}: used not a number: {e}"));
        }
        // The parts the summaries point at merge byte-identically to the
        // unsharded run.
        let reference = run(&[
            "run",
            scenario.to_str().unwrap(),
            "--json",
            "--threads",
            "2",
        ]);
        assert_success(&reference, &format!("{name} reference run"));
        let merged = run(&[
            "shard",
            "merge",
            parts[0].to_str().unwrap(),
            parts[1].to_str().unwrap(),
            "--json",
        ]);
        assert_success(&merged, &format!("{name} merge"));
        assert_eq!(
            merged.stdout, reference.stdout,
            "{name}: 2-shard merge differs from the unsharded --json output"
        );
    }
}

#[test]
fn a_lone_shard_refuses_an_adaptive_stop_rule_with_a_pointer_to_the_coordinator() {
    let dir = scratch("refuse");
    let scenario = tiny_scenario_file(&dir, "sweep");
    let out = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "0/2",
        "--out",
        dir.join("part-0.json").to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "adaptive uncoordinated shard must fail"
    );
    let stderr = stderr_of(&out);
    for needle in ["adaptive", "stop", "shard", "--coordinate"] {
        assert!(
            stderr.contains(needle),
            "rejection should mention {needle:?}:\n{stderr}"
        );
    }
    // Shard 0/1 sees every run and evaluates the rule itself — declared
    // in the file or installed with --stop-ci.
    let whole = run(&[
        "shard",
        "run",
        scenario.to_str().unwrap(),
        "--shard",
        "0/1",
        "--stop-ci",
        "0.9",
        "--out",
        dir.join("part-whole.json").to_str().unwrap(),
    ]);
    assert_success(&whole, "adaptive 0/1 shard");
    let summary = stderr_of(&whole);
    assert!(
        summary.contains("shard=0/1") && !summary.contains("stop=none"),
        "the loose rule stops inside the budget and the summary says where:\n{summary}"
    );
}

#[test]
fn a_coordinated_process_fleet_stops_early_and_merges_cleanly() {
    let dir = scratch("coordinate");
    let scenario = tiny_scenario_file(&dir, "fig3");
    // A deterministic per-process port keeps parallel test binaries from
    // colliding; the OS would hand port 0 only to the coordinator, which
    // the shard processes couldn't discover.
    let port = 21000 + (std::process::id() % 20000) as u16;
    let addr = format!("127.0.0.1:{port}");

    let coordinator = Command::new(bin())
        .args([
            "shard",
            "coordinate",
            scenario.to_str().unwrap(),
            "--shards",
            "2",
            "--addr",
            &addr,
            "--stop-ci",
            "0.9",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("coordinator spawns");

    // Wait for the endpoint to bind before launching the fleet.
    let deadline = Instant::now() + Duration::from_secs(10);
    while TcpStream::connect(&addr).is_err() {
        assert!(Instant::now() < deadline, "coordinator never bound {addr}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The shards block on each other's prefix envelopes at every
    // cadence boundary, so they must run concurrently.
    let children: Vec<_> = (0..2)
        .map(|i| {
            let part = dir.join(format!("part-{i}.json"));
            let child = Command::new(bin())
                .args([
                    "shard",
                    "run",
                    scenario.to_str().unwrap(),
                    "--shard",
                    &format!("{i}/2"),
                    "--out",
                    part.to_str().unwrap(),
                    "--coordinate",
                    &addr,
                    "--stop-ci",
                    "0.9",
                    "--threads",
                    "2",
                ])
                .stderr(Stdio::piped())
                .spawn()
                .expect("shard spawns");
            (part, child)
        })
        .collect();

    let mut shard_stops = Vec::new();
    let mut parts = Vec::new();
    for (i, (part, child)) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("shard exits");
        assert_success(&out, &format!("coordinated shard {i}/2"));
        let summary = parse_summary(&stderr_of(&out));
        shard_stops.push(summary["stop"].clone());
        parts.push(part);
    }
    let out = coordinator.wait_with_output().expect("coordinator exits");
    assert_success(&out, "coordinator");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|line| line.starts_with("shard-coordinate "))
        .unwrap_or_else(|| panic!("no `shard-coordinate` summary:\n{stdout}"));

    // The loose ±90% rule fires inside the budget, every process agrees
    // on the stop indices, and runs were actually saved.
    let stops = summary
        .split_whitespace()
        .find_map(|token| token.strip_prefix("stops="))
        .unwrap_or_else(|| panic!("no stops= field: {summary}"));
    assert!(
        stops.split(',').all(|s| s.parse::<usize>().is_ok()),
        "every cell must stop at a numeric index: {summary}"
    );
    assert_eq!(shard_stops, vec![stops.to_string(); 2], "shards disagree");
    let saved = summary
        .split_whitespace()
        .find_map(|token| token.strip_prefix("runs-saved="))
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or_else(|| panic!("no runs-saved= field: {summary}"));
    assert!(saved > 0, "an early stop saves fleet runs: {summary}");

    // The truncated parts still merge into a well-formed outcome.
    let merged = run(&[
        "shard",
        "merge",
        parts[0].to_str().unwrap(),
        parts[1].to_str().unwrap(),
        "--json",
    ]);
    assert_success(&merged, "coordinated merge");
    let outcome = String::from_utf8_lossy(&merged.stdout);
    bcbpt_core::ScenarioOutcome::from_json(&outcome).expect("merged outcome parses");
}
