//! End-to-end tests of the campaign service (`bcbpt-serve`): in-process
//! server, real TCP, real HTTP — the same path `scenario serve` exposes.
//!
//! The service's three core contracts are pinned here:
//!
//! 1. **Stream fidelity** — N concurrent `GET /jobs/:id/events`
//!    subscribers each receive a gap-free, ascending, byte-identical copy
//!    of the session's event stream, terminated by `scenario_completed`
//!    (exactly what `scenario run --jsonl` writes for the same seed).
//! 2. **Digest-keyed caching** — resubmitting an already-computed
//!    scenario is answered from the outcome store: byte-identical bytes,
//!    zero additional runs executed.
//! 3. **Drain/park/resume** — a drained service parks running jobs at a
//!    durable checkpoint; a service restarted on the same spool resumes
//!    them and completes with a byte-identical outcome and stream.
//!    Spooled files the restarted binary cannot trust (another
//!    wire-format version, a broken seal) read as absent: their shards
//!    re-run, the job never fails over them.
//! 4. **Hostile peers** — a connected-but-silent client delays nobody on
//!    the daemon or the coordinator endpoint, an oversize request head is
//!    refused instead of buffered, and connections past the cap are
//!    answered `503` instead of given threads.
//! 5. **Stopping** — the accept threads block in `accept()`; an idle
//!    daemon or coordinator endpoint still stops at once, and only a
//!    daemon asked to poll signals runs a thread for it.

use bcbpt_cluster::ProtocolRegistry;
use bcbpt_core::{run_shard_in, Journal, LocalCoordinator, Scenario, ShardSpec};
use bcbpt_serve::{client, http, CoordServer, ServeConfig, Server, Spool};
use serde::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A fresh spool directory per test (removed up front so a rerun never
/// resumes a previous run's jobs).
fn temp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bcbpt-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(spool: &Path, workers: usize) -> (Server, String) {
    let mut config = ServeConfig::new(spool);
    config.workers = workers;
    let server = Server::start(config).expect("server starts");
    let addr = server.local_addr().to_string();
    client::wait_healthy(&addr, Duration::from_secs(5)).expect("healthy");
    (server, addr)
}

/// CI-scale fig3 — 3 protocol cells, a few runs each.
fn fig3_quick() -> Scenario {
    Scenario::builtin("fig3").expect("builtin").quick_scaled()
}

/// [`fig3_quick`] under a loose adaptive stop rule — what a coordinator
/// endpoint needs to exist.
fn fig3_adaptive() -> Scenario {
    let mut scenario = fig3_quick();
    scenario.stop = Some(bcbpt_core::StopRule::CiHalfWidth {
        level: 0.95,
        rel_width: 0.5,
        min_runs: 2,
    });
    scenario
}

/// A slower single-cell campaign with enough runs that a drain reliably
/// lands mid-cell.
fn drainable() -> Scenario {
    let mut scenario = fig3_quick();
    scenario.name = "drainable".to_string();
    scenario.sweep = None;
    scenario.runs = 24;
    scenario
}

/// The reference event stream: what a `ScenarioSession` observer (and
/// thus `scenario run --jsonl`) serializes for this scenario.
fn session_lines(scenario: &Scenario) -> Vec<String> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    scenario
        .session()
        .observe_fn(move |event| {
            sink.lock()
                .unwrap()
                .push(serde_json::to_string(event).expect("event serializes"));
        })
        .block()
        .expect("session runs");
    Arc::try_unwrap(lines)
        .expect("observers dropped")
        .into_inner()
        .unwrap()
}

/// The reference outcome bytes: what `scenario run --json` prints.
fn direct_outcome_bytes(scenario: &Scenario) -> String {
    format!("{}\n", scenario.run().expect("direct run").to_json())
}

fn str_field(json: &str, key: &str) -> String {
    let value: Value = serde_json::from_str(json).expect("response parses");
    value
        .as_map()
        .map(|entries| serde::map_get(entries, key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {json}"))
        .to_string()
}

fn u64_field(json: &str, key: &str) -> u64 {
    let value: Value = serde_json::from_str(json).expect("response parses");
    match value.as_map().map(|entries| serde::map_get(entries, key)) {
        Some(Value::U64(n)) => *n,
        other => panic!("no numeric {key:?} in {json} ({other:?})"),
    }
}

fn bool_field(json: &str, key: &str) -> bool {
    let value: Value = serde_json::from_str(json).expect("response parses");
    match value.as_map().map(|entries| serde::map_get(entries, key)) {
        Some(Value::Bool(b)) => *b,
        other => panic!("no boolean {key:?} in {json} ({other:?})"),
    }
}

/// Submits a scenario; returns (job id, cached).
fn submit(addr: &str, scenario: &Scenario, query: &str) -> (String, bool) {
    let response =
        client::post(addr, &format!("/scenarios{query}"), &scenario.to_json()).expect("submit");
    assert!(
        response.status == 202 || response.status == 200,
        "submit status {}: {}",
        response.status,
        response.text()
    );
    let body = response.text();
    (str_field(&body, "job"), bool_field(&body, "cached"))
}

fn stats(addr: &str) -> String {
    let response = client::get(addr, "/stats").expect("stats");
    assert_eq!(response.status, 200);
    response.text()
}

#[test]
fn concurrent_subscribers_all_see_the_exact_session_stream() {
    let expected = session_lines(&fig3_quick());
    let spool = temp_spool("subscribers");
    let (server, addr) = start_server(&spool, 1);
    let (job, cached) = submit(&addr, &fig3_quick(), "");
    assert!(!cached);
    let subscribers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let path = format!("/jobs/{job}/events");
            std::thread::spawn(move || {
                let mut lines = Vec::new();
                let clean = client::stream_lines(&addr, &path, |line| {
                    lines.push(line.to_string());
                })
                .expect("stream");
                (lines, clean)
            })
        })
        .collect();
    client::wait_job(&addr, &job, Duration::from_secs(300)).expect("job settles");
    for subscriber in subscribers {
        let (lines, clean) = subscriber.join().expect("subscriber thread");
        assert!(clean, "stream should end with the chunked terminator");
        assert_eq!(lines, expected, "live stream must match the session's");
    }
    // A late subscriber (job already done) replays the identical stream.
    let mut replay = Vec::new();
    let clean = client::stream_lines(&addr, &format!("/jobs/{job}/events"), |line| {
        replay.push(line.to_string());
    })
    .expect("replay stream");
    assert!(clean);
    assert_eq!(replay, expected);
    assert!(
        expected
            .last()
            .expect("events")
            .contains("ScenarioCompleted"),
        "session stream ends in scenario_completed"
    );
    server.request_drain();
    server.wait().expect("drain");
}

#[test]
fn resubmission_is_served_from_the_digest_keyed_store() {
    let scenario = fig3_quick();
    let direct = direct_outcome_bytes(&scenario);
    let spool = temp_spool("cache");
    let (server, addr) = start_server(&spool, 1);
    let (job, cached) = submit(&addr, &scenario, "");
    assert!(!cached);
    let settled = client::wait_job(&addr, &job, Duration::from_secs(300)).expect("job settles");
    assert_eq!(str_field(&settled, "state"), "done");
    let outcome = client::get(&addr, &format!("/jobs/{job}/outcome")).expect("outcome");
    assert_eq!(outcome.status, 200);
    assert_eq!(
        outcome.text(),
        direct,
        "served outcome must be byte-identical to `scenario run --json`"
    );
    let before = stats(&addr);
    let runs_before = u64_field(&before, "runs_executed");
    assert!(runs_before > 0, "the first submission executed runs");
    assert_eq!(u64_field(&before, "cache_hits"), 0);
    // Resubmit: same digest, answered from the store without executing.
    let (job2, cached2) = submit(&addr, &scenario, "");
    assert!(cached2, "second submission must be a cache hit");
    assert_ne!(job2, job, "a cache hit is still a fresh job id");
    let outcome2 = client::get(&addr, &format!("/jobs/{job2}/outcome")).expect("outcome");
    assert_eq!(outcome2.text(), direct);
    // A status poll is a status poll: however large the outcome, a done
    // job's status does not carry it — executed or served from the store.
    for (id, status) in [
        (&job, settled),
        (
            &job2,
            client::get(&addr, &format!("/jobs/{job2}"))
                .expect("status")
                .text(),
        ),
    ] {
        let status: Value = serde_json::from_str(&status).expect("status parses");
        let keys: Vec<&str> = status
            .as_map()
            .expect("status is an object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            keys,
            ["job", "state", "digest", "scenario", "shards", "cached"],
            "{id}"
        );
    }
    let polled = client::get(&addr, &format!("/jobs/{job}")).expect("status");
    assert!(
        polled.body.len() < 1024 && direct.len() > 10 * 1024,
        "a {}-byte status for a {}-byte outcome",
        polled.body.len(),
        direct.len()
    );
    let after = stats(&addr);
    assert_eq!(
        u64_field(&after, "runs_executed"),
        runs_before,
        "a cache hit must not execute any runs"
    );
    assert_eq!(u64_field(&after, "cache_hits"), 1);
    // The cached job replays the stored event stream, terminator and all.
    let mut lines = Vec::new();
    let clean = client::stream_lines(&addr, &format!("/jobs/{job2}/events"), |line| {
        lines.push(line.to_string());
    })
    .expect("cached stream");
    assert!(clean);
    assert!(lines.last().expect("events").contains("ScenarioCompleted"));
    server.request_drain();
    server.wait().expect("drain");
}

#[test]
fn multi_shard_jobs_merge_to_the_same_bytes() {
    let scenario = fig3_quick();
    let direct = direct_outcome_bytes(&scenario);
    let spool = temp_spool("shards");
    let (server, addr) = start_server(&spool, 2);
    let (job, cached) = submit(&addr, &scenario, "?shards=2");
    assert!(!cached);
    client::wait_job(&addr, &job, Duration::from_secs(300)).expect("job settles");
    let outcome = client::get(&addr, &format!("/jobs/{job}/outcome")).expect("outcome");
    assert_eq!(outcome.status, 200);
    assert_eq!(
        outcome.text(),
        direct,
        "merged shard outcome must equal the unsharded run"
    );
    // Multi-shard streams are synthesized at cell granularity but still
    // close every cell and terminate in scenario_completed.
    let mut lines = Vec::new();
    let clean = client::stream_lines(&addr, &format!("/jobs/{job}/events"), |line| {
        lines.push(line.to_string());
    })
    .expect("stream");
    assert!(clean);
    assert_eq!(lines.len(), fig3_quick().cells().len() * 2 + 1);
    assert!(lines.last().expect("events").contains("ScenarioCompleted"));
    server.request_drain();
    server.wait().expect("drain");
}

#[test]
fn adaptive_multi_shard_jobs_coordinate_the_stop_and_match_the_direct_run() {
    // A loose ±90% CI rule fires inside the budget; the in-process
    // coordinator folds the shards' prefix envelopes at every checkpoint
    // with the same `StopEval` an unsharded adaptive session uses, so the
    // merged truncated parts must reproduce the direct adaptive run
    // byte-for-byte — while executing strictly fewer fleet runs than the
    // fixed budget.
    let mut scenario = fig3_quick();
    scenario.name = "adaptive-fleet".to_string();
    scenario.runs = 6;
    scenario.stop = Some(bcbpt_core::StopRule::CiHalfWidth {
        level: 0.95,
        rel_width: 0.9,
        min_runs: 2,
    });
    let direct = direct_outcome_bytes(&scenario);
    let budget: u64 = (scenario.runs * scenario.cells().len()) as u64;

    let spool = temp_spool("adaptive");
    let (server, addr) = start_server(&spool, 2);
    let (job, cached) = submit(&addr, &scenario, "?shards=2");
    assert!(!cached);
    client::wait_job(&addr, &job, Duration::from_secs(300)).expect("job settles");
    let outcome = client::get(&addr, &format!("/jobs/{job}/outcome")).expect("outcome");
    assert_eq!(outcome.status, 200);
    assert_eq!(
        outcome.text(),
        direct,
        "coordinated adaptive fleet must equal the direct adaptive run"
    );
    let executed = u64_field(&stats(&addr), "runs_executed");
    assert!(
        executed < budget,
        "the coordinated stop must save runs: executed {executed} of {budget}"
    );
    server.request_drain();
    server.wait().expect("drain");
}

#[test]
fn adaptive_jobs_wider_than_the_worker_pool_are_refused() {
    // Every shard of an adaptive job blocks on the cell's stop decision,
    // which needs envelopes from the whole fleet — a fleet wider than the
    // worker pool would deadlock, so submission refuses it up front.
    let mut scenario = fig3_quick();
    scenario.name = "adaptive-too-wide".to_string();
    scenario.runs = 6;
    scenario.stop = Some(bcbpt_core::StopRule::CiHalfWidth {
        level: 0.95,
        rel_width: 0.9,
        min_runs: 2,
    });
    let spool = temp_spool("adaptive-wide");
    let (server, addr) = start_server(&spool, 2);
    let response = client::post(&addr, "/scenarios?shards=3", &scenario.to_json()).expect("submit");
    assert_eq!(response.status, 400, "{}", response.text());
    assert!(
        response.text().contains("worker"),
        "refusal explains the worker-pool bound: {}",
        response.text()
    );
    server.request_drain();
    server.wait().expect("drain");
}

#[test]
fn drain_parks_at_a_checkpoint_and_a_restart_resumes_byte_identically() {
    drain_park_resume(&drainable(), "drain");
}

#[test]
fn an_adaptive_one_shard_job_parks_under_drain_and_resumes_identically() {
    // The rule needs 12 folded runs before it may fire and the drain is
    // requested after the first, so the job cannot finish in the drain
    // window: it must park (the old whole-session task ran to completion
    // instead), and the restart must stop at the same run index an
    // uninterrupted `Scenario::run` picks — under the stateful rule, whose
    // evaluator the resume has to re-prime from the checkpoint.
    let mut scenario = drainable();
    scenario.name = "drainable-adaptive".to_string();
    scenario.stop = Some(bcbpt_core::StopRule::VarianceStable {
        rel_tol: 0.02,
        min_runs: 12,
    });
    let kept = scenario.run().unwrap().cells[0]
        .campaign()
        .unwrap()
        .runs
        .len();
    assert!(
        (12..scenario.runs).contains(&kept),
        "the rule must fire inside the budget, kept {kept} runs"
    );
    let parked = drain_park_resume(&scenario, "drain-adaptive");
    assert!(parked, "an adaptive one-shard job parks under drain");
}

/// Submits `scenario` as a one-shard job, drains the service once the
/// first run folded, restarts it on the same spool, and checks outcome
/// bytes and event stream against a direct run. Returns whether the job
/// parked (`false`: it finished inside the drain window).
fn drain_park_resume(scenario: &Scenario, tag: &str) -> bool {
    let expected_lines = session_lines(scenario);
    let direct = direct_outcome_bytes(scenario);
    let spool = temp_spool(tag);
    let (server, addr) = start_server(&spool, 1);
    let (job, cached) = submit(&addr, scenario, "");
    assert!(!cached);
    // A live subscriber, to witness the cut stream on park.
    let subscriber = {
        let addr = addr.clone();
        let path = format!("/jobs/{job}/events");
        std::thread::spawn(move || {
            let mut lines = Vec::new();
            let clean = client::stream_lines(&addr, &path, |line| lines.push(line.to_string()))
                .expect("stream");
            (lines, clean)
        })
    };
    // Wait for real progress, then drain mid-cell.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while u64_field(&stats(&addr), "runs_executed") < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "no runs folded in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let response = client::post(&addr, "/shutdown", "").expect("shutdown");
    assert_eq!(response.status, 200);
    server.wait().expect("drain");
    let (partial_lines, clean) = subscriber.join().expect("subscriber");
    if clean {
        // The job finished in the drain window before parking (rare on a
        // fast machine): the stream is complete and the outcome stored —
        // nothing left to resume, so just verify the stored result.
        assert_eq!(partial_lines, expected_lines);
        let spool2 = spool.clone();
        let (server2, addr2) = start_server(&spool2, 1);
        let (_, cached2) = submit(&addr2, scenario, "");
        assert!(cached2, "completed-before-park job must be stored");
        server2.request_drain();
        server2.wait().expect("drain");
        return false;
    }
    assert!(
        !partial_lines.is_empty(),
        "the subscriber saw the folded prefix before the park"
    );
    assert!(
        partial_lines.len() < expected_lines.len(),
        "a parked stream is a strict prefix"
    );
    assert_eq!(
        partial_lines[..],
        expected_lines[..partial_lines.len()],
        "the folded prefix matches the session stream byte for byte"
    );
    // Restart on the same spool: the job is re-queued, resumes from its
    // checkpoint, and completes as if never interrupted.
    let (server2, addr2) = start_server(&spool, 1);
    client::wait_job(&addr2, &job, Duration::from_secs(300)).expect("resumed job settles");
    let outcome = client::get(&addr2, &format!("/jobs/{job}/outcome")).expect("outcome");
    assert_eq!(outcome.status, 200);
    assert_eq!(
        outcome.text(),
        direct,
        "a parked-and-resumed job must produce byte-identical output"
    );
    // The resumed job's stream = replayed prefix + live continuation —
    // indistinguishable from an uninterrupted run.
    let mut lines = Vec::new();
    let clean = client::stream_lines(&addr2, &format!("/jobs/{job}/events"), |line| {
        lines.push(line.to_string())
    })
    .expect("resumed stream");
    assert!(clean);
    assert_eq!(lines, expected_lines);
    server2.request_drain();
    server2.wait().expect("drain");
    true
}

#[test]
fn untrusted_spool_files_rerun_their_shards_instead_of_failing_the_job() {
    let scenario = fig3_quick();
    // What a 2-shard job of the PR 17 daemon left behind mid-flight: shard
    // 0's checkpoint — one whole-prefix document of format 4, where this
    // binary keeps a journal — and shard 1's finished part, which took a
    // flipped digest bit on disk. Both still parse as JSON.
    let stale = include_bytes!("fixtures/checkpoint-v4.json");
    let err = Journal::read(stale).expect_err("a v4 checkpoint is not a journal");
    assert!(
        err.contains("checkpoint has wire-format version 4"),
        "{err}"
    );
    let mut part = run_shard_in(
        &scenario,
        ShardSpec::new(1, 2).unwrap(),
        &ProtocolRegistry::builtins(),
        2,
    )
    .expect("shard runs");
    part.digest ^= 1;
    let dir = temp_spool("untrusted");
    let spool = Spool::open(&dir).expect("spool opens");
    spool.write_job("job-1", 2, &scenario).expect("job spooled");
    std::fs::write(spool.checkpoint_path("job-1", 0), stale).expect("checkpoint spooled");
    spool
        .write_part("job-1", 1, &part.to_json())
        .expect("part spooled");

    let (server, addr) = start_server(&dir, 2);
    client::wait_job(&addr, "job-1", Duration::from_secs(300)).expect("restored job settles");
    let outcome = client::get(&addr, "/jobs/job-1/outcome").expect("outcome");
    assert_eq!(outcome.status, 200, "{}", outcome.text());
    assert_eq!(outcome.text(), direct_outcome_bytes(&scenario));
    server.request_drain();
    server.wait().expect("drain");
}

#[test]
fn a_silent_client_delays_nobody_and_an_oversize_head_is_refused() {
    let spool = temp_spool("hostile");
    let (server, daemon_addr) = start_server(&spool, 1);
    let coordinator = Arc::new(LocalCoordinator::new(&fig3_adaptive(), 2, 1).expect("coordinator"));
    let mut endpoint = CoordServer::start("127.0.0.1:0", coordinator).expect("endpoint starts");
    let coord_addr = endpoint.local_addr().to_string();
    for (addr, path) in [(&daemon_addr, "/healthz"), (&coord_addr, "/coord/config")] {
        // Connected first (so accepted first — the listen queue is FIFO)
        // and never sends a byte: its handler waits on its own thread
        // (bounded by the read timeout), so the next request is answered
        // at once — on the coordinator endpoint this used to block every
        // `/coord/*` call, i.e. hang the fleet.
        let silent = TcpStream::connect(addr.as_str()).expect("silent client connects");
        let asked = Instant::now();
        let response = client::get(addr, path).expect("request behind a silent client");
        assert_eq!(response.status, 200, "{path}: {}", response.text());
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "{path} waited {:?} behind a silent client",
            asked.elapsed()
        );
        // A request line that never ends is cut off at the head limit
        // with a 4xx, not buffered until memory runs out.
        let mut hostile = TcpStream::connect(addr.as_str()).expect("hostile client connects");
        hostile
            .write_all(&vec![b'A'; http::MAX_HEAD_BYTES + 1])
            .expect("oversize head sent");
        let mut reply = String::new();
        hostile.read_to_string(&mut reply).expect("reply read");
        assert!(reply.starts_with("HTTP/1.1 400 "), "{path}: {reply:?}");
        assert!(reply.contains("limit"), "{path}: {reply:?}");
        drop(silent);
    }
    endpoint.stop();
    server.request_drain();
    server.wait().expect("drain");
}

/// The names of this process's threads (Linux: `/proc/self/task/*/comm`).
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn idle_servers_stop_at_once_and_poll_signals_only_when_asked() {
    // Nobody ever connects: the accept threads sit in a blocking
    // `accept()`, and stopping has to get them out of it.
    for poll_signals in [false, true] {
        let mut config = ServeConfig::new(temp_spool(&format!("idle-{poll_signals}")));
        config.workers = 1;
        config.poll_signals = poll_signals;
        let server = Server::start(config).expect("server starts");
        // No other test of this binary turns signal polling on. A thread
        // names itself as it starts, so the poller is given a moment.
        #[cfg(target_os = "linux")]
        {
            let polling = || thread_names().iter().any(|name| name == "serve-signals");
            let deadline = Instant::now() + Duration::from_secs(2);
            while poll_signals && !polling() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(polling(), poll_signals, "poll_signals = {poll_signals}");
        }
        let asked = Instant::now();
        server.request_drain();
        server.wait().expect("drain");
        assert!(
            asked.elapsed() < Duration::from_millis(500),
            "an idle daemon took {:?} to stop",
            asked.elapsed()
        );
    }
    let coordinator = Arc::new(LocalCoordinator::new(&fig3_adaptive(), 2, 1).expect("coordinator"));
    let mut endpoint = CoordServer::start("127.0.0.1:0", coordinator).expect("endpoint starts");
    let asked = Instant::now();
    endpoint.stop();
    assert!(
        asked.elapsed() < Duration::from_millis(500),
        "an idle coordinator endpoint took {:?} to stop",
        asked.elapsed()
    );
}

#[test]
fn a_connection_past_the_cap_is_answered_503_without_a_thread() {
    let spool = temp_spool("cap");
    let (server, addr) = start_server(&spool, 1);
    // Fill every slot with a client that connects and says nothing (each
    // holds its handler until the read timeout, or until it hangs up).
    let silent: Vec<TcpStream> = (0..http::MAX_CONNECTIONS)
        .map(|i| TcpStream::connect(addr.as_str()).unwrap_or_else(|e| panic!("client {i}: {e}")))
        .collect();
    let refused = client::get(&addr, "/healthz").expect("the refusal is a response");
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert!(refused.text().contains("busy"), "{}", refused.text());
    // The slots come back as their holders leave.
    drop(silent);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let response = client::get(&addr, "/healthz").expect("request after the flood");
        if response.status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "slots never came back");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.request_drain();
    server.wait().expect("drain");
}
