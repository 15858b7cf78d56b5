//! The timed run: end-to-end metrics with all tracing off. One process per
//! workload run; the only thread besides the program's own workers is the
//! one that calls in here.

use crate::check;
use crate::gen::{self, WorkloadKind};
use crate::host::{self, TmpDir};
use crate::report::Report;
use crate::serve_io::{fetch_outcome, runs_executed, submit, Daemon};
use crate::spans::Recorder;
use crate::staged;
use bcbpt_core::Scenario;
use bcbpt_serve::Spool;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timed repetitions a campaign workload runs at least; `--seconds` adds
/// more when three finish early. The median of three survives one
/// disturbed repetition.
const MIN_REPS: usize = 3;

/// Set-up stagings per run: five, or three once this much time has gone
/// into staging (a 5000-node staging takes seconds).
const STAGINGS: usize = 5;
const MIN_STAGINGS: usize = 3;
const STAGING_BUDGET: Duration = Duration::from_secs(4);

/// Resubmissions timed for `cache_hit_ms` on campaign workloads.
const STORE_HITS: usize = 10;

/// Daemon start-ups timed for `setup_s` on `serve-shards`: each takes well
/// under a millisecond, so many are needed for a steady median.
const DAEMON_STARTS: usize = 25;

fn stagings_done(samples: &[f64], since: Instant) -> bool {
    samples.len() >= STAGINGS
        || (samples.len() >= MIN_STAGINGS && since.elapsed() >= STAGING_BUDGET)
}

/// `txflood-fig3`, `paper-slice`, `mining-relay`: scenario JSON text in →
/// outcome JSON bytes + rendered table out, repeated.
pub fn campaign(
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    bench_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let text = gen::scenario_texts(kind, seed).remove(0);
    report.inputs = vec![text.clone()];
    let mut rec = Recorder::new(false);

    // Set-up, staged through public calls, several times over.
    let mut setup_s = Vec::new();
    let staging_clock = Instant::now();
    while !stagings_done(&setup_s, staging_clock) {
        let (staged, secs) = rec.time("bench.setup", |rec| staged::stage_setup(rec, &text));
        black_box(staged?);
        setup_s.push(secs);
    }

    // Untimed warm-up repetition, through the batch reference executor:
    // its bytes are what every timed session repetition must reproduce.
    let reference = Scenario::from_json(&text)?.run_batch()?.to_json();

    let mut wall_s = Vec::new();
    let mut to_outcome_s = Vec::new();
    let clock = Instant::now();
    while wall_s.len() < MIN_REPS || clock.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let scenario = Scenario::from_json(&text)?;
        let outcome = scenario.run()?;
        let json = outcome.to_json();
        to_outcome_s.push(start.elapsed().as_secs_f64());
        let table = outcome.render();
        wall_s.push(start.elapsed().as_secs_f64());
        black_box(&table);
        check::count_runs(&mut report.tally, &scenario, &outcome);
        let rep = wall_s.len();
        report.tally.check(json == reference, || {
            format!("repetition {rep}: session outcome bytes differ from run_batch's")
        });
        report.tally.check(!table.is_empty(), || {
            format!("repetition {rep}: empty rendered table")
        });
    }

    let peak_rss_mb = host::peak_rss_mb();

    // A resubmission answered from the daemon's store: the outcome is put
    // into a fresh spool through `Spool::store_outcome` (no job runs), a
    // daemon is started on it, and the scenario is posted like any job.
    let spool_dir = TmpDir::create(&bench_dir.join("out"), "spool")?;
    let stored = format!("{reference}\n");
    {
        let scenario = Scenario::from_json(&text)?;
        let canonical = serde_json::to_string(&scenario).map_err(|e| e.to_string())?;
        Spool::open(spool_dir.path())?.store_outcome(
            scenario.digest(),
            &canonical,
            &stored,
            &[],
        )?;
    }
    let daemon = Daemon::start_on(spool_dir)?;
    let mut hit_ms = Vec::with_capacity(STORE_HITS);
    let mut misses = 0u64;
    for _ in 0..STORE_HITS {
        let start = Instant::now();
        let ticket = submit(daemon.addr(), &text, None)?;
        let outcome = fetch_outcome(daemon.addr(), &ticket.job)?;
        hit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let hit = ticket.status == 200
            && ticket.cached
            && outcome.status == 200
            && outcome.body == stored.as_bytes();
        if !hit {
            misses += 1;
        }
    }
    report.tally.ops("store hits", STORE_HITS as u64, misses);
    report.tally.check(runs_executed(daemon.addr())? == 0, || {
        "the daemon executed runs while answering from its store".to_string()
    });
    daemon.stop()?;

    report.samples("wall_s", &wall_s);
    report.samples("setup_s", &setup_s);
    report.value("peak_rss_mb", peak_rss_mb).note =
        "VmHWM after the timed repetitions, before the daemon starts".to_string();
    report.samples("submit_to_outcome_s", &to_outcome_s).note =
        "in process: scenario text in → outcome bytes out, no daemon".to_string();
    report.samples("cache_hit_ms", &hit_ms).note =
        "POST → outcome bytes from a daemon whose store was filled by Spool::store_outcome"
            .to_string();

    let digest = check::fnv1a64(reference.as_bytes());
    report
        .notes
        .push(format!("outcome digest (FNV-1a) {digest:#018x}"));
    check::golden(&mut report.tally, bench_dir, kind.name(), seed, digest);
    Ok(())
}

/// `serve-shards`: a closed loop of one client against an in-process
/// daemon with default settings — `gen::SERVE_JOBS` distinct jobs submitted cold, then the
/// same bodies again. The work is fixed (`--seconds` does not scale it):
/// `wall_s` is the time of all the submissions.
pub fn serve(seed: u64, bench_dir: &Path, report: &mut Report) -> Result<(), String> {
    let bodies = gen::scenario_texts(WorkloadKind::ServeShards, seed);
    report.inputs = bodies.clone();
    let out_dir = bench_dir.join("out");

    host::spin_up();
    // Set-up: fresh spool + Server::start + wait_healthy.
    let mut setup_s = Vec::with_capacity(DAEMON_STARTS);
    for _ in 0..DAEMON_STARTS {
        let start = Instant::now();
        let daemon = Daemon::start(&out_dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        daemon.stop()?;
    }

    let daemon = Daemon::start(&out_dir)?;
    let addr = daemon.addr();
    let loop_start = Instant::now();

    let mut cold_s = Vec::new();
    let mut cold_outcomes = Vec::new();
    let mut failed_jobs = 0u64;
    for body in &bodies {
        let start = Instant::now();
        let ticket = submit(addr, body, Some(2))?;
        let settled = bcbpt_serve::client::wait_job(addr, &ticket.job, Duration::from_secs(170))?;
        let outcome = fetch_outcome(addr, &ticket.job)?;
        cold_s.push(start.elapsed().as_secs_f64());
        let ok = ticket.status == 202
            && !ticket.cached
            && settled.contains("\"state\":\"done\"")
            && outcome.status == 200;
        if !ok {
            failed_jobs += 1;
        }
        cold_outcomes.push(outcome.body);
    }

    let runs_before = runs_executed(addr)?;
    let mut hit_ms = Vec::new();
    for (body, cold) in bodies.iter().zip(&cold_outcomes) {
        let start = Instant::now();
        let ticket = submit(addr, body, Some(2))?;
        let outcome = fetch_outcome(addr, &ticket.job)?;
        hit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let ok =
            ticket.status == 200 && ticket.cached && outcome.status == 200 && &outcome.body == cold;
        if !ok {
            failed_jobs += 1;
        }
    }
    let wall = loop_start.elapsed().as_secs_f64();
    let runs_after = runs_executed(addr)?;
    report
        .tally
        .ops("jobs", 2 * bodies.len() as u64, failed_jobs);
    report.tally.check(runs_after == runs_before, || {
        format!("resubmissions executed runs: {runs_before} → {runs_after}")
    });
    let peak_rss_mb = host::peak_rss_mb();

    // Job 1's served bytes against a direct run of the same body.
    let first = Scenario::from_json(&bodies[0])?;
    let direct = format!("{}\n", first.run()?.to_json());
    report
        .tally
        .check(cold_outcomes[0] == direct.as_bytes(), || {
            "job 1: served outcome bytes differ from a direct Scenario::run".to_string()
        });
    let expected_runs = (first.runs * first.cells().len() * bodies.len()) as u64;
    report.tally.check(runs_after == expected_runs, || {
        format!("daemon executed {runs_after} runs, the jobs hold {expected_runs}")
    });
    daemon.stop()?;

    report.value("wall_s", wall);
    report.samples("setup_s", &setup_s);
    report.value("peak_rss_mb", peak_rss_mb);
    report.samples("submit_to_outcome_s", &cold_s);
    report.samples("cache_hit_ms", &hit_ms);

    let mut all = Vec::new();
    for outcome in &cold_outcomes {
        all.extend_from_slice(outcome);
    }
    let digest = check::fnv1a64(&all);
    report.notes.push(format!(
        "digest (FNV-1a) of the served outcomes {digest:#018x}"
    ));
    check::golden(
        &mut report.tally,
        bench_dir,
        WorkloadKind::ServeShards.name(),
        seed,
        digest,
    );
    Ok(())
}
