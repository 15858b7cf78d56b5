//! The traced run: per-layer metrics. Every section times calls into one
//! layer's public functions under the benchmark's own spans; the only data
//! taken from inside the program is what it already publishes (`bcbpt_obs`
//! spans, the metrics registry, `/metrics`, `/stats`).
//!
//! The campaign sections run on the workload's *traced scenario* (same
//! population, warmup and window as the timed one, fewer runs per cell —
//! see `gen::trace_scenario_text`): once through the black box
//! (`Scenario::run` and the other executors) and once staged by hand
//! through `Network`'s public API. The staged replay must reproduce the
//! black box's outcome bytes and event counts exactly, or the attribution
//! is void and the run reports a failed check. The `sim`, `geo`, `relay`
//! and `serve` sections are probes on fixed seeded inputs, the same on
//! every workload.

use crate::check;
use crate::gen::{self, SplitMix64, WorkloadKind};
use crate::host;
use crate::measure;
use crate::report::Report;
use crate::serve_io::{fetch_outcome, prometheus_value, runs_executed, submit, Daemon};
use crate::spans::{self, Recorder};
use crate::staged::{self, StagedRun, WarmedCell};
use bcbpt_cluster::{Protocol, ProtocolRegistry, ProtocolSpec};
use bcbpt_core::{
    cluster_sizes, fork_experiment, merge_shards, run_shard_in, run_shard_with, CellOutcome,
    CellReport, Checkpoint, PartialOutcome, Scenario, ScenarioCell, ScenarioOutcome,
    ShardRunOptions, ShardSpec, WarmCache, Workload,
};
use bcbpt_net::NodeId;
use bcbpt_relay::gf256::DecodeMatrix;
use bcbpt_serve::{client, Spool};
use bcbpt_sim::{Control, Engine, SimDuration, SimTime};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Samples of each repeated micro-section.
const SAMPLES: usize = 5;
/// Events per `sim` engine section.
const ENGINE_EVENTS: u64 = 1_000_000;
/// Seeded node pairs per `geo.base_rtt_ns` sample.
const RTT_PAIRS: usize = 1_000_000;
/// `GET /healthz` round trips: 200 is the fewest that support a p95.
const HEALTH_PINGS: usize = 200;
/// Clones held at once to read `net.snapshot_mb` off the resident set.
const HELD_CLONES: usize = 4;

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn events_drained() -> u64 {
    bcbpt_obs::global()
        .snapshot()
        .counter("bcbpt_sim_events_drained_total")
        .unwrap_or(0)
}

/// `net.snapshot_mb`: resident growth per held clone of the traced
/// scenario's last cell. Runs before anything else has allocated and freed
/// memory — later the allocator would serve the clones from its free lists
/// and the resident set would not move.
fn snapshot_probe(text: &str, report: &mut Report) -> Result<(), String> {
    let scenario = Scenario::from_json(text)?;
    let cell = scenario.cells().pop().ok_or("the scenario has no cells")?;
    let mut untraced = Recorder::new(false);
    let warmed = staged::warm_cell(
        &mut untraced,
        &ProtocolRegistry::builtins(),
        &scenario,
        cell,
    )?;
    let before = host::rss_mb();
    let held: Vec<_> = (0..HELD_CLONES).map(|_| warmed.net.clone()).collect();
    let after = host::rss_mb();
    black_box(&held);
    report
        .value("net.snapshot_mb", (after - before) / HELD_CLONES as f64)
        .note = format!(
        "approximate: VmRSS growth over {HELD_CLONES} held clones of cell {:?}",
        warmed.cell.label
    );
    Ok(())
}

/// What the black-box repetitions hand to the later sections.
struct BlackBox {
    scenario: Scenario,
    outcome: ScenarioOutcome,
    json: String,
    /// `Scenario::run` alone, program tracing off.
    session_s: f64,
}

/// The traced scenario through `Scenario::run`, twice: program tracing off
/// (the base of every ratio) and on (`bcbpt_obs::install_trace`, which
/// yields the program's own `run` spans and the tracing overhead).
fn black_box_reps(rec: &mut Recorder, text: &str, report: &mut Report) -> Result<BlackBox, String> {
    let mut parse_us = Vec::new();
    let mut rep = |rec: &mut Recorder, program_trace: bool| {
        rec.next_rep();
        rec.time("bench.blackbox_rep", |rec| -> Result<_, String> {
            let (scenario, parse_s) = rec.leaf("core.scenario_parse", || Scenario::from_json(text));
            let scenario = scenario?;
            parse_us.push(parse_s * 1e6);
            let (run, run_s) = rec.time("core.session_run", |rec| {
                if !program_trace {
                    return (scenario.run(), Vec::new());
                }
                let installed = Instant::now();
                bcbpt_obs::install_trace();
                let outcome = scenario.run();
                let events = bcbpt_obs::take_trace();
                let origin_ns = rec.offset_ns(installed);
                for e in &events {
                    let start_ns = origin_ns + e.start_us * 1_000;
                    rec.import(
                        &format!("core.{}", e.name),
                        e.tid + 1,
                        start_ns,
                        start_ns + e.dur_us * 1_000,
                    );
                }
                (outcome, events)
            });
            let (outcome, program_spans) = run;
            let outcome = outcome?;
            let (json, _) = rec.leaf("core.outcome_encode", || outcome.to_json());
            let (table, _) = rec.leaf("stats.render", || outcome.render());
            black_box(table);
            Ok((scenario, outcome, json, run_s, program_spans))
        })
    };

    let (plain, plain_wall) = rep(rec, false);
    let (scenario, outcome, json, session_s, _) = plain?;
    let drained_before = events_drained();
    let (traced, traced_wall) = rep(rec, true);
    let (_, _, traced_json, _, program_spans) = traced?;
    let drained = events_drained() - drained_before;
    report.tally.check(traced_json == json, || {
        "the instrumented session's outcome bytes differ from the plain one's".to_string()
    });
    check::count_runs(&mut report.tally, &scenario, &outcome);

    report.samples("core.scenario_parse_us", &parse_us);
    report.value("core.exec_session_s", session_s);
    report
        .value("obs.trace_overhead_ratio", traced_wall / plain_wall)
        .note = format!("traced repetition {traced_wall:.4} s over untraced {plain_wall:.4} s");
    report.value("obs.spans_recorded", program_spans.len() as f64);
    report.value("sim.events_drained", drained as f64).note =
        "bcbpt_sim_events_drained_total over one Scenario::run".to_string();
    let highwater = bcbpt_obs::global()
        .snapshot()
        .gauge("bcbpt_sim_queue_depth_highwater")
        .unwrap_or(0);
    report.value("sim.queue_depth_highwater", highwater as f64);

    let run_ms: Vec<f64> = program_spans
        .iter()
        .filter(|e| e.name == "run")
        .map(|e| e.dur_us as f64 / 1e3)
        .collect();
    if !run_ms.is_empty() {
        let (p, tail) = measure::tail(&run_ms);
        let n = run_ms.len();
        report.samples("core.run_p50_ms", &run_ms).note = "the program's own run spans".to_string();
        let p99 = report.value("core.run_p99_ms", measure::percentile(&run_ms, 99.0));
        p99.n = n;
        p99.note = if p >= 100.0 {
            format!("nearest rank; n = {n} supports no tail percentile, this is the maximum")
        } else {
            format!("nearest rank; n = {n} has ten samples beyond only up to p{p} = {tail:.3} ms")
        };
    }
    Ok(BlackBox {
        scenario,
        outcome,
        json,
        session_s,
    })
}

/// The other executors on the same scenario, the shard wire format, and the
/// cross-path identity check: session, batch, 1/1-shard + merge and
/// 2-shard + merge must all produce the same outcome bytes.
fn executors(rec: &mut Recorder, bb: &BlackBox, report: &mut Report) -> Result<f64, String> {
    let scenario = &bb.scenario;
    let registry = ProtocolRegistry::builtins();
    let whole = ShardSpec::new(0, 1)?;
    rec.next_rep();

    let (batch, batch_s) = rec.leaf("core.exec_batch", || scenario.run_batch());
    let batch_json = batch?.to_json();
    report.tally.check(batch_json == bb.json, || {
        "run_batch outcome bytes differ from the session's".to_string()
    });
    report.value("core.exec_batch_s", batch_s);

    let (part, shard_run_s) = rec.leaf("core.shard_run", || {
        run_shard_in(scenario, whole, &registry, threads())
    });
    let part = part?;
    let (part_json, encode_s) = rec.leaf("core.part_encode", || part.to_json());
    let (decoded, decode_s) =
        rec.leaf("core.part_decode", || PartialOutcome::from_json(&part_json));
    let (merged, merge_s) = rec.leaf("core.merge", || merge_shards(vec![decoded?]));
    let merged_json = merged?.to_json();
    report.tally.check(merged_json == bb.json, || {
        "1/1-shard + merge_shards outcome bytes differ from the session's".to_string()
    });
    report.value("core.shard_run_s", shard_run_s);
    report
        .value("core.exec_shard1_s", shard_run_s + merge_s)
        .note = "run_shard 0/1 + merge_shards".to_string();
    report.value("core.part_bytes", part_json.len() as f64);
    report.value("core.part_encode_s", encode_s);
    report.value("core.part_decode_s", decode_s);
    report.value("core.merge_s", merge_s);

    // Two shards the way the daemon runs them: side by side, one worker
    // thread each.
    let ((first, second), _) = rec.leaf("core.shard_pair", || {
        std::thread::scope(|scope| {
            let second =
                scope.spawn(|| run_shard_in(scenario, ShardSpec::new(1, 2)?, &registry, 1));
            let first =
                ShardSpec::new(0, 2).and_then(|spec| run_shard_in(scenario, spec, &registry, 1));
            (first, second.join().expect("shard thread panicked"))
        })
    });
    let pair_json = merge_shards(vec![first?, second?])?.to_json();
    report.tally.check(pair_json == bb.json, || {
        "2-shard + merge_shards outcome bytes differ from the session's".to_string()
    });

    // The same shard with a checkpoint handed to an in-memory sink at every
    // fold, as the daemon's default `checkpoint_every = 1` does.
    let sink_bytes = AtomicU64::new(0);
    let mut sink = |checkpoint: &Checkpoint| -> Result<(), String> {
        sink_bytes.fetch_add(checkpoint.to_json().len() as u64 + 1, Ordering::Relaxed);
        Ok(())
    };
    let (checkpointed, checkpointed_s) = rec.leaf("core.shard_run_checkpointed", || {
        run_shard_with(
            scenario,
            whole,
            &registry,
            ShardRunOptions {
                threads: Some(threads()),
                checkpoint_every: 1,
                sink: Some(&mut sink),
                ..ShardRunOptions::default()
            },
        )
    });
    report
        .tally
        .check(checkpointed?.to_json() == part_json, || {
            "a checkpointing shard's part differs from the plain shard's".to_string()
        });
    report
        .value(
            "core.checkpoint_overhead_ratio",
            checkpointed_s / shard_run_s,
        )
        .note =
        format!("{checkpointed_s:.4} s with an in-memory sink over {shard_run_s:.4} s without");
    report.value(
        "core.checkpoint_bytes_total",
        sink_bytes.load(Ordering::Relaxed) as f64,
    );
    Ok(batch_s)
}

/// Everything the staged replay measured, per cell.
struct StagedCell {
    warmed: WarmedCell,
    runs: Vec<StagedRun>,
    /// `(window seconds, events)` of the idle twin of run `k`, by `k`.
    idle: Vec<(f64, u64)>,
    /// Part of the traced scenario (compared with the black box) or an
    /// extra probe cell (measured only).
    probe: bool,
}

impl StagedCell {
    fn setup_s(&self) -> f64 {
        self.warmed.policy_build_s + self.warmed.build_s + self.warmed.warmup_s
    }

    fn runs_s(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.clone_s + r.reseed_s + r.window_s)
            .sum()
    }

    fn events(&self) -> u64 {
        self.warmed.net.events_processed() + self.runs.iter().map(|r| r.events).sum::<u64>()
    }
}

/// The black box of one cell on one thread, with the events it drained:
/// `ExperimentConfig::run_serial` for measuring-run campaigns, a one-cell
/// `run_batch` for mining (which has no public per-cell entry point).
fn serial_cell(
    rec: &mut Recorder,
    scenario: &Scenario,
    warmed: &WarmedCell,
) -> Result<(CellReport, f64, u64), String> {
    let before = events_drained();
    let (report, secs) = rec.leaf("core.campaign_serial", || -> Result<CellReport, String> {
        if matches!(scenario.workload, Workload::Mining { .. }) {
            let mut one = scenario.clone();
            one.sweep = None;
            one.protocol = warmed.cell.protocol.clone();
            one.relay = warmed.cell.relay.clone();
            one.net.num_nodes = warmed.cell.num_nodes;
            Ok(one.run_batch()?.cells.remove(0).report)
        } else {
            Ok(CellReport::Campaign {
                campaign: warmed.cfg.run_serial()?,
            })
        }
    });
    Ok((report?, secs, events_drained() - before))
}

/// The staged replay: the traced scenario executed by hand, compared with
/// the black box, and mined for the `net`, `cluster` and `core` numbers.
fn staged_replay(
    rec: &mut Recorder,
    kind: WorkloadKind,
    text: &str,
    bb: &BlackBox,
    batch_s: f64,
    report: &mut Report,
) -> Result<Vec<StagedCell>, String> {
    let workload = bb.scenario.workload.clone();
    rec.next_rep();
    let root = rec.next_id();
    let (staged, staged_wall) = rec.time("bench.staged_rep", |rec| -> Result<_, String> {
        let (scenario, warmed, _) = staged::stage_setup(rec, text)?;
        let mut cells = Vec::new();
        let mut outcomes = Vec::new();
        for warmed in warmed {
            let warmup_traffic = warmed.net.stats().clone();
            let runs: Vec<StagedRun> = (0..scenario.runs)
                .map(|k| staged::staged_run(rec, &warmed, &workload, &warmup_traffic, k))
                .collect();
            let (outcome, _) = rec.leaf("core.assemble", || staged::assemble_cell(&warmed, &runs));
            outcomes.push(outcome);
            cells.push(StagedCell {
                warmed,
                runs,
                idle: Vec::new(),
                probe: false,
            });
        }
        let outcome =
            ScenarioOutcome::new(scenario.name.clone(), scenario.workload.clone(), outcomes);
        let (json, _) = rec.leaf("core.outcome_encode", || outcome.to_json());
        let (table, _) = rec.leaf("stats.render", || outcome.render());
        black_box(table);
        Ok((cells, outcome, json))
    });
    let (mut cells, staged_outcome, staged_json) = staged?;
    report.tally.check(staged_json == bb.json, || {
        "the staged replay's outcome bytes differ from the black box's — attribution void"
            .to_string()
    });

    // Where the staged repetition's wall went, layer by layer.
    let layers = spans::layer_self_seconds(rec.spans(), root);
    let attributed: f64 = layers
        .iter()
        .filter(|(layer, _)| layer.as_str() != "bench")
        .map(|(_, s)| s)
        .sum();
    let mut line = format!("staged repetition {staged_wall:.4} s; self time by layer:");
    for (layer, secs) in &layers {
        line.push_str(&format!(" {layer} {secs:.4}"));
    }
    report.notes.push(line);
    report.tally.check(
        (attributed - staged_wall).abs() <= 0.05 * staged_wall,
        || {
            format!(
                "per-layer self times sum to {attributed:.4} s, not within 5 % of the staged \
                 repetition's {staged_wall:.4} s"
            )
        },
    );

    // One thread of black box per cell: results and event counts must match
    // the staged ones exactly.
    let mut serial_s = 0.0;
    let mut residual_s = 0.0;
    for (cell, staged_cell) in cells.iter().zip(&staged_outcome.cells) {
        let (serial_report, secs, drained) = serial_cell(rec, &bb.scenario, &cell.warmed)?;
        let label = &cell.warmed.cell.label;
        report.tally.check(serial_report == staged_cell.report, || {
            format!("cell {label:?}: staged run results differ from the black box's")
        });
        report.tally.check(drained == cell.events(), || {
            format!(
                "cell {label:?}: the black box drained {drained} events, the staged replay {}",
                cell.events()
            )
        });
        serial_s += secs;
        residual_s += secs - cell.setup_s() - cell.runs_s();
    }
    report.value("core.campaign_serial_s", serial_s);
    report.value("core.campaign_residual_s", residual_s).note =
        "serial − staged (set-up + clone + reseed + window): fold, catch_unwind, harvest"
            .to_string();
    report
        .value(
            "core.pool_efficiency",
            serial_s / (threads() as f64 * batch_s),
        )
        .note = format!(
        "serial / ({} threads × run_batch {batch_s:.4} s)",
        threads()
    );

    // A probe cell for the protocol family the traced scenario lacks, so
    // the per-protocol numbers exist on every workload.
    let registry = ProtocolRegistry::builtins();
    if !cells.iter().any(|c| c.warmed.family() == "lbc") {
        let like = &cells[0].warmed.cell;
        let cell = ScenarioCell {
            label: "lbc (probe)".to_string(),
            protocol: ProtocolSpec::from(Protocol::Lbc),
            num_nodes: like.num_nodes,
            relay: like.relay.clone(),
        };
        let warmed = staged::warm_cell(rec, &registry, &bb.scenario, cell)?;
        let warmup_traffic = warmed.net.stats().clone();
        let run = staged::staged_run(rec, &warmed, &workload, &warmup_traffic, 0);
        cells.push(StagedCell {
            warmed,
            runs: vec![run],
            idle: Vec::new(),
            probe: true,
        });
    }

    // Idle twins: the same windows with nothing injected.
    for cell in &mut cells {
        let twins = if gen::idle_twin_every_run(kind) {
            cell.runs.len()
        } else {
            1
        };
        cell.idle = (0..twins)
            .map(|k| staged::idle_run(rec, &cell.warmed, &workload, k))
            .collect();
    }
    staged_metrics(&cells, report);
    Ok(cells)
}

fn staged_metrics(cells: &[StagedCell], report: &mut Report) {
    let per_cell =
        |f: fn(&WarmedCell) -> f64| -> Vec<f64> { cells.iter().map(|c| f(&c.warmed)).collect() };
    report.samples("net.build_s", &per_cell(|w| w.build_s)).note = "per cell".to_string();
    report
        .samples(
            "cluster.policy_build_us",
            &per_cell(|w| w.policy_build_s * 1e6),
        )
        .note = "per cell".to_string();
    for family in ["bitcoin", "lbc", "bcbpt"] {
        let of_family: Vec<&StagedCell> = cells
            .iter()
            .filter(|c| c.warmed.family() == family)
            .collect();
        let warmups: Vec<f64> = of_family.iter().map(|c| c.warmed.warmup_s).collect();
        report.samples(&format!("cluster.warmup_s.{family}"), &warmups);
        let window_s: f64 = of_family
            .iter()
            .flat_map(|c| &c.runs)
            .map(|r| r.window_s)
            .sum();
        let events: u64 = of_family
            .iter()
            .flat_map(|c| &c.runs)
            .map(|r| r.events)
            .sum();
        let runs: usize = of_family.iter().map(|c| c.runs.len()).sum();
        let metric = report.value(
            &format!("net.ns_per_event.{family}"),
            window_s * 1e9 / events as f64,
        );
        metric.n = runs;
        metric.note = format!("{events} events over {runs} staged windows");
    }
    let bitcoin = report.get("net.ns_per_event.bitcoin").unwrap_or(f64::NAN);
    let bcbpt = report.get("net.ns_per_event.bcbpt").unwrap_or(f64::NAN);
    report.value("cluster.dispatch_ratio", bcbpt / bitcoin).note =
        "net.ns_per_event.bcbpt over .bitcoin".to_string();

    if let Some(clustered) = cells.iter().find(|c| c.warmed.family() == "bcbpt") {
        let sizes = cluster_sizes(&clustered.warmed.net);
        report.value(
            "cluster.warmup_probe_msgs",
            clustered.warmed.net.stats().probe_messages() as f64,
        );
        report.value("cluster.count", sizes.len() as f64);
        report.value(
            "cluster.largest",
            sizes.first().copied().unwrap_or(0) as f64,
        );
    }

    // Per-run numbers pool the runs of the scenario's own cells.
    let runs: Vec<&StagedRun> = cells
        .iter()
        .filter(|c| !c.probe)
        .flat_map(|c| &c.runs)
        .collect();
    let of = |f: fn(&StagedRun) -> f64| -> Vec<f64> { runs.iter().map(|r| f(r)).collect() };
    let clone_us = of(|r| r.clone_s * 1e6);
    report.samples("net.clone_us", &clone_us);
    report.tail("net.clone_us.tail", &clone_us);
    report.samples("net.reseed_us", &of(|r| r.reseed_s * 1e6));
    let window_s = of(|r| r.window_s);
    report.samples("net.window_s", &window_s);
    report.tail("net.window_s.tail", &window_s);
    report.samples("net.events_per_run", &of(|r| r.events as f64));
    report.samples("net.msgs_probe", &of(|r| r.traffic.probe_messages() as f64));
    report.samples(
        "net.msgs_cluster_control",
        &of(|r| r.traffic.cluster_control_messages() as f64),
    );
    report.samples("net.msgs_relay", &of(|r| r.traffic.relay_messages() as f64));

    let mut idle_s = Vec::new();
    let mut idle_events = Vec::new();
    let mut tx_events = Vec::new();
    let (mut idle_sum, mut busy_sum) = (0.0, 0.0);
    for cell in cells.iter().filter(|c| !c.probe) {
        for (run, (secs, events)) in cell.runs.iter().zip(&cell.idle) {
            idle_s.push(*secs);
            idle_events.push(*events as f64);
            tx_events.push(run.events as f64 - *events as f64);
            idle_sum += secs;
            busy_sum += run.window_s;
        }
    }
    report.samples("net.idle_window_s", &idle_s);
    report.samples("net.idle_events_per_run", &idle_events);
    report.samples("net.tx_events_per_run", &tx_events).note =
        "events of a run minus events of its idle twin".to_string();
    report
        .value("net.background_share", idle_sum / busy_sum)
        .note = "idle window time over the same runs' window time".to_string();
}

/// `stats`, `serde_json` and the outcome's own encode/decode, on the
/// traced scenario's outcome; the per-sample statistics fall back to
/// `sampled` (the daemon section's direct outcome) when the workload's
/// outcome carries no Δt samples, as mining outcomes do not.
fn outcome_probes(bb: &BlackBox, sampled: &ScenarioOutcome, report: &mut Report) {
    let mb = bb.json.len() as f64 / 1e6;
    let time_n = |f: &mut dyn FnMut()| -> Vec<f64> {
        (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect()
    };
    let encode = time_n(&mut || {
        black_box(bb.outcome.to_json());
    });
    let decode = time_n(&mut || {
        black_box(ScenarioOutcome::from_json(&bb.json).expect("outcome text decodes"));
    });
    report.value("core.outcome_bytes", bb.json.len() as f64);
    report.samples("core.outcome_encode_s", &encode);
    report.samples("core.outcome_decode_s", &decode);
    let rate = |secs: &[f64]| -> Vec<f64> { secs.iter().map(|s| mb / s).collect() };
    report.samples("serde_json.encode_mb_per_s", &rate(&encode));
    report.samples("serde_json.decode_mb_per_s", &rate(&decode));

    // The same outcome with every cell's run list cut to half: decoding
    // twice the runs should cost twice the time.
    let mut half = bb.outcome.clone();
    let mut halved = false;
    for cell in &mut half.cells {
        if let CellReport::Campaign { campaign } = &mut cell.report {
            let keep = (campaign.runs.len() / 2).max(1);
            halved |= keep < campaign.runs.len();
            campaign.runs.truncate(keep);
        }
    }
    let half_json = half.to_json();
    let half_decode = time_n(&mut || {
        black_box(ScenarioOutcome::from_json(&half_json).expect("outcome text decodes"));
    });
    report
        .value(
            "serde_json.decode_scaling",
            measure::median(&decode) / measure::median(&half_decode),
        )
        .note = if halved {
        format!(
            "{} B over {} B (every run list halved); 2.0 is linear",
            bb.json.len(),
            half_json.len()
        )
    } else {
        "this outcome has no run lists to halve: 1.0 by construction".to_string()
    };

    let has_samples = |o: &ScenarioOutcome| o.cells.iter().any(|c| c.delta_summary().is_some());
    let (source, note) = if has_samples(&bb.outcome) {
        (&bb.outcome, String::new())
    } else {
        (
            sampled,
            "on the daemon section's outcome: this workload's has no Δt samples".to_string(),
        )
    };
    let mut summary_ns = Vec::new();
    let mut ecdf_ns = Vec::new();
    for _ in 0..SAMPLES {
        for cell in &source.cells {
            let Some(campaign) = cell.campaign() else {
                continue;
            };
            let samples = campaign.deltas_ms().count() as f64;
            if samples == 0.0 {
                continue;
            }
            // A fresh cell each time: the accessors cache their result.
            let fresh = || {
                CellOutcome::new(
                    cell.label.clone(),
                    cell.protocol.clone(),
                    cell.num_nodes,
                    cell.report.clone(),
                )
            };
            let subject = fresh();
            let start = Instant::now();
            black_box(subject.delta_summary());
            summary_ns.push(start.elapsed().as_secs_f64() * 1e9 / samples);
            let subject = fresh();
            let start = Instant::now();
            black_box(subject.delta_ecdf());
            ecdf_ns.push(start.elapsed().as_secs_f64() * 1e9 / samples);
        }
    }
    report
        .samples("stats.summary_ns_per_sample", &summary_ns)
        .note = note.clone();
    report.samples("stats.ecdf_ns_per_sample", &ecdf_ns).note = note;

    let render: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let fresh = ScenarioOutcome::from_json(&bb.json).expect("outcome text decodes");
            let start = Instant::now();
            black_box(fresh.render());
            start.elapsed().as_secs_f64()
        })
        .collect();
    report.samples("stats.render_s", &render);
}

/// A session whose every cell hits a shared `WarmCache`: the traced
/// scenario's cells as a one-run, one-millisecond-window transaction flood
/// (the warm recipe ignores both), so what remains is the hit path.
fn warm_cache_probe(bb: &BlackBox, report: &mut Report) -> Result<(), String> {
    let mut probe = bb.scenario.clone();
    probe.workload = Workload::TxFlood;
    probe.runs = 1;
    probe.window_ms = 1.0;
    probe.stop = None;
    let cells = probe.cells().len();
    let cache = WarmCache::new(cells.max(8));
    let first = probe.session().with_warm_cache(&cache).block()?.to_json();
    let mut hit_us = Vec::new();
    for _ in 0..SAMPLES {
        let hits_before = cache.hits();
        let start = Instant::now();
        let again = probe.session().with_warm_cache(&cache).block()?;
        hit_us.push(start.elapsed().as_secs_f64() * 1e6 / cells as f64);
        let hits = cache.hits() - hits_before;
        report
            .tally
            .check(hits == cells as u64 && again.to_json() == first, || {
                format!("warm-cache session: {hits} hits for {cells} cells, or a different outcome")
            });
    }
    report.samples("core.warm_cache_hit_us", &hit_us).note =
        "per cell: a runs = 1, window = 1 ms session on a warm WarmCache".to_string();
    Ok(())
}

/// `sim`: a bare `Engine` scheduling and draining, and a timer cascade.
/// `geo`: `Network::base_rtt_ms` over seeded node pairs.
fn sim_and_geo_probes(seed: u64, cells: &[StagedCell], report: &mut Report) {
    let mut drain_ns = Vec::new();
    let mut cascade_ns = Vec::new();
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let mut engine = Engine::<u64>::with_capacity(ENGINE_EVENTS as usize);
        for i in 0..ENGINE_EVENTS {
            engine.schedule_at(
                SimTime::from_micros(i.wrapping_mul(2_654_435_761) % 10_000_000),
                i,
            );
        }
        let mut sum = 0u64;
        engine.run(|_, v| {
            sum = sum.wrapping_add(v);
            Control::Continue
        });
        black_box(sum);
        drain_ns.push(start.elapsed().as_secs_f64() * 1e9 / ENGINE_EVENTS as f64);

        let start = Instant::now();
        let mut engine = Engine::new();
        engine.schedule_in(SimDuration::from_micros(1), 0u64);
        let mut fired = 0u64;
        engine.run(|engine, _| {
            fired += 1;
            if fired < ENGINE_EVENTS {
                engine.schedule_in(SimDuration::from_micros(1), fired);
            }
            Control::Continue
        });
        black_box(fired);
        cascade_ns.push(start.elapsed().as_secs_f64() * 1e9 / ENGINE_EVENTS as f64);
    }
    report
        .samples("sim.schedule_drain_ns_per_event", &drain_ns)
        .note = format!("{ENGINE_EVENTS} events scheduled, then drained");
    report.samples("sim.cascade_ns_per_event", &cascade_ns).note =
        format!("{ENGINE_EVENTS}-event timer cascade");

    let net = &cells[0].warmed.net;
    let nodes = net.num_nodes() as u64;
    let mut rng = SplitMix64::new(seed);
    let pairs: Vec<(NodeId, NodeId)> = (0..RTT_PAIRS)
        .map(|_| {
            (
                NodeId::from_index(rng.below(nodes) as u32),
                NodeId::from_index(rng.below(nodes) as u32),
            )
        })
        .collect();
    let rtt_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut sum = 0.0;
            for &(a, b) in &pairs {
                sum += net.base_rtt_ms(a, b);
            }
            black_box(sum);
            start.elapsed().as_secs_f64() * 1e9 / RTT_PAIRS as f64
        })
        .collect();
    report.samples("geo.base_rtt_ns", &rtt_ns).note =
        format!("{RTT_PAIRS} seeded pairs among {nodes} nodes");
}

/// `relay`: one `fork_experiment` cell per relay path on the mining-relay
/// environment, and the GF(256) decode kernel on seeded coefficients.
fn relay_probes(seed: u64, report: &mut Report) -> Result<(), String> {
    let scenario = Scenario::from_json(&gen::relay_probe_text(seed))?;
    let Workload::Mining {
        block_interval_ms,
        duration_ms,
    } = scenario.workload
    else {
        return Err("the relay probe scenario is not a mining workload".to_string());
    };
    let mut cfg = scenario.cell_config(&scenario.cells()[0]);
    cfg.relay = None;
    let start = Instant::now();
    let legacy = fork_experiment(&cfg, Protocol::Bitcoin, block_interval_ms, duration_ms)?;
    report.value("relay.legacy.cell_s", start.elapsed().as_secs_f64());
    report
        .tally
        .check(legacy.mined > 0 && legacy.relay.is_none(), || {
            "relay probe: the legacy path mined nothing or reports a relay".to_string()
        });
    for (name, spec) in [
        ("full", "full"),
        ("compact", "compact"),
        ("rlnc", "rlnc(chunks=16)"),
    ] {
        let start = Instant::now();
        let fork = fork_experiment(
            &cfg.with_relay(spec),
            Protocol::Bitcoin,
            block_interval_ms,
            duration_ms,
        )?;
        report.value(
            &format!("relay.{name}.cell_s"),
            start.elapsed().as_secs_f64(),
        );
        let Some(ext) = fork.relay else {
            report
                .tally
                .check(false, || format!("relay probe {spec}: no relay telemetry"));
            continue;
        };
        report.tally.check(
            fork.mined > 0 && ext.bandwidth.waste_ratio.is_finite(),
            || format!("relay probe {spec}: nothing mined or a non-finite waste ratio"),
        );
        report.value(
            &format!("relay.{name}.bytes_on_wire"),
            ext.bandwidth.bytes_on_wire as f64,
        );
        report.value(
            &format!("relay.{name}.waste_ratio"),
            ext.bandwidth.waste_ratio,
        );
        report.value(&format!("relay.{name}.block_delay_ms"), ext.block_delay_ms);
    }

    const CHUNKS: usize = 16;
    const VECTORS: usize = 1 << 16;
    let mut rng = SplitMix64::new(seed);
    let coeffs: Vec<[u8; CHUNKS]> = (0..VECTORS)
        .map(|_| {
            let (a, b) = (rng.next_u64().to_le_bytes(), rng.next_u64().to_le_bytes());
            let mut v = [0u8; CHUNKS];
            v[..8].copy_from_slice(&a);
            v[8..].copy_from_slice(&b);
            v
        })
        .collect();
    let absorb_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut matrix = DecodeMatrix::new(CHUNKS);
            let mut decoded = 0u32;
            for v in &coeffs {
                matrix.absorb(v);
                if matrix.is_complete() {
                    decoded += 1;
                    matrix = DecodeMatrix::new(CHUNKS);
                }
            }
            black_box(decoded);
            start.elapsed().as_secs_f64() * 1e9 / VECTORS as f64
        })
        .collect();
    report.samples("relay.gf256_absorb_ns", &absorb_ns).note =
        format!("per absorb, {CHUNKS} chunks, decoding to full rank over {VECTORS} seeded vectors");
    Ok(())
}

/// The four histogram sums the daemon publishes through `/metrics`.
const DAEMON_SUMS: [(&str, &str); 4] = [
    (
        "serve.checkpoint_write_s_sum",
        "bcbpt_shard_checkpoint_write_seconds_sum",
    ),
    (
        "serve.spool_write_s_sum",
        "bcbpt_serve_spool_write_seconds_sum",
    ),
    (
        "serve.spool_read_s_sum",
        "bcbpt_serve_spool_read_seconds_sum",
    ),
    (
        "serve.queue_wait_s_sum",
        "bcbpt_serve_queue_wait_seconds_sum",
    ),
];

/// `serve`: an in-process daemon with default settings, one closed-loop
/// client. Every served outcome must equal a direct `Scenario::run` of the
/// same body. Returns the first body's direct outcome.
fn serve_probes(
    kind: WorkloadKind,
    seed: u64,
    out_dir: &Path,
    report: &mut Report,
) -> Result<ScenarioOutcome, String> {
    let (bodies, one_shard_body) = gen::serve_trace_bodies(kind, seed);
    report.inputs.extend(bodies.iter().cloned());
    let daemon = Daemon::start(out_dir)?;
    let addr = daemon.addr();
    let scrape = |addr: &str| -> Result<(String, f64), String> {
        let start = Instant::now();
        let text = client::get(addr, "/metrics")?.text();
        Ok((text, start.elapsed().as_secs_f64() * 1e3))
    };
    let (metrics_at_start, _) = scrape(addr)?;

    let rtt_ms: Vec<f64> = (0..HEALTH_PINGS)
        .map(|_| {
            let start = Instant::now();
            let ok = client::get(addr, "/healthz").is_ok_and(|r| r.status == 200);
            (ok, start.elapsed().as_secs_f64() * 1e3)
        })
        .filter_map(|(ok, ms)| ok.then_some(ms))
        .collect();
    report.tally.ops(
        "health pings",
        HEALTH_PINGS as u64,
        (HEALTH_PINGS - rtt_ms.len()) as u64,
    );
    report.samples("serve.http_rtt_ms", &rtt_ms);
    report.tail("serve.http_rtt_ms.tail", &rtt_ms);

    let (mut ack_ms, mut run_s, mut fetch_ms, mut total_s, mut direct_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut served = Vec::new();
    let mut first_direct = None;
    let mut last_job = String::new();
    let mut failed_jobs = 0u64;
    for body in &bodies {
        let start = Instant::now();
        let ticket = submit(addr, body, Some(2))?;
        let acked = start.elapsed();
        let settled = client::wait_job(addr, &ticket.job, Duration::from_secs(170))?;
        let ran = start.elapsed();
        let outcome = fetch_outcome(addr, &ticket.job)?;
        let total = start.elapsed();
        ack_ms.push(acked.as_secs_f64() * 1e3);
        run_s.push((ran - acked).as_secs_f64());
        fetch_ms.push((total - ran).as_secs_f64() * 1e3);
        total_s.push(total.as_secs_f64());

        let scenario = Scenario::from_json(body)?;
        let start = Instant::now();
        let direct = scenario.run()?;
        let direct_json = format!("{}\n", direct.to_json());
        direct_s.push(start.elapsed().as_secs_f64());
        let ok = ticket.status == 202
            && settled.contains("\"state\":\"done\"")
            && outcome.status == 200
            && outcome.body == direct_json.as_bytes();
        if !ok {
            failed_jobs += 1;
        }
        first_direct.get_or_insert(direct);
        served.push(outcome.body);
        last_job = ticket.job;
    }
    report.samples("serve.submit_ack_ms", &ack_ms);
    report.samples("serve.job_run_s", &run_s);
    report.samples("serve.outcome_fetch_ms", &fetch_ms);
    report
        .value(
            "serve.overhead_ratio",
            measure::median(&total_s) / measure::median(&direct_s),
        )
        .note = format!(
        "submit→outcome {:.4} s over a direct Scenario::run {:.4} s",
        measure::median(&total_s),
        measure::median(&direct_s)
    );

    let start = Instant::now();
    let mut lines = 0usize;
    let clean = client::stream_lines(addr, &format!("/jobs/{last_job}/events"), |_| lines += 1)?;
    report
        .value(
            "serve.events_stream_ms",
            start.elapsed().as_secs_f64() * 1e3,
        )
        .note = format!("{lines} lines of a finished job's stream");
    report.tally.check(clean && lines > 0, || {
        "a finished job's event stream was cut or empty".to_string()
    });

    // Resubmissions: answered from the store, executing nothing.
    let runs_before = runs_executed(addr)?;
    for (body, cold) in bodies.iter().zip(&served) {
        let ticket = submit(addr, body, Some(2))?;
        let outcome = fetch_outcome(addr, &ticket.job)?;
        if !(ticket.status == 200 && ticket.cached && &outcome.body == cold) {
            failed_jobs += 1;
        }
    }
    let runs_after = runs_executed(addr)?;
    report.tally.check(runs_after == runs_before, || {
        format!("resubmissions executed runs: {runs_before} → {runs_after}")
    });
    report
        .tally
        .ops("jobs", 2 * bodies.len() as u64, failed_jobs);
    report.value("serve.runs_executed", runs_after as f64).note =
        "after the resubmissions; they must not move it".to_string();

    // One job on one shard: the worker runs it single-threaded.
    let start = Instant::now();
    let ticket = submit(addr, &one_shard_body, None)?;
    let settled = client::wait_job(addr, &ticket.job, Duration::from_secs(170))?;
    let outcome = fetch_outcome(addr, &ticket.job)?;
    report.value("serve.job_1shard_s", start.elapsed().as_secs_f64());
    report.tally.check(
        settled.contains("\"state\":\"done\"") && outcome.status == 200,
        || "the one-shard job did not settle as done".to_string(),
    );

    let scrapes: Vec<(String, f64)> = (0..SAMPLES)
        .map(|_| scrape(addr))
        .collect::<Result<_, _>>()?;
    let scrape_ms: Vec<f64> = scrapes.iter().map(|(_, ms)| *ms).collect();
    report.samples("serve.metrics_scrape_ms", &scrape_ms);
    let metrics_at_end = &scrapes.last().expect("SAMPLES > 0").0;
    for (name, family) in DAEMON_SUMS {
        match (
            prometheus_value(metrics_at_end, family),
            prometheus_value(&metrics_at_start, family),
        ) {
            (Some(end), Some(start)) => {
                report.value(name, end - start).note = format!("{family}, over this section");
            }
            _ => report
                .tally
                .check(false, || format!("/metrics does not publish {family}")),
        }
    }
    report.value(
        "serve.spool_bytes",
        Spool::open(daemon.spool_path())?.disk_bytes() as f64,
    );
    daemon.stop()?;
    first_direct.ok_or_else(|| "no job body".to_string())
}

/// The traced run of one workload.
pub fn trace(
    kind: WorkloadKind,
    seed: u64,
    bench_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let out_dir = bench_dir.join("out");
    let text = gen::trace_scenario_text(kind, seed);
    report.inputs.push(text.clone());
    let mut rec = Recorder::new(true);

    host::spin_up();
    snapshot_probe(&text, report)?;
    let bb = black_box_reps(&mut rec, &text, report)?;
    let digest = check::fnv1a64(bb.json.as_bytes());
    report
        .notes
        .push(format!("traced outcome digest (FNV-1a) {digest:#018x}"));
    check::golden(
        &mut report.tally,
        bench_dir,
        &format!("{}.trace", kind.name()),
        seed,
        digest,
    );
    let batch_s = executors(&mut rec, &bb, report)?;
    let cells = staged_replay(&mut rec, kind, &text, &bb, batch_s, report)?;
    if report.get("core.run_p50_ms").is_none() {
        // Mining cells run no `run` spans inside the program; the staged
        // per-run cost stands in.
        let run_ms: Vec<f64> = cells
            .iter()
            .filter(|c| !c.probe)
            .flat_map(|c| &c.runs)
            .map(|r| (r.clone_s + r.reseed_s + r.window_s) * 1e3)
            .collect();
        let note = "staged clone + reseed + window: the program publishes no run spans here";
        report.samples("core.run_p50_ms", &run_ms).note = note.to_string();
        report
            .value("core.run_p99_ms", measure::percentile(&run_ms, 99.0))
            .note = note.to_string();
    }
    sim_and_geo_probes(seed, &cells, report);
    drop(cells);
    warm_cache_probe(&bb, report)?;
    relay_probes(seed, report)?;
    let sampled = serve_probes(kind, seed, &out_dir, report)?;
    outcome_probes(&bb, &sampled, report);
    report.notes.push(format!(
        "traced scenario: {} runs per cell × {} cells; Scenario::run {:.4} s",
        bb.scenario.runs,
        bb.scenario.cells().len(),
        bb.session_s
    ));

    // Spans are kept in memory until here and written out at exit.
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!(
        "{}-trace-seed{seed}-{}.trace.json",
        kind.name(),
        std::process::id()
    ));
    let spans = rec.finish();
    std::fs::write(&path, spans::chrome_trace_json(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}
